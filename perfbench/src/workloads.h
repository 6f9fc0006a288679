// The three workloads and the pieces they share.  WORKLOADS.md gives
// each one's sizes, thread budget and the layers it stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/server/async_retrieval_server.h"

namespace perfbench {

/// Seed of every workload's database and of its model's training.
/// `--seed` draws the queries and the write schedule.  Which filter-scan
/// path a query takes (the pruned kernel, or the unpruned fallback when
/// the model gives the query a negative weight) follows from the model,
/// and the two differ several-fold in cost; a model trained per seed made
/// the mix, and with it per-query cost, jump from seed to seed.
constexpr uint64_t kDatabaseSeed = 1;

void RunTsDtw(const Args& args, Report* report);
void RunScan1m(const Args& args, Report* report);
void RunChurnRemote(const Args& args, Report* report);

/// Counts the exact distances an oracle serves, from any thread.
class CountingOracle : public qse::DistanceOracle {
 public:
  explicit CountingOracle(const qse::DistanceOracle* inner) : inner_(inner) {}
  size_t size() const override { return inner_->size(); }
  double Distance(size_t i, size_t j) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Distance(i, j);
  }
  uint64_t count() const { return count_.load(); }

 private:
  const qse::DistanceOracle* inner_;
  mutable std::atomic<uint64_t> count_{0};
};

/// Trains the Se-QS model (selective triples, query-sensitive
/// classifiers) on `train_ids`, which double as the candidate objects.
/// Adds core.train_s and core.train_dx to `report` when non-null.
qse::BoostMapArtifacts TrainSeQs(const qse::DistanceOracle& oracle,
                                 const std::vector<size_t>& train_ids,
                                 size_t rounds, size_t triples, size_t k1,
                                 uint64_t seed, Report* report);

/// The longest prefix of `model` (first j boosting rounds) that `fits`.
/// Serving a prefix cut at a fixed budget keeps the per-query cost from
/// wandering with the seed-dependent training run.
qse::QuerySensitiveEmbedding LongestPrefix(
    const qse::QuerySensitiveEmbedding& model,
    const std::function<bool(const qse::QuerySensitiveEmbedding&)>& fits);

/// Latencies and answers of one closed-loop phase against an async
/// server: one generator thread keeps `window` requests outstanding,
/// refilling from Future::OnReady callbacks.
struct ClosedLoopResult {
  std::vector<double> latency_ms;
  /// done_s[i]: when latency_ms[i] completed, in seconds from the start.
  std::vector<double> done_s;
  /// answers[i] = database ids answered for the i-th submitted request
  /// (the query index is i % num_queries), kept for the first
  /// `keep_answers` requests.
  std::vector<std::vector<size_t>> answers;
  std::vector<size_t> exact_distances;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

/// `make_dx(query_index, request_id)` builds the request's closure.  The
/// loop keeps submitting past `seconds` until `min_requests` were sent.
ClosedLoopResult RunClosedLoop(
    qse::AsyncRetrievalServer* server, const qse::RetrievalOptions& options,
    size_t num_queries, size_t window, double seconds, size_t min_requests,
    size_t keep_answers, uint64_t first_request_id, bool traced,
    const std::function<qse::DxToDatabaseFn(size_t, uint64_t)>& make_dx);

/// Query metrics are taken over blocks of this many completed queries,
/// in completion order: enough for a block's p99 to have ten samples
/// beyond it.
constexpr size_t kBlockQueries = 1000;
/// Fewest blocks over which the query metrics are taken per block; a
/// phase with fewer reports them over the whole phase.
constexpr size_t kMinBlocks = 8;

/// The end-to-end query metrics shared by every workload.  `done_s[i]` is
/// when `latency_ms[i]` completed, in seconds from the phase's start, in
/// completion order.
///
/// When the phase holds kMinBlocks blocks or more, query_p50_ms,
/// query_p99_ms and query_qps are each taken per block and the block
/// value at the quiet end is reported: the lower quartile of the blocks'
/// latency percentiles and the upper quartile of their rates.  Load from
/// outside the benchmark on a shared host comes in bursts of a fraction
/// of a second to seconds and only ever adds latency; it moved the p99
/// of single blocks several-fold and the p99 of whole runs by tens of
/// percent, while the quiet quartile holds unless three quarters of the
/// run is disturbed.  A change to the program that slows every block
/// moves these as much as the whole-phase figures; one that adds a stall
/// every few seconds shows in the whole-phase figures, printed beside
/// them as query_p50_whole_ms, query_p99_whole_ms and query_qps_whole.
void AddQueryMetrics(const std::vector<double>& latency_ms,
                     const std::vector<double>& done_s, double seconds,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
