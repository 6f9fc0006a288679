#include "perfbench/src/workloads.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "perfbench/src/trace.h"

namespace perfbench {

qse::BoostMapArtifacts TrainSeQs(const qse::DistanceOracle& oracle,
                                 const std::vector<size_t>& train_ids,
                                 size_t rounds, size_t triples, size_t k1,
                                 uint64_t seed, Report* report) {
  qse::BoostMapConfig config;
  config.sampling = qse::TripleSampling::kSelective;
  config.num_triples = triples;
  config.k1 = k1;
  config.sampling_seed = seed;
  config.boost.rounds = rounds;
  config.boost.query_sensitive = true;
  config.boost.seed = seed + 1;
  CountingOracle counting(&oracle);
  uint64_t start = NowNs();
  qse::StatusOr<qse::BoostMapArtifacts> trained =
      qse::TrainBoostMap(counting, train_ids, train_ids, config);
  double seconds = SecondsSince(start);
  QSE_CHECK_MSG(trained.ok(), trained.status().ToString().c_str());
  if (report != nullptr) {
    report->Set("core.train_s", seconds, "s");
    report->Set("core.train_dx", static_cast<double>(counting.count()),
                "count");
  }
  return std::move(trained).value();
}

qse::QuerySensitiveEmbedding LongestPrefix(
    const qse::QuerySensitiveEmbedding& model,
    const std::function<bool(const qse::QuerySensitiveEmbedding&)>& fits) {
  for (size_t j = model.num_rounds(); j > 0; --j) {
    qse::QuerySensitiveEmbedding prefix = model.Prefix(j);
    if (fits(prefix)) return prefix;
  }
  return model.Prefix(0);
}

ClosedLoopResult RunClosedLoop(
    qse::AsyncRetrievalServer* server, const qse::RetrievalOptions& options,
    size_t num_queries, size_t window, double seconds, size_t min_requests,
    size_t keep_answers, uint64_t first_request_id, bool traced,
    const std::function<qse::DxToDatabaseFn(size_t, uint64_t)>& make_dx) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    ClosedLoopResult result;
  };
  auto state = std::make_shared<State>();
  state->result.answers.resize(keep_answers);
  state->result.exact_distances.resize(keep_answers);
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < stop || i < min_requests; ++i) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&] { return state->outstanding < window; });
      ++state->outstanding;
      ++state->result.attempted;
    }
    const uint64_t request_id = first_request_id + i;
    qse::RetrievalRequest request;
    request.dx = make_dx(i % num_queries, request_id);
    request.options = options;
    const uint64_t submitted = NowNs();
    qse::Future<qse::StatusOr<qse::RetrievalResponse>> future =
        server->Submit(std::move(request));
    future.OnReady([state, start, submitted, request_id, i, traced](
                       const qse::StatusOr<qse::RetrievalResponse>& answer) {
      const uint64_t done = NowNs();
      if (traced) tracer::Record(Kind::kRequest, request_id, submitted, done);
      std::lock_guard<std::mutex> lock(state->mu);
      ClosedLoopResult& r = state->result;
      if (answer.ok()) {
        r.latency_ms.push_back(static_cast<double>(done - submitted) / 1e6);
        r.done_s.push_back(static_cast<double>(done - start) * 1e-9);
        if (i < r.answers.size()) {
          for (const qse::ScoredIndex& n : answer->neighbors) {
            r.answers[i].push_back(n.index);
          }
          r.exact_distances[i] = answer->exact_distances;
        }
      } else {
        ++r.failed;
      }
      --state->outstanding;
      state->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->outstanding == 0; });
  state->result.seconds = SecondsSince(start);
  return std::move(state->result);
}

namespace {

// The block value at the quiet end of `per_block`: its lower quartile, or
// its upper one when higher is better.
double QuietQuartile(std::vector<double> per_block, bool higher_is_better) {
  std::sort(per_block.begin(), per_block.end());
  if (higher_is_better) std::reverse(per_block.begin(), per_block.end());
  return per_block[(per_block.size() - 1) / 4];
}

}  // namespace

void AddQueryMetrics(const std::vector<double>& latency_ms,
                     const std::vector<double>& done_s, double seconds,
                     Report* report) {
  const double qps =
      seconds > 0 ? static_cast<double>(latency_ms.size()) / seconds : 0;
  report->Set("query_p50_whole_ms", Percentile(latency_ms, 0.50), "ms");
  report->Set("query_p99_whole_ms", Percentile(latency_ms, 0.99), "ms");
  report->Set("query_qps_whole", qps, "1/s");
  report->Set("query_samples", static_cast<double>(latency_ms.size()),
              "count");
  report->Set("query_mean_ms", Mean(latency_ms), "ms");

  const size_t blocks = latency_ms.size() / kBlockQueries;
  report->Set("query_blocks", static_cast<double>(blocks), "count");
  if (blocks < kMinBlocks) {
    report->Set("query_p50_ms", Percentile(latency_ms, 0.50), "ms");
    report->Set("query_p99_ms", Percentile(latency_ms, 0.99), "ms");
    report->Set("query_qps", qps, "1/s");
    return;
  }
  std::vector<double> p50s, p99s, rates;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t first = b * kBlockQueries, end = first + kBlockQueries;
    std::vector<double> block(latency_ms.begin() + first,
                              latency_ms.begin() + end);
    p50s.push_back(Percentile(block, 0.50));
    p99s.push_back(Percentile(std::move(block), 0.99));
    const double began = first == 0 ? 0 : done_s[first - 1];
    rates.push_back(static_cast<double>(kBlockQueries) /
                    (done_s[end - 1] - began));
  }
  report->Set("query_p50_ms", QuietQuartile(p50s, false), "ms");
  report->Set("query_p99_ms", QuietQuartile(p99s, false), "ms");
  report->Set("query_qps", QuietQuartile(rates, true), "1/s");
}

}  // namespace perfbench
