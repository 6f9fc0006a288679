#include "src/net/hedged_backend.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "src/util/logging.h"
#include "src/util/timer.h"

namespace qse {
namespace net {

HedgedReplicaBackend::HedgedReplicaBackend(
    const Embedder* embedder,
    std::vector<std::shared_ptr<RetrievalBackend>> replicas,
    HedgedBackendOptions options)
    : embedder_(embedder), replicas_(std::move(replicas)), options_(options) {
  QSE_CHECK_MSG(!replicas_.empty(), "a replica set needs at least 1 replica");
  auto& registry = obs::MetricRegistry::Global();
  replica_metrics_.reserve(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const std::string label = "{replica=\"" + std::to_string(r) + "\"}";
    ReplicaMetrics m;
    m.attempts = registry.GetCounter("qse_replica_attempts_total" + label);
    m.errors = registry.GetCounter("qse_replica_errors_total" + label);
    m.hedges = registry.GetCounter("qse_replica_hedges_total" + label);
    m.wins = registry.GetCounter("qse_replica_wins_total" + label);
    m.latency_ns = registry.GetHistogram("qse_replica_latency_ns" + label,
                                         obs::DefaultLatencyBoundariesNs());
    replica_metrics_.push_back(m);
  }
  hedged_fired_total_ = registry.GetCounter("qse_hedged_fired_total");
  hedged_wins_total_ = registry.GetCounter("qse_hedged_wins_total");
  pipeline_.embedder = embedder_;
  pipeline_.scan = [this](size_t, const std::vector<Vector>& embedded_queries,
                          const RetrievalOptions& options,
                          obs::RequestTrace*) {
    return PendingScan(ScanCandidatesBatch(embedded_queries, options));
  };
  pipeline_.scan_span = "hedged_scan";
}

HedgedReplicaBackend::~HedgedReplicaBackend() {
  // Stragglers (losing attempts still in flight on detached threads)
  // touch replica backends and metrics through `this`; hold destruction
  // until the last one signs off.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::chrono::nanoseconds HedgedReplicaBackend::HedgeDelayFor(size_t r) const {
  std::chrono::nanoseconds delay = options_.initial_hedge_delay;
  obs::HistogramSnapshot snap = replica_metrics_[r].latency_ns->Snapshot();
  if (snap.count >= options_.min_samples_for_quantile) {
    delay = std::chrono::nanoseconds(
        static_cast<int64_t>(snap.Quantile(options_.hedge_quantile)));
  }
  return std::clamp<std::chrono::nanoseconds>(
      delay, options_.min_hedge_delay, options_.max_hedge_delay);
}

struct HedgedReplicaBackend::CallState {
  /// The scan every attempt runs, owned here: a losing attempt keeps
  /// running after the winner returns.
  std::vector<Vector> queries;
  RetrievalOptions options;
  std::mutex mu;
  std::condition_variable cv;
  /// First success, whoever produced it.
  std::optional<std::vector<ScanCandidatesResult>> value;
  size_t winner_replica = 0;
  bool winner_was_hedge = false;
  size_t finished = 0;  // attempts that completed, either way
  Status last_error = Status::Internal("no replica attempted");
};

StatusOr<RetrievalResponse> HedgedReplicaBackend::Retrieve(
    const RetrievalRequest& request) const {
  return OnlyResponse(
      pipeline_.Run(&request.dx, 1, request.options, request.trace));
}

StatusOr<std::vector<RetrievalResponse>> HedgedReplicaBackend::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  return pipeline_.Run(queries.data(), queries.size(), options);
}

StatusOr<ScanCandidatesResult> HedgedReplicaBackend::ScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options) const {
  StatusOr<std::vector<ScanCandidatesResult>> batch =
      ScanCandidatesBatch({embedded_query}, options);
  QSE_RETURN_IF_ERROR(batch.status());
  return std::move(batch->front());
}

StatusOr<std::vector<ScanCandidatesResult>>
HedgedReplicaBackend::ScanCandidatesBatch(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  const size_t n = replicas_.size();
  const size_t primary = next_primary_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<CallState>();
  state->queries = embedded_queries;
  state->options = options;
  state->options.audit_monitor = nullptr;  // audits sample at the top only

  size_t launched = 0;
  auto launch_next = [&](bool is_hedge) {
    const size_t r = (primary + launched) % n;
    ++launched;
    replica_metrics_[r].attempts->Increment();
    if (is_hedge) {
      replica_metrics_[r].hedges->Increment();
      hedged_fired_total_->Increment();
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      ++inflight_;
    }
    std::thread([this, state, r, is_hedge] {
      const MonotonicClock::time_point start = MonotonicClock::now();
      StatusOr<std::vector<ScanCandidatesResult>> result =
          replicas_[r]->ScanCandidatesBatch(state->queries, state->options);
      if (result.ok()) {
        // Successful latencies only: connect timeouts and refusals from
        // a dead replica must not inflate its hedge delay for later.
        replica_metrics_[r].latency_ns->Record(
            static_cast<double>(NsSince(start)));
      } else {
        replica_metrics_[r].errors->Increment();
      }
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->finished;
        if (result.ok() && !state->value.has_value()) {
          state->value = std::move(result).value();
          state->winner_replica = r;
          state->winner_was_hedge = is_hedge;
        } else if (!result.ok()) {
          state->last_error = result.status();
        }
      }
      state->cv.notify_all();
      // Notify under the lock: the destructor may return (and destroy
      // the condition variable) as soon as it sees inflight_ == 0, which
      // it cannot do before this thread releases inflight_mu_.
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_;
      inflight_cv_.notify_all();
    }).detach();
  };

  launch_next(/*is_hedge=*/false);
  std::unique_lock<std::mutex> lock(state->mu);
  while (true) {
    if (state->value.has_value()) break;
    if (state->finished >= launched) {
      // Everything launched so far has failed.
      if (launched >= n) return state->last_error;
      // Immediate failover: an observed error spends no hedge delay.
      lock.unlock();
      launch_next(/*is_hedge=*/false);
      lock.lock();
      continue;
    }
    // At least one attempt is still in flight.
    if (launched >= n || !options_.enable_hedging) {
      state->cv.wait(lock, [&] {
        return state->value.has_value() || state->finished >= launched;
      });
      continue;
    }
    // Arm the hedge timer against the newest outstanding attempt's own
    // replica history.
    const size_t newest = (primary + launched - 1) % n;
    const std::chrono::nanoseconds delay = HedgeDelayFor(newest);
    const size_t finished_before = state->finished;
    const bool progressed = state->cv.wait_for(lock, delay, [&] {
      return state->value.has_value() || state->finished > finished_before;
    });
    if (!progressed) {
      // Timer fired with the attempt still out: it is presumed slow.
      lock.unlock();
      launch_next(/*is_hedge=*/true);
      lock.lock();
    }
  }

  replica_metrics_[state->winner_replica].wins->Increment();
  if (state->winner_was_hedge) hedged_wins_total_->Increment();
  return std::move(*state->value);
}

Status HedgedReplicaBackend::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  return InsertEmbedded(db_id, embedder_->Embed(dx));
}

Status HedgedReplicaBackend::InsertEmbedded(size_t db_id,
                                            const Vector& embedded_row) {
  Status first_error = Status::OK();
  for (auto& replica : replicas_) {
    Status status = replica->InsertEmbedded(db_id, embedded_row);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Status HedgedReplicaBackend::Remove(size_t db_id) {
  Status first_error = Status::OK();
  for (auto& replica : replicas_) {
    Status status = replica->Remove(db_id);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

size_t HedgedReplicaBackend::size() const {
  size_t best = 0;
  for (const auto& replica : replicas_) {
    best = std::max(best, replica->size());
  }
  return best;
}

}  // namespace net
}  // namespace qse
