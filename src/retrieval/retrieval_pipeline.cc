#include "src/retrieval/retrieval_pipeline.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/quality_monitor.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"
#include "src/util/top_k.h"

namespace qse {
namespace {

/// Records the nanoseconds elapsed since `start` into `histogram`, if any.
void RecordSince(obs::Histogram* histogram, MonotonicClock::time_point start) {
  if (histogram != nullptr) {
    histogram->Record(static_cast<double>(NsSince(start)));
  }
}

}  // namespace

StatusOr<RetrievalResponse> RetrievalPipeline::Retrieve(
    const DxToDatabaseFn& dx, const RetrievalOptions& options,
    size_t scan_threads,
    const std::shared_ptr<obs::RequestTrace>& trace_ptr) const {
  obs::RequestTrace* trace = trace_ptr.get();
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  if (known_empty && known_empty()) {
    return Status::FailedPrecondition("embedded database is empty");
  }

  // Quality audit: decide before the scan, so only a sampled request
  // asks the sources to hand back the snapshots they pinned — the audit
  // must score the exact views this response was served from.
  obs::QualityMonitor* monitor = options.audit_monitor;
  const bool audit = monitor != nullptr && monitor->ShouldSample();
  std::optional<RetrievalOptions> unsampled;
  if (monitor != nullptr && !audit) {
    unsampled.emplace(options);
    unsampled->audit_monitor = nullptr;
  }
  const RetrievalOptions& scan_options = unsampled ? *unsampled : options;

  RetrievalResponse response;
  // Embedding step: once per query, shared by every source's scan.
  size_t embed_cost = 0;
  uint64_t span_start = obs::TraceNowNs(trace);
  MonotonicClock::time_point stage_start = MonotonicClock::now();
  const Vector embedded_query = embedder->Embed(dx, &embed_cost);
  RecordSince(metrics.embed_ns, stage_start);
  obs::TraceMark(trace, "embed", span_start);
  response.embedding_distances = embed_cost;

  // Filter step: each source keeps its local top p (the global top p
  // could in the worst case live entirely in one source).  A source can
  // fail outright (a remote peer down mid fan-out); the first failure
  // fails the query.
  std::vector<ScanCandidatesResult> scans(num_sources);
  std::mutex error_mu;
  Status first_error = Status::OK();
  stage_start = MonotonicClock::now();
  // Grain 2: one item is a whole source scan; one source stays serial.
  ParallelForGrain(
      0, num_sources, 2,
      [&](size_t s) {
        const uint64_t scan_start = obs::TraceNowNs(trace);
        StatusOr<ScanCandidatesResult> result =
            scan(s, embedded_query, scan_options, trace);
        if (!result.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = result.status();
          return;
        }
        scans[s] = std::move(result).value();
        if (trace == nullptr) return;
        obs::TraceMark(
            trace, scan_span, scan_start,
            {obs::TraceArg{"shard", static_cast<int64_t>(s), nullptr},
             obs::TraceArg{"rows", static_cast<int64_t>(scans[s].rows),
                           nullptr},
             obs::TraceArg{"rows_pruned",
                           static_cast<int64_t>(scans[s].rows_pruned),
                           nullptr},
             obs::TraceArg{"precision", 0,
                           FilterPrecisionName(options.filter_precision)}});
      },
      scan_threads);
  RecordSince(metrics.scan_ns, stage_start);
  QSE_RETURN_IF_ERROR(first_error);

  std::vector<std::vector<ScoredIndex>> lists(num_sources);
  size_t rows = 0, rows_pruned = 0;
  for (size_t s = 0; s < num_sources; ++s) {
    lists[s] = std::move(scans[s].candidates);
    rows += scans[s].rows;
    rows_pruned += scans[s].rows_pruned;
  }
  if (metrics.filter_rows_visited_total != nullptr) {
    metrics.filter_rows_visited_total->Add(rows);
    metrics.filter_rows_pruned_total->Add(rows_pruned);
  }

  // Gather: k-way heap merge down to the global top p.
  span_start = obs::TraceNowNs(trace);
  stage_start = MonotonicClock::now();
  const std::vector<ScoredIndex> candidates = MergeSortedTopK(lists, options.p);
  RecordSince(metrics.merge_ns, stage_start);
  if (trace != nullptr) {
    obs::TraceMark(trace, "merge", span_start,
                   {obs::TraceArg{"candidates",
                                  static_cast<int64_t>(candidates.size()),
                                  nullptr}});
  }
  // The emptiness peek above is momentary: concurrent removals can empty
  // every source before the scans pin.  The scans are authoritative.
  if (candidates.empty()) {
    return Status::FailedPrecondition("embedded database is empty");
  }

  if (options.want_stats) {
    // Sources hold disjoint ids and each list is (score, id)-sorted, so
    // source s contributed exactly its entries up to the last merged one.
    response.shard_stats.resize(num_sources);
    for (size_t s = 0; s < num_sources; ++s) {
      response.shard_stats[s].rows = scans[s].rows;
      response.shard_stats[s].candidates = static_cast<size_t>(
          std::upper_bound(lists[s].begin(), lists[s].end(),
                           candidates.back()) -
          lists[s].begin());
    }
  }

  // Refine step: exact distances on the merged p only, by database id.
  span_start = obs::TraceNowNs(trace);
  stage_start = MonotonicClock::now();
  std::vector<ScoredIndex> refined;
  refined.reserve(candidates.size());
  for (const ScoredIndex& c : candidates) {
    refined.push_back({c.index, dx(c.index)});
  }
  std::sort(refined.begin(), refined.end());
  if (refined.size() > options.k) refined.resize(options.k);
  RecordSince(metrics.refine_ns, stage_start);
  if (trace != nullptr) {
    obs::TraceMark(trace, "refine", span_start,
                   {obs::TraceArg{"candidates",
                                  static_cast<int64_t>(candidates.size()),
                                  nullptr}});
  }
  response.neighbors = std::move(refined);
  response.exact_distances = embed_cost + candidates.size();
  if (metrics.retrievals_total != nullptr) {
    metrics.retrievals_total->Increment();
    metrics.exact_distances_total->Add(response.exact_distances);
  }

  // The audit scores every source's pinned snapshot, so it runs only
  // when all of them handed one back.
  const bool pinned_all =
      std::all_of(scans.begin(), scans.end(),
                  [](const ScanCandidatesResult& r) { return r.pinned; });
  if (audit && pinned_all) {
    obs::AuditTask task;
    task.dx = dx;
    task.k = options.k;
    task.served.reserve(response.neighbors.size());
    for (const ScoredIndex& nb : response.neighbors) {
      task.served.push_back({nb.index, nb.score});
    }
    for (ScanCandidatesResult& r : scans) {
      task.snapshots.push_back(std::move(*r.pinned));
    }
    task.trace = trace_ptr;
    monitor->SubmitAudit(std::move(task));
  }
  response.trace = trace_ptr;
  return response;
}

}  // namespace qse
