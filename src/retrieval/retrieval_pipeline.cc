#include "src/retrieval/retrieval_pipeline.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
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
    const std::shared_ptr<obs::RequestTrace>& trace) const {
  StatusOr<std::vector<RetrievalResponse>> responses =
      Run(&dx, 1, options, scan_threads, trace);
  QSE_RETURN_IF_ERROR(responses.status());
  return std::move(responses->front());
}

StatusOr<std::vector<RetrievalResponse>> RetrievalPipeline::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  return Run(queries.data(), queries.size(), options, options.num_threads,
             /*trace=*/nullptr);
}

StatusOr<std::vector<RetrievalResponse>> RetrievalPipeline::Run(
    const DxToDatabaseFn* queries, size_t count,
    const RetrievalOptions& options, size_t threads,
    const std::shared_ptr<obs::RequestTrace>& trace_ptr) const {
  obs::RequestTrace* trace = trace_ptr.get();
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  std::vector<RetrievalResponse> responses(count);
  if (count == 0) return responses;
  if (known_empty && known_empty()) {
    return Status::FailedPrecondition("embedded database is empty");
  }
  if (threads == 0) threads = DefaultParallelism();
  // The first failure — a remote peer down mid fan-out, a database
  // emptied by concurrent removals — fails the batch.
  std::mutex error_mu;
  Status first_error = Status::OK();
  auto fail = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
  };

  // Quality audit: decide before the scan, so only a batch holding a
  // sampled request asks the sources to hand back the snapshots they
  // pinned — the audit must score the exact views a response was served
  // from.
  obs::QualityMonitor* monitor = options.audit_monitor;
  std::vector<char> audit(count, 0);
  bool any_audit = false;
  if (monitor != nullptr) {
    for (size_t i = 0; i < count; ++i) {
      audit[i] = monitor->ShouldSample();
      any_audit = any_audit || audit[i];
    }
  }
  RetrievalOptions scan_options = options;
  if (!any_audit) scan_options.audit_monitor = nullptr;

  // Phase 1, embedding: once per query, shared by every source's scan.
  std::vector<Vector> embedded(count);
  // Grain 2: an embedding is <= 2d exact distances, worth a thread.
  ParallelForGrain(
      0, count, 2,
      [&](size_t i) {
        size_t embed_cost = 0;
        const uint64_t span_start = obs::TraceNowNs(trace);
        const MonotonicClock::time_point start = MonotonicClock::now();
        embedded[i] = embedder->Embed(queries[i], &embed_cost);
        RecordSince(metrics.embed_ns, start);
        obs::TraceMark(trace, "embed", span_start);
        responses[i].embedding_distances = embed_cost;
      },
      threads);

  // Phase 2, filter: each source keeps every query's local top p (the
  // global top p could in the worst case live entirely in one source).
  // A work item scans one source for one group of queries in one pass;
  // sources fewer than threads split their queries so no thread idles.
  // Every item is started before any is collected: a local source scans
  // while its item starts, a remote one only sends its frames, and the
  // collect loop then receives answers the servers computed at once.
  const size_t groups =
      std::min(count, std::max<size_t>(1, (threads + num_sources - 1) /
                                              num_sources));
  const size_t items = num_sources * groups;
  std::vector<std::optional<PendingScan>> pending(items);
  std::vector<uint64_t> scan_start(items);
  std::vector<std::vector<ScanCandidatesResult>> scans(
      count, std::vector<ScanCandidatesResult>(num_sources));
  MonotonicClock::time_point stage_start = MonotonicClock::now();
  // Grain 2: one item is a whole pass over a source; one item stays
  // serial.
  ParallelForGrain(
      0, items, 2,
      [&](size_t item) {
        const size_t s = item / groups;
        const size_t g = item % groups;
        std::vector<Vector> group;
        if (groups > 1) {
          group.assign(embedded.begin() + g * count / groups,
                       embedded.begin() + (g + 1) * count / groups);
        }
        scan_start[item] = obs::TraceNowNs(trace);
        pending[item].emplace(
            scan(s, groups > 1 ? group : embedded, scan_options, trace));
      },
      threads);
  for (size_t item = 0; item < items; ++item) {
    const size_t s = item / groups;
    const size_t g = item % groups;
    const size_t begin = g * count / groups;
    const size_t end = (g + 1) * count / groups;
    StatusOr<std::vector<ScanCandidatesResult>> result = pending[item]->Wait();
    if (!result.ok()) {
      fail(result.status());
      continue;
    }
    if (result->size() != end - begin) {
      fail(Status::Internal("scan source " + std::to_string(s) +
                            " answered " + std::to_string(result->size()) +
                            " of " + std::to_string(end - begin) +
                            " queries"));
      continue;
    }
    for (size_t i = begin; i < end; ++i) {
      scans[i][s] = std::move((*result)[i - begin]);
    }
    if (trace == nullptr) continue;
    obs::TraceMark(
        trace, scan_span, scan_start[item],
        {obs::TraceArg{"shard", static_cast<int64_t>(s), nullptr},
         obs::TraceArg{"rows", static_cast<int64_t>(scans[0][s].rows),
                       nullptr},
         obs::TraceArg{"rows_pruned",
                       static_cast<int64_t>(scans[0][s].rows_pruned), nullptr},
         obs::TraceArg{"precision", 0,
                       FilterPrecisionName(options.filter_precision)}});
  }
  RecordSince(metrics.scan_ns, stage_start);
  QSE_RETURN_IF_ERROR(first_error);

  // Phase 3, per query: merge, refine, account, audit.
  ParallelForGrain(
      0, count, 2,
      [&](size_t i) {
        Status status = Finish(queries[i], options, audit[i] != 0, trace_ptr,
                               &scans[i], &responses[i]);
        if (!status.ok()) fail(status);
      },
      threads);
  QSE_RETURN_IF_ERROR(first_error);
  return responses;
}

Status RetrievalPipeline::Finish(
    const DxToDatabaseFn& dx, const RetrievalOptions& options, bool audit,
    const std::shared_ptr<obs::RequestTrace>& trace_ptr,
    std::vector<ScanCandidatesResult>* scans,
    RetrievalResponse* response) const {
  obs::RequestTrace* trace = trace_ptr.get();
  std::vector<std::vector<ScoredIndex>> lists(num_sources);
  size_t rows = 0, rows_pruned = 0;
  for (size_t s = 0; s < num_sources; ++s) {
    lists[s] = std::move((*scans)[s].candidates);
    rows += (*scans)[s].rows;
    rows_pruned += (*scans)[s].rows_pruned;
  }
  if (metrics.filter_rows_visited_total != nullptr) {
    metrics.filter_rows_visited_total->Add(rows);
    metrics.filter_rows_pruned_total->Add(rows_pruned);
  }

  // Gather: k-way heap merge down to the global top p.
  uint64_t span_start = obs::TraceNowNs(trace);
  MonotonicClock::time_point stage_start = MonotonicClock::now();
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
    response->shard_stats.resize(num_sources);
    for (size_t s = 0; s < num_sources; ++s) {
      response->shard_stats[s].rows = (*scans)[s].rows;
      response->shard_stats[s].candidates = static_cast<size_t>(
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
  response->neighbors = std::move(refined);
  response->exact_distances = response->embedding_distances + candidates.size();
  if (metrics.retrievals_total != nullptr) {
    metrics.retrievals_total->Increment();
    metrics.exact_distances_total->Add(response->exact_distances);
  }

  // The audit scores every source's pinned snapshot, so it runs only
  // when all of them handed one back.
  const bool pinned_all =
      std::all_of(scans->begin(), scans->end(),
                  [](const ScanCandidatesResult& r) { return r.pinned; });
  if (audit && pinned_all) {
    obs::AuditTask task;
    task.dx = dx;
    task.k = options.k;
    task.served.reserve(response->neighbors.size());
    for (const ScoredIndex& nb : response->neighbors) {
      task.served.push_back({nb.index, nb.score});
    }
    for (ScanCandidatesResult& r : *scans) {
      task.snapshots.push_back(std::move(r.pinned));
    }
    task.trace = trace_ptr;
    options.audit_monitor->SubmitAudit(std::move(task));
  }
  response->trace = trace_ptr;
  return Status::OK();
}

}  // namespace qse
