#ifndef QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_
#define QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "src/embedding/embedder.h"
#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/statusor.h"

namespace qse {

/// Metric handles one pipeline owner records into, resolved once at
/// construction so the hot path never takes the registry lock.  Null
/// handles are skipped: the monolithic engine leaves the scan ones null
/// because its ScanCandidates records its own filter metrics.
struct PipelineMetrics {
  obs::Counter* retrievals_total = nullptr;
  obs::Counter* exact_distances_total = nullptr;
  obs::Counter* filter_rows_visited_total = nullptr;
  obs::Counter* filter_rows_pruned_total = nullptr;
  obs::Histogram* embed_ns = nullptr;
  obs::Histogram* scan_ns = nullptr;
  obs::Histogram* merge_ns = nullptr;
  obs::Histogram* refine_ns = nullptr;
};

/// Scans source `s` for an embedded query: its local top-p as (database
/// id, filter score) sorted by (score, id), per the ScanCandidates
/// contract.  `trace` is the request's trace (null when unsampled); a
/// source behind a process boundary may graft the remote spans into it.
using ScanSourceFn = std::function<StatusOr<ScanCandidatesResult>(
    size_t s, const Vector& embedded_query, const RetrievalOptions& options,
    obs::RequestTrace* trace)>;

/// The paper's retrieval (Sec. 8) over N scan sources — the one
/// filter-and-refine implementation behind every backend: the monolithic
/// engine is N = 1 over its own scan, the remote stub N = 1 over its
/// kScan RPC, and the sharded engine N = S over its shards.
///
///  1. Embed the query once (<= 2d exact distances).
///  2. Scan every source for its local top p, merge the sorted lists to
///     the global top p under the (score, id) order.
///  3. Refine the merged p by exact distance; neighbors are database
///     ids, ties ordered by id.
///
/// Sources are disjoint in ids, so the result equals one scan over their
/// union.  Backends hold the pipeline as a member whose callbacks
/// capture `this`, so a backend holding one is neither copied nor moved.
struct RetrievalPipeline {
  const Embedder* embedder = nullptr;
  size_t num_sources = 1;
  ScanSourceFn scan;
  /// Cheap emptiness peek, so an empty backend fails before spending
  /// embedding distances; null when only a round trip could tell.  The
  /// scans decide authoritatively either way.
  std::function<bool()> known_empty;
  /// Name of each source's scan span.
  const char* scan_span = "filter_scan";
  PipelineMetrics metrics;

  /// One retrieval: validate, embed, scan the sources in parallel across
  /// `scan_threads`, merge, refine; then fill shard_stats (want_stats),
  /// record counters and the request's spans, and offer the response
  /// to options.audit_monitor.  A sampled request asks every source for
  /// its pinned snapshot; the audit runs only when all of them hand one
  /// back (never over remote sources).
  StatusOr<RetrievalResponse> Retrieve(
      const DxToDatabaseFn& dx, const RetrievalOptions& options,
      size_t scan_threads,
      const std::shared_ptr<obs::RequestTrace>& trace) const;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_
