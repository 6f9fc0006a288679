#ifndef QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_
#define QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/statusor.h"

namespace qse {

/// Metric handles one pipeline owner records into, resolved once at
/// construction so the hot path never takes the registry lock.  Null
/// handles are skipped: the monolithic engine leaves the scan ones null
/// because its ScanCandidatesBatch records its own filter metrics.
/// scan_ns times the whole scan phase — one pass for the batch — while
/// the other histograms record once per query.
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

/// Starts scanning source `s` for a batch of embedded queries in one
/// pass: once waited on, result[i] is the local top-p of
/// embedded_queries[i] as (database id, filter score) sorted by
/// (score, id), per the ScanCandidatesBatch contract.  A local source
/// scans before returning; a remote one only sends.  `trace` is the
/// request's trace for a traced batch of one (null otherwise); a source
/// behind a process boundary may graft the remote spans into it.
using ScanSourceFn = std::function<PendingScan(
    size_t s, const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options, obs::RequestTrace* trace)>;

/// The paper's retrieval (Sec. 8) over N scan sources — the one
/// filter-and-refine implementation behind every backend: the monolithic
/// engine is N = 1 over its own scan, the remote stub N = 1 over its
/// kScan RPC, and the sharded engine N = S over its shards.  One body
/// serves a batch of B queries (a single Retrieve is B = 1) in three
/// phases:
///
///  1. Embed every query once (<= 2d exact distances each).
///  2. Scan every source once for the whole batch — one memory pass per
///     source — for each query's local top p.  Every source's scan is
///     started before any is waited on, so remote shards scan at the
///     same time.
///  3. Per query, merge the sorted lists to the global top p under the
///     (score, id) order and refine the merged p by exact distance;
///     neighbors are database ids, ties ordered by id.
///
/// Sources are disjoint in ids, so the result equals one scan over their
/// union, and a query's answer does not depend on the batch it rode in.
/// Backends hold the pipeline as a member whose callbacks capture
/// `this`, so a backend holding one is neither copied nor moved.
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

  /// One retrieval, the batch of one: validate, embed, scan the sources
  /// in parallel across `scan_threads`, merge, refine; then fill
  /// shard_stats (want_stats), record counters and the request's spans,
  /// and offer the response to options.audit_monitor.  A sampled request
  /// asks every source for its pinned snapshot; the audit runs only when
  /// all of them hand one back (never over remote sources).
  StatusOr<RetrievalResponse> Retrieve(
      const DxToDatabaseFn& dx, const RetrievalOptions& options,
      size_t scan_threads,
      const std::shared_ptr<obs::RequestTrace>& trace) const;

  /// The batch: the same body over every query, across
  /// options.num_threads threads (see RetrievalOptions::num_threads for
  /// the scan phase's work items).  results[i] is bit-identical to
  /// Retrieve(queries[i], ...); a sampled request is audited against the
  /// snapshots its scan pass pinned.
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const;

 private:
  /// The body: `trace` is non-null only for a traced batch of one.
  StatusOr<std::vector<RetrievalResponse>> Run(
      const DxToDatabaseFn* queries, size_t count,
      const RetrievalOptions& options, size_t threads,
      const std::shared_ptr<obs::RequestTrace>& trace) const;
  /// Phase 3 for one query: merges its per-source `scans`, refines with
  /// `dx` into `response` (which already holds the embedding cost), and
  /// submits the audit when `audit` and every source pinned a snapshot.
  Status Finish(const DxToDatabaseFn& dx, const RetrievalOptions& options,
                bool audit, const std::shared_ptr<obs::RequestTrace>& trace,
                std::vector<ScanCandidatesResult>* scans,
                RetrievalResponse* response) const;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_PIPELINE_H_
