#ifndef QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_
#define QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/trace.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/timer.h"
#include "src/util/top_k.h"

namespace qse {

namespace obs {
class QualityMonitor;
}  // namespace obs

/// Clock used for request deadlines and trace timestamps.  MonotonicClock
/// is steady_clock-backed (immune to wall-clock jumps) and overridable
/// with a FakeClock in tests, so deadline tests advance time instead of
/// sleeping.
using RetrievalClock = MonotonicClock;

/// Admission priority of one request.  Lanes are strict: the serving
/// layer dequeues kHigh before kNormal before kLow, and sheds kLow first
/// under overflow.  The backends themselves ignore priority (it does not
/// change results), but validate it so a mis-cast enum fails loudly at
/// every layer.
enum class RequestPriority {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// Number of admission lanes (one per RequestPriority enumerator).
inline constexpr size_t kNumPriorityLanes = 3;

/// Stable lower-case lane name ("high", "normal", "low") for stats and
/// bench output; "invalid" for out-of-range values.
const char* RequestPriorityName(RequestPriority priority);

/// Per-request options: the one envelope every query surface consumes —
/// direct engine calls, batched calls, and the async server.
struct RetrievalOptions {
  /// Neighbors to return.
  size_t k = 1;
  /// Filter candidates to refine with exact distances; the paper's p.
  size_t p = 1;
  /// Threads T for Retrieve and RetrieveBatch alike; 0 means hardware
  /// concurrency.  A retrieval is a batch (Retrieve is the batch of one)
  /// and runs in three phases — embed every query, scan every source
  /// once for the whole batch, merge and refine every query — and the
  /// scan phase's parallel work items are (source, query group): with
  /// S >= T sources each source is one item scanning all queries, with
  /// S < T each source's queries split into ceil(T / S) groups so no
  /// thread idles.  So a single Retrieve over a sharded engine scatters
  /// its S shard scans across T threads, and a single-source backend
  /// runs it on the calling thread.  The async server substitutes its
  /// own retrieve_threads policy: a request does not get to choose the
  /// server's parallelism.
  size_t num_threads = 0;
  /// When true the response's shard_stats is filled: per-shard scan and
  /// candidate counters from the sharded engine, or the whole database
  /// reported as a single pseudo-shard by the monolithic engine.
  bool want_stats = false;
  /// Admission lane in the async server; ignored by direct engine calls.
  RequestPriority priority = RequestPriority::kNormal;
  /// Tenant for per-tenant admission quotas in the async server; ""
  /// means anonymous.  Ignored by direct engine calls.
  std::string tenant_id;
  /// Absolute completion deadline, enforced by the async server: a
  /// request past it is answered with kDeadlineExceeded — checked when
  /// it leaves the admission queue and again just before the backend
  /// spends exact distances on it — never silently dropped or served
  /// late.  Direct engine calls do not check it.  Default: no deadline.
  RetrievalClock::time_point deadline = RetrievalClock::time_point::max();
  /// What the filter scan streams: the exact float64 matrix (default,
  /// bit-identical to the pre-dispatch engine) or a reduced-precision
  /// shadow (2x / 8x fewer bytes; the backend's database must carry the
  /// matching shadow — EnableFilterShadows — or the request fails with
  /// FailedPrecondition).  Refine always re-scores with exact distances,
  /// so this shifts top-p candidate recall, never final distances.
  FilterPrecision filter_precision = FilterPrecision::kExact64;
  /// When non-null, the backend offers 1-in-N completed responses to
  /// this monitor for background exact-kNN auditing (quality_monitor.h).
  /// Does not change results — the audit runs off the hot path against
  /// the same pinned snapshot the response was served from.  The async
  /// server attaches its configured monitor here; direct engine callers
  /// may set it themselves.  Borrowed: must outlive the request.
  /// On a ScanCandidates(Batch) call it means "a request of this scan is
  /// being audited": the retrieval pipeline passes it only for batches
  /// holding a sampled request, and a local backend then hands its
  /// pinned snapshot back in the results.
  obs::QualityMonitor* audit_monitor = nullptr;

  RetrievalOptions() = default;
  /// The common case: everything default except k and p.
  RetrievalOptions(size_t k_in, size_t p_in) : k(k_in), p(p_in) {}

  /// Convenience: an absolute deadline `budget` from now.
  template <typename Rep, typename Period>
  static RetrievalClock::time_point DeadlineIn(
      std::chrono::duration<Rep, Period> budget) {
    return RetrievalClock::now() +
           std::chrono::duration_cast<RetrievalClock::duration>(budget);
  }

  /// True when two requests are guaranteed identical backend results for
  /// the same dx, so a batcher may run them as one RetrieveBatch call.
  /// priority/tenant/deadline shape admission, num_threads shapes
  /// execution, audit_monitor only observes; none of them change
  /// results.  filter_precision does — different precisions rank the
  /// filter scan differently.
  bool SameResultKey(const RetrievalOptions& other) const {
    return k == other.k && p == other.p && want_stats == other.want_stats &&
           filter_precision == other.filter_precision;
  }
};

/// The option checks shared verbatim by both engines and the async
/// server, so validation behavior cannot drift between surfaces:
///  * k == 0 or p == 0 is InvalidArgument (a filter that keeps nothing
///    is a caller bug, not a degenerate retrieval);
///  * an out-of-range priority enumerator is InvalidArgument.
/// Database emptiness is a backend-state concern checked by the engines
/// (FailedPrecondition), not here.
Status ValidateRetrievalOptions(const RetrievalOptions& options);

/// One retrieval: the exact-distance resolver for the query plus its
/// options.  `dx` resolves DX(query, o) for database ids `o`; it may be
/// invoked from whichever thread executes the request.
struct RetrievalRequest {
  DxToDatabaseFn dx;
  RetrievalOptions options;
  /// When non-null, the backend records per-stage spans (embed, filter
  /// scan, merge, refine) into this trace.  Null (the default) costs one
  /// pointer check per stage.  Shared with the response so the serving
  /// layer and the caller read the same object.
  std::shared_ptr<obs::RequestTrace> trace;
};

/// Per-shard counters from one retrieval (want_stats); the raw material
/// for load balancing — a shard that keeps contributing most of the
/// merged top-p is either oversized or holds a hot region of the
/// embedded space.
struct ShardScanStats {
  /// Shard size (rows scanned by the filter step) at query time.
  size_t rows = 0;
  /// Entries this shard placed in the globally merged top-p.
  size_t candidates = 0;
};

/// Result of one filter-and-refine retrieval.
struct RetrievalResponse {
  /// Top-k neighbors by exact distance among the refined candidates,
  /// ascending by (distance, id).  `index` is the DATABASE ID on every
  /// backend.
  std::vector<ScoredIndex> neighbors;
  /// Exact DX evaluations spent: embedding step + refine step.  This is
  /// the paper's per-query cost measure.
  size_t exact_distances = 0;
  /// Of which, spent embedding the query.
  size_t embedding_distances = 0;
  /// Filled iff the request set want_stats: shard_stats[s] covers shard
  /// s of the sharded engine; the monolithic engine reports its whole
  /// database as shard_stats[0].  Empty otherwise.
  std::vector<ShardScanStats> shard_stats;
  /// The request's trace, passed through when the request carried one
  /// (sampled requests in the async server); null otherwise.  By the
  /// time the caller holds the response, every backend span is closed.
  std::shared_ptr<obs::RequestTrace> trace;
};

/// Result of a filter-only candidate scan (ScanCandidates): the
/// backend's local top-p under the filter metric, before any exact
/// refine.  Candidate `index` fields are DATABASE IDS, not rows, and the
/// list is sorted by (score, id) — exactly the per-shard lists the
/// sharded engine's k-way merge consumes, so a remote shard's scan can
/// be merged interchangeably with local ones.
struct ScanCandidatesResult {
  std::vector<ScoredIndex> candidates;
  /// Rows the backend held at scan time (the shard size a want_stats
  /// response reports for this backend).
  size_t rows = 0;
  /// Rows whose scan the early-abandon filter cut short.
  size_t rows_pruned = 0;
  /// The epoch-pinned snapshot the scan read, handed back only when the
  /// request is being audited (options.audit_monitor set), so the audit
  /// scores exactly the rows the response was served from.  Null
  /// otherwise, and always null from a backend whose rows live in
  /// another process.
  std::shared_ptr<EmbeddedDatabase::Snapshot> pinned;
};

/// A ScanCandidatesBatch that has been started and is collected later
/// (RetrievalBackend::StartScanCandidatesBatch).  Wait() returns its
/// results and is called at most once.  Dropping a pending scan
/// uncollected abandons it: a remote stub closes the connection its
/// answer would have arrived on.
class PendingScan {
 public:
  using Result = StatusOr<std::vector<ScanCandidatesResult>>;

  /// A scan that already finished with `result`.
  explicit PendingScan(Result result) : result_(std::move(result)) {}
  /// A scan in flight: `collect` waits for it and returns its result.
  explicit PendingScan(std::function<Result()> collect)
      : result_(Status::Internal("scan not collected")),
        collect_(std::move(collect)) {}

  Result Wait() { return collect_ ? collect_() : std::move(result_); }

 private:
  Result result_;
  std::function<Result()> collect_;
};

/// The serving-facing face of a retrieval engine: the filter-and-refine
/// query API plus incremental mutation, so examples, evaluation drivers
/// and the serving layer can swap one backend for another behind a
/// single interface.  Every backend that retrieves — the monolithic
/// RetrievalEngine, the sharded scatter/gather engine, the remote stub
/// and the hedged replica set — runs Retrieve and RetrieveBatch through
/// the one RetrievalPipeline (retrieval_pipeline.h) over its own scan
/// sources; a decorator (DurableBackend) forwards both to the backend it
/// wraps.  The scan methods are what a backend contributes as a source
/// of another backend's pipeline.
///
/// Contract, identical across implementations:
///  * Retrieve validates options via ValidateRetrievalOptions and
///    returns FailedPrecondition on an empty database; p is clamped to
///    size().  Neighbor indices are database ids.
///  * RetrieveBatch(queries, options)[i] is bit-identical to
///    Retrieve({queries[i], options}), whatever options.num_threads is.
///  * Insert fails with InvalidArgument on a duplicate id, Remove with
///    NotFound on an unknown one.
///  * Retrieve/RetrieveBatch are const and safe to call concurrently.
///    Insert/Remove are serialized internally and may run concurrently
///    with retrievals: every retrieval serves one epoch-pinned snapshot
///    of the database, consistent with some serializable prefix of the
///    applied mutations — it reflects every mutation that completed
///    before it started, no mutation that started after it finished,
///    and any subset of the ones in flight while it ran.
class RetrievalBackend {
 public:
  virtual ~RetrievalBackend() = default;

  /// Retrieves the k best matches among the top-p filter candidates.
  virtual StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const = 0;

  /// Retrieves a batch of queries sharing one options envelope, in
  /// parallel across options.num_threads workers; results[i] corresponds
  /// to queries[i], and the first error fails the batch (a concurrent
  /// mutation stream can still empty the database mid-batch).
  virtual StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const = 0;

  /// Embeds a new object via `dx` and adds it under `db_id`.
  virtual Status Insert(size_t db_id, const DxToDatabaseFn& dx) = 0;

  /// Removes the object with id `db_id`.
  virtual Status Remove(size_t db_id) = 0;

  /// Filter-only scan: the backend's top-min(p, size()) candidates for
  /// an already-embedded query, as (database id, filter score) sorted by
  /// (score, id) — the distributable half of the pipeline.  The exact
  /// refine (which needs the caller's `dx` closure and so cannot cross a
  /// process boundary) stays with the caller: embed once, scatter scans,
  /// merge, refine the merged top-p — byte-identical to what the sharded
  /// engine does in-process.  Honors k/p/filter_precision/want_stats
  /// semantics of Retrieve; `options.k` is ignored (no refine here).
  /// Default: Unimplemented, for backends that only serve full
  /// retrievals.
  virtual StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query, const RetrievalOptions& options) const {
    (void)embedded_query;
    (void)options;
    return Status::Unimplemented(
        "this backend does not serve filter-only candidate scans");
  }

  /// ScanCandidates for a batch of embedded queries sharing `options`:
  /// results[i] is ScanCandidates(embedded_queries[i], options), and the
  /// first error fails the batch.  A local engine answers from one
  /// pinned snapshot in one pass over its rows (FilterScorer::
  /// ScoreTopPBatch) and, when `options.audit_monitor` is set, hands
  /// that one snapshot back in every result; the remote stub sends the
  /// batch as one kScan frame, which its server answers the same way,
  /// and a replica set hedges the whole batch.  Default: ScanCandidates
  /// per query, for decorators that forward only ScanCandidates.
  virtual StatusOr<std::vector<ScanCandidatesResult>> ScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const;

  /// Starts ScanCandidatesBatch(embedded_queries, options) and returns
  /// without waiting for a backend that answers from elsewhere: the
  /// remote stub sends its kScan frames here and receives them in
  /// Wait(), so a caller that starts every shard's scan before waiting
  /// on any overlaps the shards' round trips.  The pending scan keeps no
  /// reference to the arguments, but must not outlive this backend.
  /// Default: runs the scan now and returns it finished.
  virtual PendingScan StartScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const {
    return PendingScan(ScanCandidatesBatch(embedded_queries, options));
  }

  /// Adds an object whose embedding was already computed (the remote
  /// path: the client embeds with its own `dx`, the row crosses the wire
  /// pre-embedded).  Same duplicate-id contract as Insert; the row must
  /// have the backend's dimensionality.  Default: Unimplemented.
  virtual Status InsertEmbedded(size_t db_id, const Vector& embedded_row) {
    (void)db_id;
    (void)embedded_row;
    return Status::Unimplemented(
        "this backend does not accept pre-embedded rows");
  }

  /// Number of database objects currently live.
  virtual size_t size() const = 0;

  /// Database id behind a RetrievalResponse neighbor index.  Neighbor
  /// indices are database ids, so the default is the identity.
  virtual size_t db_id_of(size_t neighbor_index) const {
    return neighbor_index;
  }
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_
