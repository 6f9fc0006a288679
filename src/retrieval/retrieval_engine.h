#ifndef QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_
#define QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_

#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/retrieval/retrieval_pipeline.h"
#include "src/util/statusor.h"
#include "src/util/top_k.h"

namespace qse {

/// The retrieval engine: the three-step filter-and-refine pipeline of
/// Sec. 8 (embed the query, keep the p most similar vectors, re-rank
/// those p by exact distance), served batched and thread-parallel on top
/// of the flat SoA embedded database.
///
/// Also owns the row <-> database-id bookkeeping needed for dynamic
/// datasets (Sec. 7.1): Insert embeds and appends a new object in O(d)
/// exact distances, Remove drops one via the database's swap-with-last.
///
/// Thread-safety: Retrieve/RetrieveBatch are const and safe to call
/// concurrently as long as the embedder, scorer and `dx` callbacks are.
/// Insert/Remove are serialized internally and may run concurrently with
/// retrievals: each retrieval pins one epoch snapshot of the database
/// (rows + ids + count) and serves it consistently, while mutations
/// publish new versions the next retrieval picks up.  A retrieval
/// observes every mutation that completed before it started, never one
/// that started after it finished, and any subset of concurrent ones.
class RetrievalEngine : public RetrievalBackend {
 public:
  /// Does not own its arguments; `db_ids[i]` is the database id of row i
  /// of `db` (installed into the database's id column).  The engine
  /// mutates `db` only through Insert/Remove.
  RetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                  EmbeddedDatabase* db, std::vector<size_t> db_ids);

  /// Retrieves the k best matches among the top-p filter candidates:
  /// the shared RetrievalPipeline with this engine's own ScanCandidates
  /// as its single source, so neighbor indices are database ids and
  /// exact-distance ties order by id.
  ///
  /// Options are validated by ValidateRetrievalOptions; an empty
  /// database is FailedPrecondition.  p is clamped to the database size
  /// (p = n degenerates to brute force, as in the paper).  want_stats
  /// reports the whole database as a single pseudo-shard.
  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  /// The pipeline over a batch: one pass over the rows per query group
  /// (see RetrievalOptions::num_threads); results[i] is bit-identical to
  /// Retrieve({queries[i], options}).
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override;

  /// Embeds a new object (<= 2d exact distances via `dx`) and appends it
  /// to the database under `db_id`.  Fails with InvalidArgument when the
  /// id is already present.  Safe concurrently with retrievals.
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;

  /// Removes the object with id `db_id` (swap-with-last).  Row positions
  /// of the swapped row change; neighbors are always reported against
  /// the snapshot a retrieval pinned.  Fails with NotFound for unknown
  /// ids.  Safe concurrently with retrievals.
  Status Remove(size_t db_id) override;

  /// The batch of one through ScanCandidatesBatch.
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override;

  /// Filter-only scan of a batch over one pinned snapshot, in one tiled
  /// pass over its rows (FilterScorer::ScoreTopPBatch); candidates carry
  /// database ids in (score, id) order — the same lists a shard of the
  /// sharded engine contributes to its merge, so a RetrievalServer
  /// wrapping this engine is a drop-in remote shard.  With
  /// options.audit_monitor set the snapshot is handed back in every
  /// result's `pinned`.
  StatusOr<std::vector<ScanCandidatesResult>> ScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const override;

  /// Appends an already-embedded row (the remote Insert path; the
  /// embedding step ran client-side).  InvalidArgument on duplicate id
  /// or wrong dimensionality.  Safe concurrently with retrievals.
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;

  /// Number of database objects currently live.
  size_t size() const override { return db_->size(); }

  /// Rebuilds the id -> row index from the database's current id column
  /// — required after the durability subsystem restores the database
  /// contents underneath a constructed engine (RestoreVersion replaces
  /// rows and ids wholesale, leaving the construction-time index stale).
  /// Quiescent API; duplicate ids abort.
  void RebuildIdIndex();

  /// Copy of the current row -> id mapping, in row order.
  std::vector<size_t> db_ids() const { return db_->ids(); }
  const EmbeddedDatabase& db() const { return *db_; }

 private:
  const Embedder* embedder_;
  const FilterScorer* scorer_;
  EmbeddedDatabase* db_;
  /// Global-registry filter metrics, resolved once at construction
  /// (pointers are stable for the registry's lifetime) so the hot path
  /// never takes the registry lock.  Shared across engine instances by
  /// name; the pipeline holds the qse_engine_* retrieval ones.
  obs::Counter* filter_rows_visited_total_;
  obs::Counter* filter_rows_pruned_total_;
  /// Per scan pass, however many queries it scored.
  obs::Histogram* filter_ns_;
  /// Queries scored per scan pass.
  obs::Histogram* filter_batch_queries_;
  RetrievalPipeline pipeline_;
  /// Serializes Insert/Remove against each other (retrievals never take
  /// it — they pin snapshots instead).
  std::mutex mutation_mu_;
  /// database id -> row, maintained only under mutation_mu_; readers
  /// resolve ids through their snapshot's id column instead.
  std::unordered_map<size_t, size_t> row_of_;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_
