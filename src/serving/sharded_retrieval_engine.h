#ifndef QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_
#define QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/retrieval/retrieval_pipeline.h"
#include "src/util/statusor.h"

namespace qse {

/// The routing function: shard = mix64(db_id) % S.  Stateless and
/// deterministic, so two engines built over the same ids always agree
/// and out-of-process shard builders (a remote shard server populating
/// its slice of the database) reproduce the exact partition a composed
/// ShardedRetrievalEngine routes mutations against.
size_t HashShardOf(size_t db_id, size_t num_shards);

struct ShardedEngineOptions {
  /// Number of shards S.  0 means one shard per hardware core.
  size_t num_shards = 0;
  /// Filter shadow matrices (kShadowFloat32 | kShadowInt8) every shard
  /// database carries, enabling reduced-precision requests
  /// (RetrievalOptions::filter_precision).  0 = exact-only, no shadow
  /// memory.
  uint32_t filter_shadows = 0;
};

/// Scatter/gather retrieval over S shard backends — the serving layer's
/// answer to the filter step's linear scan growing with n: each shard
/// holds a disjoint subset of the database (an owned RetrievalEngine, or
/// a composed backend such as a remote stub), and the shared
/// RetrievalPipeline embeds the query once, starts every shard's filter
/// scan (StartScanCandidatesBatch) before waiting on any, so local
/// shards scan in parallel and remote shards' round trips overlap on one
/// thread, merges the per-shard top-p lists (MergeSortedTopK) and refines
/// the merged top p by exact distance.  A request with want_stats
/// receives per-shard scan/candidate counters in
/// RetrievalResponse::shard_stats.
///
/// Exactness: results are bit-identical to an unsharded RetrievalEngine at
/// equal p over the same data — every row's filter score is computed by the
/// same kernel regardless of which shard holds it, and the merge keeps the
/// globally smallest p under the same (score, id) total order.  Without
/// exact filter-score ties the guarantee is unconditional.  Under ties the
/// top-p boundary is resolved by row position — globally in the unsharded
/// engine, locally in each shard — so exact tie-for-tie parity additionally
/// assumes rows ascend with ids both in the unsharded engine and within
/// every shard.  That holds for partition construction and insert-only
/// workloads with increasing ids; Remove's swap-with-last can scramble it,
/// after which a tie at the p boundary may keep a different (equally
/// correct) tied candidate.
///
/// Mutations route by HashShardOf; the owning shard rejects duplicate
/// and unknown ids, so ids present at construction are removable too.
///
/// Thread-safety matches RetrievalEngine: Retrieve/RetrieveBatch are const
/// and safe concurrently; Insert/Remove are serialized internally and may
/// run concurrently with retrievals.  Each retrieval pins one epoch
/// snapshot per shard it scans, so per-shard results are each consistent;
/// a mutation only ever touches one shard, and a retrieval observes every
/// mutation that completed before it started, never one that started
/// after it finished, and any subset of concurrent ones.
class ShardedRetrievalEngine : public RetrievalBackend {
 public:
  /// An empty engine with S empty shards of dimensionality
  /// embedder->dims(); fill it through Insert.
  ShardedRetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                         ShardedEngineOptions options = {});

  /// Partitions an already-embedded database across shards by
  /// HashShardOf, copying rows — no re-embedding.  `db_ids[i]` is
  /// the database id of row i of `db`; ids must be unique.  `db` is only
  /// read during construction and not retained.
  ShardedRetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                         const EmbeddedDatabase& db,
                         const std::vector<size_t>& db_ids,
                         ShardedEngineOptions options = {});

  /// Composes over pre-built shard backends instead of owning local
  /// engines — the multi-node topology: each backend is typically a
  /// RemoteRetrievalBackend (or a HedgedReplicaBackend over several),
  /// scanned over the wire exactly like owned shards are scanned in
  /// process.  shard_backends[s] serves shard s and must hold the
  /// HashShardOf partition this engine's own constructors would build,
  /// or mutation routing breaks.  options.num_shards is taken from the
  /// backend count; options.filter_shadows is ignored (the backends own
  /// their shadow setup).  size() is the construction-time sum plus
  /// mutations routed through this engine.  Quality audits run only
  /// when every shard hands back a pinned snapshot (local engines), never
  /// over remote shards.
  ShardedRetrievalEngine(
      const Embedder* embedder,
      std::vector<std::shared_ptr<RetrievalBackend>> shard_backends,
      ShardedEngineOptions options = {});

  /// Scatter/gather retrieval over options.num_threads threads; neighbor
  /// indices are database ids.  Same validation contract as
  /// RetrievalEngine::Retrieve.
  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  /// One pass per shard for the whole batch (see
  /// RetrievalOptions::num_threads for the work items); results[i] is
  /// bit-identical to Retrieve({queries[i], options}).
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override;

  /// Inserts into shard ShardOf(db_id), which embeds the object once.
  /// InvalidArgument on a duplicate id.  Safe concurrently with
  /// retrievals.
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;

  /// Removes from shard ShardOf(db_id).  NotFound when absent.  Safe
  /// concurrently with retrievals.
  Status Remove(size_t db_id) override;

  /// Routes an already-embedded row to shard ShardOf(db_id) (the remote
  /// Insert path).  InvalidArgument on duplicate id.
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;

  /// Total objects across all shards.
  size_t size() const override {
    return total_size_.load(std::memory_order_acquire);
  }

  size_t num_shards() const { return shards_.size(); }
  /// Current per-shard sizes (the static half of the load picture).
  std::vector<size_t> shard_sizes() const;
  /// Shard that owns `db_id`: HashShardOf over this engine's shards.
  size_t ShardOf(size_t db_id) const {
    return HashShardOf(db_id, shards_.size());
  }
  /// The local engine of shard `s`; only valid for locally-owned shards
  /// (engines constructed by the first two constructors, never the
  /// backend-composing one).
  const RetrievalEngine& shard(size_t s) const;

  /// Shard s's database, mutable — the durability subsystem's restore
  /// target (RestoreVersion installs the snapshot contents verbatim,
  /// then RebuildAfterRestore() re-derives the engines' state).  Only
  /// valid for locally-owned shards.  Quiescent API.
  EmbeddedDatabase* mutable_shard_db(size_t s) { return dbs_[s].get(); }

  /// Re-derives every piece of state the constructors normally build —
  /// each local engine's id -> row index and the total size — from the
  /// shard databases' current contents.  Call after restoring shard
  /// databases via mutable_shard_db() + RestoreVersion.  Quiescent API;
  /// local shards only.
  void RebuildAfterRestore();

 private:
  /// Wires the pipeline to the shards; called by every constructor.
  void InitPipeline();

  const Embedder* embedder_;
  ShardedEngineOptions options_;
  /// Shard s's backend, scanned through StartScanCandidatesBatch.  For
  /// the local constructors it is a RetrievalEngine over dbs_[s].
  std::vector<std::shared_ptr<RetrievalBackend>> shards_;
  /// Locally-owned shard databases; empty for a composed engine.
  /// unique_ptr keeps addresses stable: each engine points at its db.
  std::vector<std::unique_ptr<EmbeddedDatabase>> dbs_;
  RetrievalPipeline pipeline_;
  /// Serializes Insert/Remove, so each shard mutation and its count
  /// update land together; retrievals never take it.
  std::mutex mutation_mu_;
  /// Total objects across shards; read lock-free by the retrieval path.
  std::atomic<size_t> total_size_{0};
};

}  // namespace qse

#endif  // QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_
