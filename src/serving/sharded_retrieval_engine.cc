#include "src/serving/sharded_retrieval_engine.h"

#include <cstdint>

#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace qse {
namespace {

/// splitmix64 finalizer: full avalanche, so the sequential ids most
/// callers use spread evenly instead of striping shards modulo S.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t ResolveNumShards(size_t requested) {
  return requested == 0 ? DefaultParallelism() : requested;
}

}  // namespace

size_t HashShardOf(size_t db_id, size_t num_shards) {
  return static_cast<size_t>(Mix64(db_id) % num_shards);
}

ShardedRetrievalEngine::ShardedRetrievalEngine(const Embedder* embedder,
                                               const FilterScorer* scorer,
                                               ShardedEngineOptions options)
    : ShardedRetrievalEngine(embedder, scorer, EmbeddedDatabase(0), {},
                             options) {}

ShardedRetrievalEngine::ShardedRetrievalEngine(
    const Embedder* embedder, const FilterScorer* scorer,
    const EmbeddedDatabase& db, const std::vector<size_t>& db_ids,
    ShardedEngineOptions options)
    : embedder_(embedder), options_(options) {
  QSE_CHECK_MSG(db.size() == db_ids.size(),
                "db has " << db.size() << " rows but " << db_ids.size()
                          << " ids");
  options_.num_shards = ResolveNumShards(options_.num_shards);
  const size_t num_shards = options_.num_shards;
  const size_t dims = db.empty() ? embedder_->dims() : db.dims();
  std::vector<std::vector<size_t>> ids_per_shard(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    dbs_.push_back(std::make_unique<EmbeddedDatabase>(dims));
    dbs_[s]->Reserve(db.size() / num_shards + 1);
  }
  for (size_t row = 0; row < db.size(); ++row) {
    const size_t s = HashShardOf(db_ids[row], num_shards);
    dbs_[s]->Append(db.row(row));  // Borrowed view: no temporary.
    ids_per_shard[s].push_back(db_ids[row]);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    // Shadows build after the bulk fill: one pass per shard instead of
    // per-Append maintenance during partitioning.
    if (options_.filter_shadows != 0) {
      dbs_[s]->EnableFilterShadows(options_.filter_shadows);
    }
    // The engine rejects duplicate ids; equal ids share a shard.
    shards_.push_back(std::make_shared<RetrievalEngine>(
        embedder_, scorer, dbs_[s].get(), std::move(ids_per_shard[s])));
  }
  total_size_.store(db.size(), std::memory_order_relaxed);
  InitPipeline();
}

ShardedRetrievalEngine::ShardedRetrievalEngine(
    const Embedder* embedder,
    std::vector<std::shared_ptr<RetrievalBackend>> shard_backends,
    ShardedEngineOptions options)
    : embedder_(embedder),
      options_(options),
      shards_(std::move(shard_backends)) {
  QSE_CHECK_MSG(!shards_.empty(),
                "composed sharded engine needs at least one shard backend");
  options_.num_shards = shards_.size();
  size_t total = 0;
  for (const std::shared_ptr<RetrievalBackend>& backend : shards_) {
    QSE_CHECK_MSG(backend != nullptr, "null shard backend");
    total += backend->size();
  }
  total_size_.store(total, std::memory_order_relaxed);
  InitPipeline();
}

void ShardedRetrievalEngine::InitPipeline() {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  pipeline_.embedder = embedder_;
  pipeline_.num_sources = shards_.size();
  pipeline_.scan = [this](size_t s,
                          const std::vector<Vector>& embedded_queries,
                          const RetrievalOptions& options,
                          obs::RequestTrace*) {
    return shards_[s]->StartScanCandidatesBatch(embedded_queries, options);
  };
  pipeline_.known_empty = [this] { return size() == 0; };
  pipeline_.scan_span = "shard_scan";
  PipelineMetrics& m = pipeline_.metrics;
  m.retrievals_total = registry.GetCounter("qse_sharded_retrievals_total");
  m.exact_distances_total =
      registry.GetCounter("qse_sharded_exact_distances_total");
  m.filter_rows_visited_total =
      registry.GetCounter("qse_sharded_filter_rows_visited_total");
  m.filter_rows_pruned_total =
      registry.GetCounter("qse_sharded_filter_rows_pruned_total");
  m.embed_ns = registry.GetHistogram("qse_sharded_embed_latency_ns",
                                     obs::DefaultLatencyBoundariesNs());
  m.scan_ns = registry.GetHistogram("qse_sharded_scatter_latency_ns",
                                    obs::DefaultLatencyBoundariesNs());
  m.merge_ns = registry.GetHistogram("qse_sharded_merge_latency_ns",
                                     obs::DefaultLatencyBoundariesNs());
  m.refine_ns = registry.GetHistogram("qse_sharded_refine_latency_ns",
                                      obs::DefaultLatencyBoundariesNs());
}

StatusOr<RetrievalResponse> ShardedRetrievalEngine::Retrieve(
    const RetrievalRequest& request) const {
  return pipeline_.Retrieve(request.dx, request.options,
                            options_.scatter_threads, request.trace);
}

StatusOr<std::vector<RetrievalResponse>> ShardedRetrievalEngine::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  return pipeline_.RetrieveBatch(queries, options);
}

Status ShardedRetrievalEngine::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  QSE_RETURN_IF_ERROR(shards_[ShardOf(db_id)]->Insert(db_id, dx));
  total_size_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status ShardedRetrievalEngine::InsertEmbedded(size_t db_id,
                                              const Vector& embedded_row) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  QSE_RETURN_IF_ERROR(
      shards_[ShardOf(db_id)]->InsertEmbedded(db_id, embedded_row));
  total_size_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status ShardedRetrievalEngine::Remove(size_t db_id) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  QSE_RETURN_IF_ERROR(shards_[ShardOf(db_id)]->Remove(db_id));
  total_size_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

const RetrievalEngine& ShardedRetrievalEngine::shard(size_t s) const {
  QSE_CHECK_MSG(s < dbs_.size(), "shard(s) needs a locally-owned shard");
  return static_cast<const RetrievalEngine&>(*shards_[s]);
}

void ShardedRetrievalEngine::RebuildAfterRestore() {
  QSE_CHECK_MSG(!dbs_.empty(), "RebuildAfterRestore needs local shards");
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    static_cast<RetrievalEngine&>(*shards_[s]).RebuildIdIndex();
    total += dbs_[s]->size();
  }
  total_size_.store(total, std::memory_order_release);
}

std::vector<size_t> ShardedRetrievalEngine::shard_sizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) sizes.push_back(shard->size());
  return sizes;
}

}  // namespace qse
