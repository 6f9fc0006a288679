#include "src/retrieval/retrieval_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/logging.h"
#include "src/util/timer.h"

namespace qse {
RetrievalEngine::RetrievalEngine(const Embedder* embedder,
                                 const FilterScorer* scorer,
                                 EmbeddedDatabase* db,
                                 std::vector<size_t> db_ids)
    : embedder_(embedder),
      scorer_(scorer),
      db_(db),
      filter_rows_visited_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_filter_rows_visited_total")),
      filter_rows_pruned_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_filter_rows_pruned_total")),
      filter_ns_(obs::MetricRegistry::Global().GetHistogram(
          "qse_engine_filter_latency_ns", obs::DefaultLatencyBoundariesNs())),
      filter_batch_queries_(obs::MetricRegistry::Global().GetHistogram(
          "qse_engine_filter_batch_queries",
          obs::ExponentialBoundaries(1, 2, 10))) {
  QSE_CHECK(db_->size() == db_ids.size());
  db_->AssignIds(db_ids);
  row_of_.reserve(db_ids.size());
  for (size_t row = 0; row < db_ids.size(); ++row) {
    bool inserted = row_of_.emplace(db_ids[row], row).second;
    QSE_CHECK_MSG(inserted, "duplicate database id " << db_ids[row]);
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  pipeline_.embedder = embedder_;
  pipeline_.scan = [this](size_t, const std::vector<Vector>& embedded_queries,
                          const RetrievalOptions& options,
                          obs::RequestTrace*) {
    return PendingScan(ScanCandidatesBatch(embedded_queries, options));
  };
  pipeline_.known_empty = [this] { return db_->empty(); };
  pipeline_.metrics.retrievals_total =
      registry.GetCounter("qse_engine_retrievals_total");
  pipeline_.metrics.exact_distances_total =
      registry.GetCounter("qse_engine_exact_distances_total");
  pipeline_.metrics.embed_ns = registry.GetHistogram(
      "qse_engine_embed_latency_ns", obs::DefaultLatencyBoundariesNs());
  pipeline_.metrics.refine_ns = registry.GetHistogram(
      "qse_engine_refine_latency_ns", obs::DefaultLatencyBoundariesNs());
}

StatusOr<RetrievalResponse> RetrievalEngine::Retrieve(
    const RetrievalRequest& request) const {
  return OnlyResponse(
      pipeline_.Run(&request.dx, 1, request.options, request.trace));
}

StatusOr<std::vector<RetrievalResponse>> RetrievalEngine::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  return pipeline_.Run(queries.data(), queries.size(), options);
}

StatusOr<ScanCandidatesResult> RetrievalEngine::ScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options) const {
  StatusOr<std::vector<ScanCandidatesResult>> batch =
      ScanCandidatesBatch({embedded_query}, options);
  QSE_RETURN_IF_ERROR(batch.status());
  return std::move(batch->front());
}

StatusOr<std::vector<ScanCandidatesResult>>
RetrievalEngine::ScanCandidatesBatch(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  for (const Vector& query : embedded_queries) {
    if (query.size() != db_->dims()) {
      return Status::InvalidArgument(
          "embedded query has " + std::to_string(query.size()) +
          " dims, database holds " + std::to_string(db_->dims()));
    }
  }
  // Pin one consistent (rows, ids, count) snapshot for the whole pass:
  // however many mutations land meanwhile, every query's candidates and
  // their ids come from the same database state.
  EmbeddedDatabase::Snapshot snap = db_->snapshot();
  const EmbeddedDatabase::View& view = snap.view();
  // Reduced-precision scans need the matching shadow matrix in the
  // pinned view; fail the request cleanly instead of tripping the
  // scorer's internal contract check.  An empty view scans nothing.
  uint32_t needed = ShadowMaskFor(options.filter_precision);
  if (!view.empty() && (view.shadows() & needed) != needed) {
    return Status::FailedPrecondition(
        std::string("filter precision ") +
        FilterPrecisionName(options.filter_precision) +
        " needs a shadow matrix this database does not carry; call "
        "EnableFilterShadows on it first (a sharded engine's shards: "
        "ShardedEngineOptions::filter_shadows)");
  }
  std::vector<ScanCandidatesResult> results(embedded_queries.size());
  // Unlike Retrieve, an empty backend is NOT an error here: a scan
  // contributes nothing, and the gathering caller — who can see every
  // shard — decides whether overall emptiness is FailedPrecondition.
  if (!view.empty() && !embedded_queries.empty()) {
    std::vector<FilterScanStats> scan_stats;
    MonotonicClock::time_point stage_start = MonotonicClock::now();
    std::vector<std::vector<ScoredIndex>> top = scorer_->ScoreTopPBatch(
        embedded_queries, view, std::min(options.p, view.size()),
        options.filter_precision, &scan_stats);
    filter_ns_->Record(static_cast<double>(NsSince(stage_start)));
    filter_batch_queries_->Record(static_cast<double>(top.size()));
    for (size_t i = 0; i < results.size(); ++i) {
      filter_rows_visited_total_->Add(scan_stats[i].rows_visited);
      filter_rows_pruned_total_->Add(scan_stats[i].rows_pruned);
      results[i].rows_pruned = scan_stats[i].rows_pruned;
      // Rows -> database ids through the same snapshot, then re-sort:
      // the scan's (score, row) tie order need not survive the
      // translation, and the k-way merge requires (score, id) order.
      std::vector<ScoredIndex>& candidates = results[i].candidates;
      candidates = std::move(top[i]);
      for (ScoredIndex& c : candidates) c.index = view.id_of(c.index);
      std::sort(candidates.begin(), candidates.end());
    }
  }
  for (ScanCandidatesResult& result : results) result.rows = view.size();
  // A sampled request's audit re-scans this very snapshot.  Moving a
  // Snapshot moves its pin, not the View the scan read.
  if (options.audit_monitor != nullptr) {
    auto pinned = std::make_shared<EmbeddedDatabase::Snapshot>(std::move(snap));
    for (ScanCandidatesResult& result : results) result.pinned = pinned;
  }
  return results;
}

Status RetrievalEngine::InsertEmbedded(size_t db_id,
                                       const Vector& embedded_row) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  if (row_of_.count(db_id) != 0) {
    return Status::InvalidArgument("database id already present: " +
                                   std::to_string(db_id));
  }
  if (embedded_row.size() != db_->dims()) {
    return Status::InvalidArgument(
        "embedded row has " + std::to_string(embedded_row.size()) +
        " dims, database holds " + std::to_string(db_->dims()));
  }
  size_t row = db_->Append(embedded_row, db_id);
  row_of_.emplace(db_id, row);
  return Status::OK();
}

Status RetrievalEngine::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  {
    // Fail a duplicate before spending up to 2d exact distances on it;
    // InsertEmbedded re-checks under the lock it appends under, so the
    // embedding itself runs outside the mutation lock.
    std::lock_guard<std::mutex> lock(mutation_mu_);
    if (row_of_.count(db_id) != 0) {
      return Status::InvalidArgument("database id already present: " +
                                     std::to_string(db_id));
    }
  }
  return InsertEmbedded(db_id, embedder_->Embed(dx, nullptr));
}

void RetrievalEngine::RebuildIdIndex() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::vector<size_t> ids = db_->ids();
  row_of_.clear();
  row_of_.reserve(ids.size());
  for (size_t row = 0; row < ids.size(); ++row) {
    bool inserted = row_of_.emplace(ids[row], row).second;
    QSE_CHECK_MSG(inserted, "duplicate database id " << ids[row]);
  }
}

Status RetrievalEngine::Remove(size_t db_id) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  auto it = row_of_.find(db_id);
  if (it == row_of_.end()) {
    return Status::NotFound("database id not present: " +
                            std::to_string(db_id));
  }
  size_t row = it->second;
  row_of_.erase(it);
  size_t moved_from = db_->SwapRemove(row);
  if (moved_from != row) {
    // The former last row now lives at `row`; the database already
    // swapped its id column, so read the moved id back from it.
    row_of_[db_->id_of(row)] = row;
  }
  return Status::OK();
}

}  // namespace qse
