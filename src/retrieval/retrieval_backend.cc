#include "src/retrieval/retrieval_backend.h"

#include <mutex>
#include <utility>

#include "src/util/parallel.h"

namespace qse {

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHigh:
      return "high";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kLow:
      return "low";
  }
  return "invalid";
}

Status ValidateRetrievalOptions(const RetrievalOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.p == 0) {
    return Status::InvalidArgument(
        "p must be >= 1: a filter step that keeps no candidates cannot "
        "retrieve anything");
  }
  if (static_cast<size_t>(options.priority) >= kNumPriorityLanes) {
    return Status::InvalidArgument(
        "invalid priority enumerator: " +
        std::to_string(static_cast<size_t>(options.priority)));
  }
  if (static_cast<size_t>(options.filter_precision) >=
      static_cast<size_t>(kNumFilterPrecisions)) {
    return Status::InvalidArgument(
        "invalid filter_precision enumerator: " +
        std::to_string(static_cast<size_t>(options.filter_precision)));
  }
  return Status::OK();
}

StatusOr<std::vector<RetrievalResponse>> RetrievalBackend::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  // Validate once up front so a bad parameter fails the whole batch
  // instead of every entry failing identically in parallel.
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  std::vector<RetrievalResponse> results(queries.size());
  std::mutex error_mu;
  Status first_error = Status::OK();
  // Grain 2: one item is a whole filter-and-refine retrieval, expensive
  // enough to parallelize even a handful of queries.
  ParallelForGrain(
      0, queries.size(), 2,
      [&](size_t i) {
        StatusOr<RetrievalResponse> r =
            Retrieve({queries[i], options, /*trace=*/nullptr});
        if (!r.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = r.status();
          return;
        }
        results[i] = std::move(r).value();
      },
      options.num_threads);
  QSE_RETURN_IF_ERROR(first_error);
  return results;
}

StatusOr<std::vector<ScanCandidatesResult>>
RetrievalBackend::ScanCandidatesBatch(
    const std::vector<Vector>& embedded_queries,
    const RetrievalOptions& options) const {
  std::vector<ScanCandidatesResult> results;
  results.reserve(embedded_queries.size());
  for (const Vector& query : embedded_queries) {
    StatusOr<ScanCandidatesResult> r = ScanCandidates(query, options);
    QSE_RETURN_IF_ERROR(r.status());
    results.push_back(std::move(r).value());
  }
  return results;
}

}  // namespace qse
