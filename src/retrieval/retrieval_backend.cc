#include "src/retrieval/retrieval_backend.h"

#include <utility>

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
