#ifndef QSE_RETRIEVAL_EVALUATION_H_
#define QSE_RETRIEVAL_EVALUATION_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/retrieval/filter_refine.h"

namespace qse {

/// Exact k-nearest-neighbor ground truth for a query workload: for each
/// query, the positions (into the db-ids vector) of its kmax true nearest
/// neighbors, ascending by (exact distance, position).
struct GroundTruth {
  size_t kmax = 0;
  std::vector<std::vector<uint32_t>> knn;  // [query][0..kmax)
};

/// Brute-force computation of the ground truth (|queries| * |db| exact
/// distances; cache-friendly to wrap `oracle` in a CachingOracle).
GroundTruth ComputeGroundTruth(const DistanceOracle& oracle,
                               const std::vector<size_t>& db_ids,
                               const std::vector<size_t>& query_ids,
                               size_t kmax);

/// Evaluation of one embedding configuration (one point of the paper's
/// dimensionality sweep): for every query and every k <= kmax, the
/// smallest filter-candidate count p such that all k true nearest
/// neighbors appear among the top p filter results.
struct LadderPoint {
  /// Caller-defined sweep parameter (boosting-round prefix for BoostMap
  /// models, dimensionality for FastMap).
  size_t param = 0;
  /// Dimensionality of the embedding at this point.
  size_t dims = 0;
  /// Exact distances needed to embed a query (the embedding step cost).
  size_t query_cost = 0;
  /// required_p[q][k-1], for k = 1..kmax.
  std::vector<std::vector<uint32_t>> required_p;
};

/// Runs the filter step for every query and records the required-p
/// statistics against the ground truth.  `oracle` supplies the query ->
/// database exact distances consumed by the embedding step (they are not
/// counted here; LadderPoint::query_cost reports the per-query count).
LadderPoint EvaluateLadderPoint(const Embedder& embedder,
                                const FilterScorer& scorer,
                                const EmbeddedDatabase& db,
                                const DistanceOracle& oracle,
                                const std::vector<size_t>& db_ids,
                                const std::vector<size_t>& query_ids,
                                const GroundTruth& gt, size_t param);

/// The paper's cost metric (Sec. 9): the minimum, over the evaluated
/// configurations, of
///
///     embedding cost + p(B)
///
/// where p(B) is the nearest-rank B-quantile over queries of required_p
/// for the given k — i.e. the fewest exact distance computations per
/// query under which a fraction >= B of queries retrieve all k true
/// nearest neighbors.  Capped at |db| (brute force needs no embedding).
size_t OptimalCost(const std::vector<LadderPoint>& ladder, size_t k,
                   double accuracy_fraction, size_t db_size);

/// The (param, p) setting attaining OptimalCost; exposed so benches can
/// report the chosen dimensionality/p like the paper's discussion does.
struct OptimalSetting {
  size_t param = 0;
  size_t dims = 0;
  size_t p = 0;
  size_t total_cost = 0;
  bool brute_force = false;  // True when no setting beats scanning.
};
OptimalSetting OptimalCostSetting(const std::vector<LadderPoint>& ladder,
                                  size_t k, double accuracy_fraction,
                                  size_t db_size);

}  // namespace qse

#endif  // QSE_RETRIEVAL_EVALUATION_H_
