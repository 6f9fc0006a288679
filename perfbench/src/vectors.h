// The vector data shared by scan_1m and churn_remote: clustered points in
// R^32 under L1, so one exact distance costs tens of ns and the filter
// scan, not DX, dominates a query.
#ifndef PERFBENCH_VECTORS_H_
#define PERFBENCH_VECTORS_H_

#include <cstdint>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"

namespace perfbench {

constexpr size_t kVectorDims = 32;
constexpr size_t kPointsPerCluster = 1000;

/// Points in R^32, row-major, around Gaussian clusters of about 1000
/// points each.
class VectorData : public qse::DistanceOracle {
 public:
  /// No points yet; `clusters` centers drawn from `centers_seed`.
  VectorData(size_t clusters, uint64_t centers_seed);
  /// Appends `count` points, each near a random center, drawn from `seed`.
  void AddPoints(size_t count, uint64_t seed);
  size_t size() const override { return values_.size() / kVectorDims; }
  double Distance(size_t i, size_t j) const override;

 private:
  std::vector<double> centers_;
  std::vector<double> values_;
};

/// Dimensionality of the served vector model: one 64-dim abandon block
/// per row, so a scan streams every row whatever the model's weights.
constexpr size_t kServedDims = 64;

/// The Se-QS model both vector workloads serve, trained on a sample of
/// the first `db_size` points and cut to the longest prefix with at most
/// kServedDims dims.  Fills core.train_* when `report` is set.
qse::BoostMapArtifacts TrainVectorModel(const VectorData& data,
                                        size_t db_size, uint64_t seed,
                                        Report* report);

/// The k nearest of `ids` to point `query`, by brute force, as ids in
/// ascending (distance, id) order.
std::vector<size_t> BruteForceKnn(const VectorData& data, size_t query,
                                  const std::vector<size_t>& ids, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_VECTORS_H_
