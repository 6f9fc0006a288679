#include "perfbench/src/vectors.h"

#include <algorithm>

#include "perfbench/src/workloads.h"
#include "src/distance/lp.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

constexpr double kClusterSpread = 0.05;
constexpr size_t kTrainObjects = 300;
// Rounds that give more than kServedDims distinct coordinates.
constexpr size_t kRounds = 80;
constexpr size_t kTriples = 6000;
constexpr size_t kK1 = 5;

}  // namespace

VectorData::VectorData(size_t clusters, uint64_t centers_seed) {
  qse::Rng rng(centers_seed);
  centers_.resize(std::max<size_t>(1, clusters) * kVectorDims);
  for (double& c : centers_) c = rng.Uniform(0, 1);
}

void VectorData::AddPoints(size_t count, uint64_t seed) {
  qse::Rng rng(seed ^ 0x504f494e54ull);
  const size_t clusters = centers_.size() / kVectorDims;
  size_t row = size();
  values_.resize((row + count) * kVectorDims);
  for (; row < size(); ++row) {
    const double* center = &centers_[rng.Index(clusters) * kVectorDims];
    for (size_t d = 0; d < kVectorDims; ++d) {
      values_[row * kVectorDims + d] =
          center[d] + rng.Gaussian(0, kClusterSpread);
    }
  }
}

double VectorData::Distance(size_t i, size_t j) const {
  return qse::L1DistanceSpan(&values_[i * kVectorDims],
                             &values_[j * kVectorDims], kVectorDims);
}

qse::BoostMapArtifacts TrainVectorModel(const VectorData& data,
                                        size_t db_size, uint64_t seed,
                                        Report* report) {
  qse::Rng rng(seed ^ 0x5643544f52ull);
  std::vector<size_t> train_ids =
      rng.SampleWithoutReplacement(db_size, kTrainObjects);
  std::sort(train_ids.begin(), train_ids.end());
  qse::BoostMapArtifacts trained =
      TrainSeQs(data, train_ids, kRounds, kTriples, kK1, seed, report);
  trained.model = LongestPrefix(
      trained.model, [](const qse::QuerySensitiveEmbedding& m) {
        return m.dims() <= kServedDims;
      });
  return trained;
}

std::vector<size_t> BruteForceKnn(const VectorData& data, size_t query,
                                  const std::vector<size_t>& ids, size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(ids.size());
  for (size_t id : ids) scored.emplace_back(data.Distance(query, id), id);
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end());
  std::vector<size_t> out;
  for (size_t i = 0; i < k; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace perfbench
