// Handwritten-digit similarity search — the paper's first workload
// (Sec. 9, MNIST + Shape Context Distance), on this repo's synthetic
// digit generator.
//
// Demonstrates:
//   * the Shape Context Distance over stroke-sampled digit point sets,
//   * Se-QS training and filter-and-refine retrieval,
//   * a 1-NN classifier on top of retrieval (the paper quotes 0.63% error
//     for 3-NN shape context matching on real MNIST; our synthetic digits
//     are easier, so expect a high accuracy from far fewer distances).
//
// Build: cmake --build build && ./build/examples/digits_retrieval
#include <cstdio>
#include <numeric>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/data/digit_generator.h"
#include "src/matching/shape_context_distance.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"

int main() {
  using namespace qse;

  // --- Generate the database (labeled synthetic digits).
  const size_t kDbSize = 600, kNumQueries = 60;
  DigitGenerator gen({}, /*seed=*/2005);
  std::vector<LabeledPointSet> samples = gen.Generate(kDbSize + kNumQueries);
  std::vector<PointSet> shapes;
  std::vector<int> labels;
  for (auto& s : samples) {
    shapes.push_back(std::move(s.shape));
    labels.push_back(s.label);
  }
  ObjectOracle<PointSet> oracle(
      std::move(shapes),
      [](const PointSet& a, const PointSet& b) {
        return ShapeContextDistance(a, b);
      });

  std::vector<size_t> db_ids(kDbSize);
  std::iota(db_ids.begin(), db_ids.end(), 0);

  // --- Train Se-QS.
  BoostMapConfig config;
  config.sampling = TripleSampling::kSelective;
  config.num_triples = 4000;
  config.k1 = 5;
  config.boost.rounds = 40;
  config.boost.embeddings_per_round = 32;
  config.boost.query_sensitive = true;
  std::vector<size_t> training_sample(db_ids.begin(), db_ids.begin() + 150);
  auto artifacts = TrainBoostMap(oracle, training_sample, training_sample,
                                 config);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 artifacts.status().ToString().c_str());
    return 1;
  }
  std::printf("Se-QS model: %zu dims, query embedding costs %zu exact "
              "shape-context distances\n\n",
              artifacts->model.dims(), artifacts->model.EmbeddingCost());

  QseEmbedderAdapter embedder(&artifacts->model);
  EmbeddedDatabase embedded = EmbedDatabase(embedder, oracle, db_ids);
  QuerySensitiveScorer scorer(&artifacts->model);
  RetrievalEngine retriever(&embedder, &scorer, &embedded, db_ids);

  // --- Show one query and its retrieved neighbors as ASCII art.
  size_t demo_query = kDbSize;  // First query object.
  auto demo_dx = [&](size_t id) { return oracle.Distance(demo_query, id); };
  auto demo_or = retriever.Retrieve({demo_dx, RetrievalOptions(3, 40)});
  if (!demo_or.ok()) {
    std::fprintf(stderr, "retrieval failed: %s\n",
                 demo_or.status().ToString().c_str());
    return 1;
  }
  RetrievalResponse demo = std::move(demo_or).value();
  std::printf("query digit (true label %d):\n", labels[demo_query]);
  for (const auto& row : RenderAscii(oracle.object(demo_query), 24, 12)) {
    std::printf("  %s\n", row.c_str());
  }
  std::printf("\ntop-3 matches (labels:");
  for (const auto& nb : demo.neighbors) {
    std::printf(" %d", labels[nb.index]);
  }
  std::printf(") using %zu exact distances instead of %zu:\n",
              demo.exact_distances, kDbSize);
  for (const auto& nb : demo.neighbors) {
    std::printf("\n  match at distance %.3f:\n", nb.score);
    for (const auto& row : RenderAscii(oracle.object(nb.index), 24, 12)) {
      std::printf("  %s\n", row.c_str());
    }
  }

  // --- 1-NN classification over all queries via filter-and-refine.
  // Classify all queries in one thread-parallel batch.
  std::vector<DxToDatabaseFn> queries;
  for (size_t q = kDbSize; q < kDbSize + kNumQueries; ++q) {
    queries.push_back([&oracle, q](size_t id) {
      return oracle.Distance(q, id);
    });
  }
  auto batch_or = retriever.RetrieveBatch(queries, RetrievalOptions(1, 40));
  if (!batch_or.ok()) {
    std::fprintf(stderr, "retrieval failed: %s\n",
                 batch_or.status().ToString().c_str());
    return 1;
  }
  size_t correct = 0, total_cost = 0;
  std::vector<RetrievalResponse> results = std::move(batch_or).value();
  for (size_t qi = 0; qi < results.size(); ++qi) {
    const RetrievalResponse& r = results[qi];
    total_cost += r.exact_distances;
    if (labels[r.neighbors[0].index] == labels[kDbSize + qi]) {
      ++correct;
    }
  }
  std::printf("\n1-NN classification: %zu/%zu correct (%.1f%%), avg %zu "
              "exact distances per query (brute force: %zu)\n",
              correct, kNumQueries,
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(kNumQueries),
              total_cost / kNumQueries, kDbSize);
  return 0;
}
