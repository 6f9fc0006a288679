// Dynamic datasets (paper Sec. 7.1): adding objects online and monitoring
// embedding drift.
//
// The paper notes that as long as the underlying distribution is stable,
// adding an object only costs its embedding (<= 2d exact distances), and
// that drift can be detected by re-measuring the embedding's triple
// classification error on freshly sampled triples — retraining when it
// degrades.  This example demonstrates the RetrievalEngine's incremental
// Insert/Remove: it grows the database online, shifts the data
// distribution to trip the error monitor, retrains, and finally shows
// that dropping the shifted objects (Remove) also restores the monitor.
//
// Build: cmake --build build && ./build/examples/dynamic_dataset
#include <cstdio>
#include <numeric>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/top_k.h"

namespace {

/// Triple classification error of the model on triples sampled "the same
/// way we would choose training triples" (Sec. 7.1's drift monitor):
/// a is one of q's 5 nearest neighbors, b has rank in (5, 50] — the
/// fine-grained discrimination that k-NN retrieval depends on.  Random
/// q-a-b triples would be dominated by easy far-apart comparisons and
/// mask the drift.  Objects are drawn from the engine's *current* rows,
/// so the monitor follows inserts and removes automatically.
double TripleError(const qse::QuerySensitiveEmbedding& model,
                   const qse::ObjectOracle<qse::Vector>& oracle,
                   const qse::RetrievalEngine& engine, qse::Rng* rng,
                   int trials = 400) {
  size_t n = engine.size();
  size_t wrong = 0, total = 0;
  std::vector<qse::ScoredIndex> ranked;
  for (int t = 0; t < trials; ++t) {
    size_t qrow = rng->Index(n);
    size_t q = engine.db().id_of(qrow);
    std::vector<double> dist(n);
    for (size_t row = 0; row < n; ++row) {
      dist[row] =
          row == qrow ? 1e300 : oracle.Distance(q, engine.db().id_of(row));
    }
    ranked = qse::SmallestK(dist, 50);
    size_t arow = ranked[rng->Index(5)].index;
    size_t brow = ranked[5 + rng->Index(45)].index;
    double da = oracle.Distance(q, engine.db().id_of(arow));
    double db = oracle.Distance(q, engine.db().id_of(brow));
    if (da == db) continue;
    double margin = model.TripleMargin(engine.db().RowVector(qrow),
                                       engine.db().RowVector(arow),
                                       engine.db().RowVector(brow));
    bool correct = (margin > 0) == (da < db);
    if (!correct) ++wrong;
    ++total;
  }
  return static_cast<double>(wrong) / static_cast<double>(total);
}

}  // namespace

int main() {
  using namespace qse;

  // Initial database: points clustered in the lower-left quadrant.
  Rng rng(7);
  std::vector<Vector> points;
  for (int i = 0; i < 600; ++i) {
    points.push_back({rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)});
  }
  // Reserve capacity: the oracle object container is fixed, so build it
  // with all objects we may ever add; "online" ids are revealed later.
  for (int i = 0; i < 300; ++i) {  // Same-distribution additions.
    points.push_back({rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)});
  }
  // Distribution-shifted additions: a tight, far-away cluster.  Within
  // that cluster the original reference objects barely discriminate
  // (their distances are dominated by the cluster offset), so triples
  // drawn among the new objects are frequently misclassified.
  for (int i = 0; i < 600; ++i) {
    points.push_back({rng.Uniform(2.0, 2.15), rng.Uniform(2.0, 2.15)});
  }
  ObjectOracle<Vector> oracle(std::move(points), L2Distance);

  size_t live = 600;  // Objects currently in the database.
  std::vector<size_t> db_ids(live);
  std::iota(db_ids.begin(), db_ids.end(), 0);

  BoostMapConfig config;
  config.sampling = TripleSampling::kSelective;
  config.num_triples = 3000;
  config.k1 = 5;
  config.boost.rounds = 24;
  config.boost.embeddings_per_round = 24;
  std::vector<size_t> sample(db_ids.begin(), db_ids.begin() + 150);
  auto artifacts = TrainBoostMap(oracle, sample, sample, config);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "%s\n", artifacts.status().ToString().c_str());
    return 1;
  }
  const QuerySensitiveEmbedding& model = artifacts->model;
  QseEmbedderAdapter embedder(&model);

  // Embed the initial database (parallel across cores) and stand up the
  // engine; every later addition goes through engine.Insert.
  EmbeddedDatabase embedded = EmbedDatabase(embedder, oracle, db_ids);
  QuerySensitiveScorer scorer(&model);
  RetrievalEngine engine(&embedder, &scorer, &embedded, db_ids);

  auto insert = [&](size_t id) {
    Status s = engine.Insert(id, [&](size_t o) {
      return o == id ? 0.0 : oracle.Distance(id, o);
    });
    QSE_CHECK_MSG(s.ok(), s.ToString());
  };

  Rng monitor_rng(99);
  std::printf("initial error on random triples: %.3f\n",
              TripleError(model, oracle, engine, &monitor_rng));

  // --- Phase 1: add 300 same-distribution objects online.  Each insert
  // costs one embedding: at most 2d exact distances (model.EmbeddingCost).
  for (size_t id = live; id < live + 300; ++id) insert(id);
  live += 300;
  double err_same = TripleError(model, oracle, engine, &monitor_rng);
  std::printf("after adding 300 in-distribution objects (%zu exact "
              "distances each): error %.3f\n",
              model.EmbeddingCost(), err_same);

  // --- Phase 2: add 600 distribution-shifted objects.
  for (size_t id = live; id < live + 600; ++id) insert(id);
  live += 600;
  double err_shift = TripleError(model, oracle, engine, &monitor_rng);
  std::printf("after adding 600 distribution-SHIFTED objects: error %.3f\n",
              err_shift);

  if (err_shift > err_same * 1.3) {
    std::printf("\ndrift detected (error grew %.1fx) -> retraining, as "
                "Sec. 7.1 prescribes\n",
                err_shift / err_same);
    std::vector<size_t> all_ids(live);
    std::iota(all_ids.begin(), all_ids.end(), 0);
    Rng resample(5);
    auto picks = resample.SampleWithoutReplacement(live, 150);
    std::vector<size_t> new_sample;
    for (size_t p : picks) new_sample.push_back(all_ids[p]);
    auto retrained = TrainBoostMap(oracle, new_sample, new_sample, config);
    if (retrained.ok()) {
      QseEmbedderAdapter re_embedder(&retrained->model);
      EmbeddedDatabase re_embedded =
          EmbedDatabase(re_embedder, oracle, all_ids);
      QuerySensitiveScorer re_scorer(&retrained->model);
      RetrievalEngine re_engine(&re_embedder, &re_scorer, &re_embedded,
                                all_ids);
      std::printf("retrained model error: %.3f\n",
                  TripleError(retrained->model, oracle, re_engine,
                              &monitor_rng));
    }

    // When the shifted objects are transient (a bad ingest batch, an
    // expired tenant), dropping them is cheaper than retraining: Remove
    // is O(d) per object and the old model is valid again.
    for (size_t id = 900; id < 1500; ++id) {
      Status s = engine.Remove(id);
      QSE_CHECK_MSG(s.ok(), s.ToString());
    }
    std::printf("after removing the 600 shifted objects instead: error "
                "%.3f (engine back to %zu objects)\n",
                TripleError(model, oracle, engine, &monitor_rng),
                engine.size());
  } else {
    std::printf("no significant drift detected\n");
  }
  return 0;
}
