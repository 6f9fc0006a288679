// ts_dtw: the paper's time-series testbed.  Synthetic series under cDTW
// with a 10 % band, a Se-QS model, and one client calling
// RetrievalEngine::Retrieve in a closed loop.  Bound by exact distances.
#include <algorithm>
#include <memory>
#include <numeric>

#include "perfbench/src/analysis.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/data/timeseries_generator.h"
#include "src/distance/dtw.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/evaluation.h"
#include "src/retrieval/filter_refine.h"

namespace perfbench {
namespace {

constexpr size_t kDbSize = 10000;
// Distinct queries, so percentiles do not sit on the steps of a small
// per-query cost distribution.
constexpr size_t kNumQueries = 2000;
// The seed picks the queries from this many series generated beside the
// database.
constexpr size_t kQueryPool = 10000;
// The fixed subset whose answers are checked against brute force.
constexpr size_t kRecallQueries = 200;
constexpr size_t kTrainObjects = 300;
constexpr size_t kRounds = 64;
// The served model is the longest prefix embedding a query in at most
// this many exact distances.
constexpr size_t kEmbedBudget = 64;
constexpr size_t kTriples = 6000;
constexpr size_t kK1 = 9;  // The paper's setting for the time-series data.
constexpr size_t kK = 10;
constexpr size_t kP = 200;
constexpr double kBand = 0.1;
constexpr size_t kWarmupQueries = 20;
// A working pipeline scores 0.6-0.95 here, a broken one (wrong ids, lost
// rows) near 0.
constexpr double kMinRecall = 0.3;

struct Stack {
  qse::BoostMapArtifacts trained;
  std::unique_ptr<qse::QseEmbedderAdapter> embedder;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer;
  qse::EmbeddedDatabase db{0};
  std::unique_ptr<qse::RetrievalEngine> engine;
};

std::unique_ptr<Stack> SetUp(const qse::DistanceOracle& oracle,
                             const std::vector<size_t>& db_ids,
                             const std::vector<size_t>& train_ids,
                             uint64_t seed, Report* layer_report) {
  auto stack = std::make_unique<Stack>();
  stack->trained = TrainSeQs(oracle, train_ids, kRounds, kTriples, kK1, seed,
                             layer_report);
  stack->trained.model = LongestPrefix(
      stack->trained.model, [](const qse::QuerySensitiveEmbedding& m) {
        return m.EmbeddingCost() <= kEmbedBudget;
      });
  stack->embedder =
      std::make_unique<qse::QseEmbedderAdapter>(&stack->trained.model);
  stack->scorer =
      std::make_unique<qse::QuerySensitiveScorer>(&stack->trained.model);
  uint64_t start = NowNs();
  stack->db = qse::EmbedDatabase(*stack->embedder, oracle, db_ids);
  if (layer_report != nullptr) {
    layer_report->Set("core.db_embed_s", SecondsSince(start), "s");
  }
  stack->engine = std::make_unique<qse::RetrievalEngine>(
      stack->embedder.get(), stack->scorer.get(), &stack->db, db_ids);
  return stack;
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // Completion time, from the loop's start.
  std::vector<std::vector<qse::ScoredIndex>> answers;  // Recall subset.
  std::vector<size_t> exact_distances;                 // Recall subset.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

qse::StatusOr<qse::RetrievalResponse> RetrieveTraced(
    const qse::RetrievalBackend& backend, const qse::RetrievalOptions& options,
    const qse::DxToDatabaseFn& dx, uint64_t request_id) {
  tracer::SetRequest(request_id);
  ScopedSpan span(Kind::kRequest, request_id);
  return backend.Retrieve({TracedDx{dx, request_id}, options});
}

// One client, closed loop: each query is sent when the previous answer
// arrives.  `traced` routes the calls through the decorators.
LoopResult RunLoop(const qse::RetrievalBackend& backend,
                   const std::vector<qse::DxToDatabaseFn>& queries,
                   double seconds, bool traced) {
  LoopResult result;
  result.answers.resize(kRecallQueries);
  result.exact_distances.resize(kRecallQueries);
  qse::RetrievalOptions options(kK, kP);
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < stop || i < kRecallQueries; ++i) {
    const size_t q = i % queries.size();
    const uint64_t request_id = i + 1;
    ++result.attempted;
    const uint64_t t0 = NowNs();
    qse::StatusOr<qse::RetrievalResponse> answer =
        traced ? RetrieveTraced(backend, options, queries[q], request_id)
               : backend.Retrieve({queries[q], options});
    const uint64_t t1 = NowNs();
    if (!answer.ok()) {
      ++result.failed;
      continue;
    }
    result.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    result.done_s.push_back(static_cast<double>(t1 - start) * 1e-9);
    if (i < kRecallQueries) {
      result.answers[i] = answer->neighbors;
      result.exact_distances[i] = answer->exact_distances;
    }
  }
  result.seconds = SecondsSince(start);
  return result;
}

}  // namespace

void RunTsDtw(const Args& args, Report* report) {
  // Inputs: the database and a query pool from one generator, so queries
  // share the database's seed shapes; the seed picks the queries.
  // Equal lengths make every cDTW cost the same.
  qse::TimeSeriesGeneratorParams params;
  params.fixed_length = true;
  qse::TimeSeriesGenerator generator(params, kDatabaseSeed);
  std::vector<qse::Series> series = generator.Generate(kDbSize + kQueryPool);
  qse::ObjectOracle<qse::Series> oracle(
      std::move(series), [](const qse::Series& a, const qse::Series& b) {
        return qse::ConstrainedDtw(a, b, kBand);
      });
  std::vector<size_t> db_ids(kDbSize);
  std::iota(db_ids.begin(), db_ids.end(), 0);
  qse::Rng rng(kDatabaseSeed ^ 0x7453445457ull);
  std::vector<size_t> train_ids = rng.SampleWithoutReplacement(kDbSize,
                                                               kTrainObjects);
  std::sort(train_ids.begin(), train_ids.end());
  qse::Rng pick(args.seed);
  std::vector<size_t> query_rows =
      pick.SampleWithoutReplacement(kQueryPool, kNumQueries);
  std::vector<qse::DxToDatabaseFn> queries;
  queries.reserve(kNumQueries);
  for (size_t& row : query_rows) {
    row += kDbSize;
    queries.push_back(
        [&oracle, row](size_t id) { return oracle.Distance(row, id); });
  }

  // Set-up: training, database embedding, engine.  The untimed run sets
  // up three times and reports the median; the traced run once, with the
  // per-layer split.
  std::unique_ptr<Stack> stack;
  if (args.trace) {
    stack = SetUp(oracle, db_ids, train_ids, kDatabaseSeed, report);
  } else {
    std::vector<double> setup_s;
    for (int i = 0; i < 3; ++i) {
      stack.reset();
      uint64_t start = NowNs();
      stack = SetUp(oracle, db_ids, train_ids, kDatabaseSeed, nullptr);
      setup_s.push_back(SecondsSince(start));
    }
    report->Set("setup_s", Median(setup_s), "s");
  }
  report->Note("sizes: n=" + std::to_string(kDbSize) +
               " d=" + std::to_string(stack->trained.model.dims()) +
               " queries=" + std::to_string(kNumQueries) +
               " k=" + std::to_string(kK) + " p=" + std::to_string(kP));

  for (size_t i = 0; i < kWarmupQueries; ++i) {
    (void)stack->engine->Retrieve({queries[i], qse::RetrievalOptions(kK, kP)});
  }
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  RssSampler rss;
  LoopResult loop = RunLoop(*stack->engine, queries, untraced_seconds, false);
  report->attempted += loop.attempted;
  report->failed += loop.failed;
  AddQueryMetrics(loop.latency_ms, loop.done_s, loop.seconds, report);
  report->Set("rss_mb", rss.Stop(), "MB");

  if (args.trace) {
    TracedEmbedder embedder(stack->embedder.get());
    TracedScorer scorer(stack->scorer.get());
    qse::RetrievalEngine engine(&embedder, &scorer, &stack->db, db_ids);
    TracedBackend backend(&engine, BackendKinds{});
    tracer::Reset();
    LoopResult traced = RunLoop(backend, queries, args.seconds / 2, true);
    report->attempted += traced.attempted;
    report->failed += traced.failed;
    double traced_ms = AnalyzeTrace(tracer::Collect(),
                                    tracer::CollectBatches(), report);
    report->Set("obs.trace_overhead_share",
                traced_ms / Mean(loop.latency_ms) - 1, "share");
  }

  // Correctness against brute force on the fixed recall subset: every
  // answer holds k ids in ascending exact distance, each distance is the
  // true cDTW distance, and recall@10 stays above the floor.
  std::vector<size_t> recall_ids(query_rows.begin(),
                                 query_rows.begin() + kRecallQueries);
  qse::GroundTruth truth =
      qse::ComputeGroundTruth(oracle, db_ids, recall_ids, kK);
  double recall_sum = 0, dx_sum = 0;
  bool exact = true;
  for (size_t i = 0; i < kRecallQueries; ++i) {
    const std::vector<qse::ScoredIndex>& got = loop.answers[i];
    std::vector<size_t> got_ids, want_ids;
    for (size_t j = 0; j < got.size(); ++j) {
      size_t id = stack->engine->db_id_of(got[j].index);
      got_ids.push_back(id);
      exact = exact && got[j].score == oracle.Distance(recall_ids[i], id) &&
              (j == 0 || got[j - 1].score <= got[j].score);
    }
    for (uint32_t pos : truth.knn[i]) want_ids.push_back(db_ids[pos]);
    exact = exact && got.size() == kK;
    recall_sum += RecallOf(got_ids, want_ids);
    dx_sum += static_cast<double>(loop.exact_distances[i]);
  }
  double recall = recall_sum / kRecallQueries;
  report->Set("recall_at_10", recall, "share");
  report->Set("dx_per_query", dx_sum / kRecallQueries, "count");
  report->Check(exact, "ts_dtw: an answer is not k ids sorted by exact cDTW");
  report->Check(recall >= kMinRecall, "ts_dtw: recall@10 below the floor");

  // Paper fidelity: the optimal cost at 95 % accuracy for k = 1 and 10,
  // at the trained model (embedding cost + required p).
  qse::LadderPoint point = qse::EvaluateLadderPoint(
      *stack->embedder, *stack->scorer, stack->db, oracle, db_ids,
      recall_ids, truth, stack->trained.model.num_rounds());
  report->Set("core.optimal_cost_95_k1",
              static_cast<double>(qse::OptimalCost({point}, 1, 0.95, kDbSize)),
              "count");
  report->Set("core.optimal_cost_95_k10",
              static_cast<double>(qse::OptimalCost({point}, 10, 0.95, kDbSize)),
              "count");
  if (args.trace) AddHostMetrics(report);
}

}  // namespace perfbench
