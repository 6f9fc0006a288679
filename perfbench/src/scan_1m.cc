// scan_1m: paper-scale, read-only filter scan.  One million rows of
// d >= 64 float64 (larger than L3) split over two in-process shards, a
// ShardedRetrievalEngine composed over them, and the async server
// micro-batching a closed loop of 8 outstanding requests.  Bound by
// memory bandwidth.
#include <algorithm>
#include <memory>
#include <numeric>

#include "perfbench/src/analysis.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/vectors.h"
#include "perfbench/src/workloads.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

constexpr size_t kDbSize = 1000000;
constexpr size_t kNumQueries = 2000;
constexpr size_t kRecallQueries = 200;
// Answers compared id for id with a monolithic engine.
constexpr size_t kMonoChecks = 16;
constexpr size_t kShards = 2;
constexpr size_t kWindow = 8;
// Two scanning threads and the generator leave a core for the batcher
// and the system, so a preempted scan does not stall a whole batch.
constexpr size_t kRetrieveThreads = 2;
constexpr size_t kK = 10;
constexpr size_t kP = 100;
// A working pipeline scores 0.6-0.95 here, a broken one (wrong ids, lost
// rows) near 0.
constexpr double kMinRecall = 0.3;

struct Stack {
  qse::BoostMapArtifacts trained;
  std::unique_ptr<qse::QseEmbedderAdapter> embedder;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer;
  std::vector<std::vector<size_t>> shard_ids;
  std::vector<std::unique_ptr<qse::EmbeddedDatabase>> dbs;
  std::vector<std::shared_ptr<qse::RetrievalEngine>> engines;
  std::unique_ptr<qse::ShardedRetrievalEngine> sharded;
  std::unique_ptr<TracedBackend> traced_front;
  std::unique_ptr<qse::AsyncRetrievalServer> server;
};

qse::AsyncServerOptions ServerOptions() {
  qse::AsyncServerOptions options;
  options.max_batch = kWindow;
  options.num_workers = 1;
  options.retrieve_threads = kRetrieveThreads;
  // Long enough for the whole window, resubmitted as answers arrive, to
  // land in one batch: every batch then holds kWindow requests.
  options.max_batch_delay = std::chrono::microseconds(2000);
  return options;
}

// Drops the serving stack, keeping the model and the embedded shards.
void StopServing(Stack* stack) {
  stack->server.reset();
  stack->traced_front.reset();
  stack->sharded.reset();
  stack->engines.clear();
}

// Builds the serving stack over `embedder`/`scorer` and the embedded
// shards; the traced run passes decorators and wraps every backend.
void Serve(Stack* stack, const qse::Embedder* embedder,
           const qse::FilterScorer* scorer, bool traced) {
  StopServing(stack);
  std::vector<std::shared_ptr<qse::RetrievalBackend>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    auto engine = std::make_shared<qse::RetrievalEngine>(
        embedder, scorer, stack->dbs[s].get(), stack->shard_ids[s]);
    stack->engines.push_back(engine);
    if (traced) {
      shards.push_back(std::make_shared<TracedBackend>(
          engine.get(), BackendKinds{}, static_cast<int32_t>(s)));
    } else {
      shards.push_back(engine);
    }
  }
  stack->sharded =
      std::make_unique<qse::ShardedRetrievalEngine>(embedder, shards);
  const qse::RetrievalBackend* front = stack->sharded.get();
  if (traced) {
    stack->traced_front =
        std::make_unique<TracedBackend>(stack->sharded.get(), BackendKinds{});
    front = stack->traced_front.get();
  }
  stack->server =
      std::make_unique<qse::AsyncRetrievalServer>(front, ServerOptions());
}

std::unique_ptr<Stack> SetUp(const VectorData& data, uint64_t seed,
                             Report* layer_report) {
  auto stack = std::make_unique<Stack>();
  stack->trained = TrainVectorModel(data, kDbSize, seed, layer_report);
  stack->embedder =
      std::make_unique<qse::QseEmbedderAdapter>(&stack->trained.model);
  stack->scorer =
      std::make_unique<qse::QuerySensitiveScorer>(&stack->trained.model);
  stack->shard_ids.resize(kShards);
  for (size_t id = 0; id < kDbSize; ++id) {
    stack->shard_ids[qse::HashShardOf(id, kShards)].push_back(id);
  }
  uint64_t start = NowNs();
  for (size_t s = 0; s < kShards; ++s) {
    stack->dbs.push_back(std::make_unique<qse::EmbeddedDatabase>(
        qse::EmbedDatabase(*stack->embedder, data, stack->shard_ids[s])));
  }
  if (layer_report != nullptr) {
    layer_report->Set("core.db_embed_s", SecondsSince(start), "s");
  }
  Serve(stack.get(), stack->embedder.get(), stack->scorer.get(), false);
  return stack;
}

qse::DxToDatabaseFn QueryDx(const VectorData& data, size_t query) {
  return [&data, query](size_t id) { return data.Distance(query, id); };
}

}  // namespace

void RunScan1m(const Args& args, Report* report) {
  VectorData data(kDbSize / kPointsPerCluster, kDatabaseSeed);
  data.AddPoints(kDbSize, kDatabaseSeed);
  data.AddPoints(kNumQueries, args.seed);
  auto make_dx = [&data](size_t q, uint64_t) {
    return QueryDx(data, kDbSize + q);
  };

  std::unique_ptr<Stack> stack;
  if (args.trace) {
    stack = SetUp(data, kDatabaseSeed, report);
  } else {
    std::vector<double> setup_s;
    for (int i = 0; i < 3; ++i) {
      stack.reset();
      uint64_t start = NowNs();
      stack = SetUp(data, kDatabaseSeed, nullptr);
      setup_s.push_back(SecondsSince(start));
    }
    report->Set("setup_s", Median(setup_s), "s");
  }
  const size_t dims = stack->trained.model.dims();
  report->Note("sizes: n=" + std::to_string(kDbSize) +
               " d=" + std::to_string(dims) + " shards=" +
               std::to_string(kShards) + " window=" + std::to_string(kWindow) +
               " k=" + std::to_string(kK) + " p=" + std::to_string(kP));
  report->Check(dims == kServedDims, "scan_1m: the model has fewer than 64 dims");

  qse::RetrievalOptions options(kK, kP);
  // Warm-up: one batch, untimed.
  RunClosedLoop(stack->server.get(), options, kNumQueries, kWindow, 0, kWindow,
                0, 0, false, make_dx);
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  RssSampler rss;
  ClosedLoopResult loop = RunClosedLoop(
      stack->server.get(), options, kNumQueries, kWindow, untraced_seconds,
      kRecallQueries, kRecallQueries, 1, false, make_dx);
  report->attempted += loop.attempted;
  report->failed += loop.failed;
  AddQueryMetrics(loop.latency_ms, loop.done_s, loop.seconds, report);
  report->Set("rss_mb", rss.Stop(), "MB");
  stack->server->Shutdown();
  report->Set("server.shed", static_cast<double>(stack->server->stats().shed),
              "count");

  if (args.trace) {
    TracedEmbedder embedder(stack->embedder.get());
    TracedScorer scorer(stack->scorer.get());
    Serve(stack.get(), &embedder, &scorer, true);
    tracer::Reset();
    ClosedLoopResult traced = RunClosedLoop(
        stack->server.get(), options, kNumQueries, kWindow, args.seconds / 2,
        0, 0, 1, true, [&data](size_t q, uint64_t request_id) {
          return qse::DxToDatabaseFn(
              TracedDx{QueryDx(data, kDbSize + q), request_id});
        });
    stack->server->Shutdown();
    report->attempted += traced.attempted;
    report->failed += traced.failed;
    double traced_ms =
        AnalyzeTrace(tracer::Collect(), tracer::CollectBatches(), report);
    report->Set("obs.trace_overhead_share",
                traced_ms / Mean(loop.latency_ms) - 1, "share");
    // The decorators die with this scope; so must everything using them.
    StopServing(stack.get());
  }

  // Recall of the async answers against brute force over all rows.
  std::vector<size_t> all_ids(kDbSize);
  std::iota(all_ids.begin(), all_ids.end(), 0);
  std::vector<std::vector<size_t>> truth(kRecallQueries);
  qse::ParallelForGrain(0, kRecallQueries, 1, [&](size_t i) {
    truth[i] = BruteForceKnn(data, kDbSize + i, all_ids, kK);
  });
  double recall_sum = 0, dx_sum = 0;
  for (size_t i = 0; i < kRecallQueries; ++i) {
    recall_sum += RecallOf(loop.answers[i], truth[i]);
    dx_sum += static_cast<double>(loop.exact_distances[i]);
  }
  double recall = recall_sum / kRecallQueries;
  report->Set("recall_at_10", recall, "share");
  report->Set("dx_per_query", dx_sum / kRecallQueries, "count");
  report->Check(recall >= kMinRecall, "scan_1m: recall@10 below the floor");

  // Sampled async/sharded answers equal a monolithic engine's, id for id.
  // The shards are dropped first so the two copies never coexist.
  StopServing(stack.get());
  stack->dbs.clear();
  qse::EmbeddedDatabase mono_db =
      qse::EmbedDatabase(*stack->embedder, data, all_ids);
  qse::RetrievalEngine mono(stack->embedder.get(), stack->scorer.get(),
                            &mono_db, all_ids);
  bool same = true;
  for (size_t c = 0; c < kMonoChecks; ++c) {
    size_t i = c * (kRecallQueries / kMonoChecks);
    auto answer = mono.Retrieve({QueryDx(data, kDbSize + i), options});
    std::vector<size_t> ids;
    if (answer.ok()) {
      for (const qse::ScoredIndex& n : answer->neighbors) {
        ids.push_back(mono.db_id_of(n.index));
      }
    }
    same = same && answer.ok() && ids == loop.answers[i];
  }
  report->Check(same, "scan_1m: sharded answers differ from the mono engine");
  if (args.trace) AddHostMetrics(report);
}

}  // namespace perfbench
