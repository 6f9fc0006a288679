// One parameterized option-validation suite for every query surface —
// the monolithic engine, the sharded engine, and the async server over
// both (with and without tenant quotas) — replacing the per-class copies
// that used to drift.  Every surface must agree: k = 0, p = 0 and an
// out-of-range priority are InvalidArgument; an empty database is
// FailedPrecondition; an oversized p is clamped to the database size;
// tenant_id is ignored everywhere except a quota-configured server,
// which rejects unknown tenants.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

enum class Surface {
  kMono,
  kSharded,
  kServerMono,
  kServerSharded,
  kServerWithQuotas,
};

std::string SurfaceName(const ::testing::TestParamInfo<Surface>& info) {
  switch (info.param) {
    case Surface::kMono:
      return "Mono";
    case Surface::kSharded:
      return "Sharded";
    case Surface::kServerMono:
      return "ServerMono";
    case Surface::kServerSharded:
      return "ServerSharded";
    case Surface::kServerWithQuotas:
      return "ServerWithQuotas";
  }
  return "Unknown";
}

class RequestValidationTest : public ::testing::TestWithParam<Surface> {
 protected:
  RequestValidationTest()
      : s_(test::MakePlaneOracle(44, 21)),
        db_ids_(test::Iota(40)),
        model_([this] {
          FastMapOptions o;
          o.dims = 2;
          return BuildFastMap(s_, db_ids_, o);
        }()),
        db_(EmbedDatabase(model_, s_, db_ids_)),
        empty_db_(db_.dims()),
        mono_(&model_, &scorer_, &db_, db_ids_),
        empty_mono_(&model_, &scorer_, &empty_db_, {}),
        sharded_(&model_, &scorer_, db_, db_ids_, ShardOptions()),
        empty_sharded_(&model_, &scorer_, ShardOptions()) {
    AsyncServerOptions quota_options;
    quota_options.tenant_quotas = {{"", 0.5}, {"known", 0.5}};
    server_mono_ = std::make_unique<AsyncRetrievalServer>(&mono_);
    server_sharded_ = std::make_unique<AsyncRetrievalServer>(&sharded_);
    server_quotas_ =
        std::make_unique<AsyncRetrievalServer>(&mono_, quota_options);
    server_empty_ = std::make_unique<AsyncRetrievalServer>(&empty_mono_);
  }

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    return o;
  }

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) { return s_.Distance(query_id, id); };
  }

  /// One request through the parameterized surface.
  StatusOr<RetrievalResponse> Call(const RetrievalRequest& request) {
    switch (GetParam()) {
      case Surface::kMono:
        return mono_.Retrieve(request);
      case Surface::kSharded:
        return sharded_.Retrieve(request);
      case Surface::kServerMono:
        return server_mono_->Retrieve(request);
      case Surface::kServerSharded:
        return server_sharded_->Retrieve(request);
      case Surface::kServerWithQuotas:
        return server_quotas_->Retrieve(request);
    }
    return Status::Internal("unreachable");
  }

  /// The same request against an EMPTY database behind the same kind of
  /// surface (quota config is irrelevant to emptiness).
  StatusOr<RetrievalResponse> CallEmpty(const RetrievalRequest& request) {
    switch (GetParam()) {
      case Surface::kMono:
        return empty_mono_.Retrieve(request);
      case Surface::kSharded:
        return empty_sharded_.Retrieve(request);
      case Surface::kServerMono:
      case Surface::kServerSharded:
      case Surface::kServerWithQuotas:
        return server_empty_->Retrieve(request);
    }
    return Status::Internal("unreachable");
  }

  bool IsEngineSurface() const {
    return GetParam() == Surface::kMono || GetParam() == Surface::kSharded;
  }

  /// RetrieveBatch on the engine surfaces (the server has no batch
  /// entry point; its batching is internal).
  StatusOr<std::vector<RetrievalResponse>> CallBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) {
    if (GetParam() == Surface::kMono) {
      return mono_.RetrieveBatch(queries, options);
    }
    return sharded_.RetrieveBatch(queries, options);
  }

  ObjectOracle<Vector> s_;
  std::vector<size_t> db_ids_;
  FastMapModel model_;
  L2Scorer scorer_;
  EmbeddedDatabase db_;
  EmbeddedDatabase empty_db_;
  RetrievalEngine mono_;
  RetrievalEngine empty_mono_;
  ShardedRetrievalEngine sharded_;
  ShardedRetrievalEngine empty_sharded_;
  std::unique_ptr<AsyncRetrievalServer> server_mono_;
  std::unique_ptr<AsyncRetrievalServer> server_sharded_;
  std::unique_ptr<AsyncRetrievalServer> server_quotas_;
  std::unique_ptr<AsyncRetrievalServer> server_empty_;
};

TEST_P(RequestValidationTest, KZeroIsInvalidArgument) {
  auto r = Call({QueryDx(40), RetrievalOptions(0, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, PZeroIsInvalidArgument) {
  auto r = Call({QueryDx(40), RetrievalOptions(1, 0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, OutOfRangePriorityIsInvalidArgument) {
  RetrievalOptions ro(1, 5);
  ro.priority = static_cast<RequestPriority>(7);
  auto r = Call({QueryDx(40), ro});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, EmptyDatabaseIsFailedPrecondition) {
  auto r = CallEmpty({QueryDx(40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(RequestValidationTest, OversizedPIsClampedToDatabaseSize) {
  auto huge = Call({QueryDx(41), RetrievalOptions(1, 1000000)});
  auto full = Call({QueryDx(41), RetrievalOptions(1, db_ids_.size())});
  ASSERT_TRUE(huge.ok() && full.ok());
  EXPECT_EQ(huge->exact_distances, full->exact_distances);
  ASSERT_FALSE(huge->neighbors.empty());
  EXPECT_EQ(huge->neighbors[0].index, full->neighbors[0].index);
  EXPECT_EQ(huge->neighbors[0].score, full->neighbors[0].score);
}

TEST_P(RequestValidationTest, UnknownTenantOnlyRejectedUnderQuotas) {
  RetrievalOptions ro(1, 5);
  ro.tenant_id = "nobody-configured-this";
  auto r = Call({QueryDx(40), ro});
  if (GetParam() == Surface::kServerWithQuotas) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("unknown tenant"),
              std::string::npos);
  } else {
    // Engines and quota-less servers ignore tenancy entirely.
    EXPECT_TRUE(r.ok()) << r.status();
  }
}

TEST_P(RequestValidationTest, KnownTenantAdmitsUnderQuotas) {
  RetrievalOptions ro(1, 5);
  ro.tenant_id = "known";
  auto r = Call({QueryDx(40), ro});
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST_P(RequestValidationTest, BatchValidationMatchesSingle) {
  if (!IsEngineSurface()) GTEST_SKIP() << "engines only";
  auto bad_k = CallBatch({QueryDx(40)}, RetrievalOptions(0, 5));
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  auto bad_p = CallBatch({QueryDx(40)}, RetrievalOptions(1, 0));
  ASSERT_FALSE(bad_p.ok());
  EXPECT_EQ(bad_p.status().code(), StatusCode::kInvalidArgument);
  RetrievalOptions bad_priority(1, 5);
  bad_priority.priority = static_cast<RequestPriority>(9);
  auto bad = CallBatch({QueryDx(40)}, bad_priority);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, InvalidFilterPrecisionIsInvalidArgument) {
  RetrievalOptions ro(1, 5);
  ro.filter_precision = static_cast<FilterPrecision>(99);
  auto r = Call({QueryDx(40), ro});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("filter_precision"), std::string::npos);
}

TEST_P(RequestValidationTest, ReducedPrecisionWithoutShadowsFailsCleanly) {
  // The fixture's databases carry no shadow matrices, so a reduced
  // precision request is a precondition failure (the data cannot serve
  // it), not a validation error (the option itself is legal).
  for (FilterPrecision p :
       {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
    RetrievalOptions ro(1, 5);
    ro.filter_precision = p;
    auto r = Call({QueryDx(40), ro});
    ASSERT_FALSE(r.ok()) << FilterPrecisionName(p);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << FilterPrecisionName(p);
    EXPECT_NE(r.status().message().find("shadow"), std::string::npos)
        << r.status();
  }
}

TEST_P(RequestValidationTest, WantStatsReportsIdenticalTotalsEverywhere) {
  // Satellite of the redesign: stats are a response field with one shape
  // — shard_stats rows sum to the database size and candidates sum to
  // the clamped p on every surface (the monolithic engine is one
  // pseudo-shard).
  RetrievalOptions ro(2, 15);
  ro.want_stats = true;
  auto r = Call({QueryDx(42), ro});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->shard_stats.empty());
  size_t rows = 0, candidates = 0;
  for (const ShardScanStats& s : r->shard_stats) {
    rows += s.rows;
    candidates += s.candidates;
  }
  EXPECT_EQ(rows, db_ids_.size());
  EXPECT_EQ(candidates, std::min<size_t>(15, db_ids_.size()));

  // Without want_stats the field stays empty — no silent cost.
  auto quiet = Call({QueryDx(42), RetrievalOptions(2, 15)});
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->shard_stats.empty());
}

INSTANTIATE_TEST_SUITE_P(AllSurfaces, RequestValidationTest,
                         ::testing::Values(Surface::kMono, Surface::kSharded,
                                           Surface::kServerMono,
                                           Surface::kServerSharded,
                                           Surface::kServerWithQuotas),
                         SurfaceName);

}  // namespace
}  // namespace qse
