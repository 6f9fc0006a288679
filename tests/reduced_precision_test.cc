// Reduced-precision filter scans end to end: requests carrying
// FilterPrecision::kFilter32 / kFilter8 against databases that carry the
// matching shadow matrices.  The structural invariants under test:
//
//  * Refine is always exact — whatever precision filtered, every
//    reported neighbor score is the true distance dx(query, id).
//  * At p = n the filter step cannot drop anything, so EVERY precision
//    returns results identical to exact64 (reduced precision only
//    perturbs which top-p candidates survive a p < n cut).
//  * kFilter32 is deterministic across engines: the monolithic and
//    sharded engines see identical float32 shadows and bit-identical
//    kernels, so their responses match at any p.  (kFilter8 has
//    per-shard quantization scales, so its cross-engine guarantee is
//    the p = n one above.)
//  * Shadow maintenance is live: inserts after construction keep serving
//    reduced-precision requests correctly on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr size_t kDb = 60;
constexpr size_t kQueries = 6;

struct PrecisionStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  ShardedRetrievalEngine sharded;

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    o.filter_shadows = kShadowFloat32 | kShadowInt8;
    return o;
  }

  PrecisionStack()
      : oracle(test::MakePlaneOracle(kDb + kQueries, 7)),
        db_ids([] {
          std::vector<size_t> ids = test::Iota(kDb);
          return ids;
        }()),
        model([this] {
          FastMapOptions o;
          o.dims = 4;
          return BuildFastMap(oracle, db_ids, o);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)),
        mono([this] {
          db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
          return RetrievalEngine(&model, &scorer, &db, db_ids);
        }()),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

void ExpectSameResponses(const RetrievalResponse& a,
                         const RetrievalResponse& b,
                         const std::string& context) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index)
        << context << " i=" << i;
    EXPECT_EQ(a.neighbors[i].score, b.neighbors[i].score)
        << context << " i=" << i;
  }
}

TEST(ReducedPrecisionTest, NeighborScoresAreExactWhateverThePrecision) {
  PrecisionStack s;
  for (FilterPrecision precision :
       {FilterPrecision::kExact64, FilterPrecision::kFilter32,
        FilterPrecision::kFilter8}) {
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      RetrievalOptions ro(3, 20);
      ro.filter_precision = precision;
      auto r = s.mono.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(r.ok()) << r.status();
      ASSERT_FALSE(r->neighbors.empty());
      for (const ScoredIndex& n : r->neighbors) {
        size_t id = s.mono.db_id_of(n.index);
        EXPECT_EQ(n.score, s.oracle.Distance(q, id))
            << FilterPrecisionName(precision) << " q=" << q;
      }
    }
  }
}

TEST(ReducedPrecisionTest, FullScanPEqualsNMatchesExactOnBothEngines) {
  PrecisionStack s;
  for (size_t q = kDb; q < kDb + kQueries; ++q) {
    RetrievalOptions exact(3, kDb);
    exact.filter_precision = FilterPrecision::kExact64;
    auto want_mono = s.mono.Retrieve({s.QueryDx(q), exact});
    auto want_sharded = s.sharded.Retrieve({s.QueryDx(q), exact});
    ASSERT_TRUE(want_mono.ok() && want_sharded.ok());
    for (FilterPrecision precision :
         {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
      RetrievalOptions ro(3, kDb);
      ro.filter_precision = precision;
      std::string context = std::string(FilterPrecisionName(precision)) +
                            " q=" + std::to_string(q);
      auto mono = s.mono.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(mono.ok()) << mono.status();
      ExpectSameResponses(*mono, *want_mono, "mono " + context);
      auto sharded = s.sharded.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      ExpectSameResponses(*sharded, *want_sharded, "sharded " + context);
    }
  }
}

TEST(ReducedPrecisionTest, Filter32AgreesAcrossEnginesAtAnyP) {
  PrecisionStack s;
  for (size_t p : {size_t{5}, size_t{17}, size_t{40}}) {
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      RetrievalOptions ro(3, p);
      ro.filter_precision = FilterPrecision::kFilter32;
      auto mono = s.mono.Retrieve({s.QueryDx(q), ro});
      auto sharded = s.sharded.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(mono.ok() && sharded.ok());
      // Neighbor indices are already database ids on the sharded engine;
      // translate the mono ones before comparing.
      ASSERT_EQ(mono->neighbors.size(), sharded->neighbors.size());
      for (size_t i = 0; i < mono->neighbors.size(); ++i) {
        EXPECT_EQ(s.mono.db_id_of(mono->neighbors[i].index),
                  sharded->neighbors[i].index)
            << "p=" << p << " q=" << q << " i=" << i;
        EXPECT_EQ(mono->neighbors[i].score, sharded->neighbors[i].score)
            << "p=" << p << " q=" << q << " i=" << i;
      }
    }
  }
}

TEST(ReducedPrecisionTest, InsertsKeepShadowsServingOnBothEngines) {
  PrecisionStack s;
  // Half the database again, inserted online after construction — the
  // shadow matrices must follow every append (including forced
  // re-quantizations) on the mono engine and on whichever shard each
  // insert lands in.
  for (size_t id = kDb; id < kDb + kQueries; ++id) {
    ASSERT_TRUE(s.mono.Insert(id, s.QueryDx(id)).ok());
    ASSERT_TRUE(s.sharded.Insert(id, s.QueryDx(id)).ok());
  }
  const size_t n = kDb + kQueries;
  for (FilterPrecision precision :
       {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
    RetrievalOptions ro(1, n);
    ro.filter_precision = precision;
    // Query each inserted object for itself: distance 0 is unbeatable,
    // so the top neighbor must be the fresh row — through the shadows.
    for (size_t id = kDb; id < n; ++id) {
      auto mono = s.mono.Retrieve({s.QueryDx(id), ro});
      ASSERT_TRUE(mono.ok()) << mono.status();
      EXPECT_EQ(s.mono.db_id_of(mono->neighbors[0].index), id)
          << FilterPrecisionName(precision);
      EXPECT_EQ(mono->neighbors[0].score, 0.0);
      auto sharded = s.sharded.Retrieve({s.QueryDx(id), ro});
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      EXPECT_EQ(sharded->neighbors[0].index, id)
          << FilterPrecisionName(precision);
      EXPECT_EQ(sharded->neighbors[0].score, 0.0);
    }
  }
}

TEST(ReducedPrecisionTest, SameResultKeySeparatesPrecisions) {
  RetrievalOptions a(3, 20), b(3, 20);
  EXPECT_TRUE(a.SameResultKey(b));
  b.filter_precision = FilterPrecision::kFilter32;
  EXPECT_FALSE(a.SameResultKey(b));
  a.filter_precision = FilterPrecision::kFilter32;
  EXPECT_TRUE(a.SameResultKey(b));
}

TEST(ReducedPrecisionTest, ShardedConstructionWithoutShadowsRejectsReduced) {
  PrecisionStack s;
  ShardedEngineOptions no_shadows;
  no_shadows.num_shards = 2;
  ShardedRetrievalEngine bare(&s.model, &s.scorer, s.db, s.db_ids,
                              no_shadows);
  RetrievalOptions ro(1, 5);
  ro.filter_precision = FilterPrecision::kFilter8;
  auto r = bare.Retrieve({s.QueryDx(kDb), ro});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("filter_shadows"), std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace qse
