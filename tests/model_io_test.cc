// Serialization round-trips for the baseline embedding models (the core
// QuerySensitiveEmbedding round-trip lives in qs_embedding_test.cc).
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "src/embedding/fastmap.h"
#include "tests/test_util.h"

namespace qse {
namespace {

TEST(FastMapIoTest, SaveLoadRoundTrip) {
  auto oracle = test::MakePlaneOracle(50, 1);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(oracle, test::Iota(50), options);
  std::string path = testing::TempDir() + "/qse_fastmap_test.bin";
  ASSERT_TRUE(model.Save(path).ok());
  auto loaded = FastMapModel::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dims(), model.dims());
  for (size_t q = 40; q < 50; ++q) {
    auto dx = [&](size_t id) {
      return id == q ? 0.0 : oracle.Distance(q, id);
    };
    Vector a = model.Embed(dx);
    Vector b = loaded->Embed(dx);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
  std::remove(path.c_str());
}

TEST(FastMapIoTest, LoadMissingFails) {
  auto loaded = FastMapModel::Load("/nonexistent/fm.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(FastMapIoTest, LoadRejectsWrongMagic) {
  std::string path = testing::TempDir() + "/qse_fastmap_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a model";
  }
  auto loaded = FastMapModel::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qse
