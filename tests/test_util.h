#ifndef QSE_TESTS_TEST_UTIL_H_
#define QSE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <system_error>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace qse {
namespace test {

/// A new, empty directory under gtest's temp dir named `name` plus a
/// mkdtemp suffix, so tests running in parallel processes (ctest -j) or
/// from two checkouts on one host never share one.  Removed with its
/// contents when the process exits.
inline std::string FreshDir(const std::string& name) {
  struct Created {
    std::vector<std::string> dirs;
    ~Created() {
      for (const std::string& dir : dirs) {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Created created;
  std::string dir = ::testing::TempDir() + "/" + name + "_XXXXXX";
  QSE_CHECK_MSG(::mkdtemp(dir.data()) != nullptr, "mkdtemp " << dir);
  created.dirs.push_back(dir);
  return dir;
}

/// Shorthand for the common k/p/num_threads envelope in tests.
inline RetrievalOptions Opts(size_t k, size_t p, size_t num_threads = 0) {
  RetrievalOptions options(k, p);
  options.num_threads = num_threads;
  return options;
}

/// Uniform random points in the unit square under L2 — the toy space of
/// the paper's Fig. 1, used across the core test suites.
inline ObjectOracle<Vector> MakePlaneOracle(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return ObjectOracle<Vector>(std::move(pts), L2Distance);
}

/// [0, n) as ids.
inline std::vector<size_t> Iota(size_t n, size_t start = 0) {
  std::vector<size_t> ids(n);
  std::iota(ids.begin(), ids.end(), start);
  return ids;
}

/// Full bit-identity between two databases: float64 matrix, id column,
/// and — when present — both shadow matrices and the int8 scales.
inline void ExpectDbsIdentical(const EmbeddedDatabase& a,
                               const EmbeddedDatabase& b,
                               const std::string& what) {
  SCOPED_TRACE(what);
  EmbeddedDatabase::Snapshot sa = a.snapshot();
  EmbeddedDatabase::Snapshot sb = b.snapshot();
  const EmbeddedDatabase::View& va = sa.view();
  const EmbeddedDatabase::View& vb = sb.view();
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_EQ(va.dims(), vb.dims());
  const size_t cells = va.size() * va.dims();
  // An empty database's buffers are null, and memcmp with a null pointer
  // is undefined even for zero bytes.
  auto same_bytes = [](const void* x, const void* y, size_t bytes) {
    return bytes == 0 || std::memcmp(x, y, bytes) == 0;
  };
  EXPECT_TRUE(same_bytes(va.data(), vb.data(), cells * sizeof(double)));
  EXPECT_TRUE(same_bytes(va.ids(), vb.ids(), va.size() * sizeof(size_t)));
  ASSERT_EQ(va.shadows(), vb.shadows());
  if (va.has_f32()) {
    EXPECT_TRUE(
        same_bytes(va.data_f32(), vb.data_f32(), cells * sizeof(float)));
  }
  if (va.has_i8()) {
    EXPECT_TRUE(same_bytes(va.data_i8(), vb.data_i8(), cells));
    EXPECT_TRUE(same_bytes(va.i8_scales(), vb.i8_scales(),
                           va.dims() * sizeof(float)));
  }
}

}  // namespace test
}  // namespace qse

#endif  // QSE_TESTS_TEST_UTIL_H_
