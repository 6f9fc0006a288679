// Property tests for snapshot encode/decode/install at the edges of the
// state space: dimensionless and empty databases, single-row databases
// left over from removes, every filter-shadow combination, and the
// requant-on-overflow state whose int8 scales are mutation-history-
// dependent.  Every roundtrip asserts memcmp identity — a snapshot is a
// bit-exact image, not an approximation.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/persist/snapshot.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::DxOfObject;
using test::ExpectDbsIdentical;
using test::kLineDims;
using test::LineEmbedder;

/// Encode -> decode -> install into `out`, asserting the decoded header
/// fields survived too.  `out` must have matching dims (or the image
/// must be empty and shadowless).
void RoundTripInto(const EmbeddedDatabase& source, EmbeddedDatabase* out,
                   const std::string& what) {
  SCOPED_TRACE(what);
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(77, "blob", {pin.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(77u, decoded->cut_seq);
  EXPECT_EQ("blob", decoded->model_blob);
  ASSERT_EQ(1u, decoded->dbs.size());
  Status installed = InstallSnapshotDb(decoded->dbs[0], out);
  ASSERT_TRUE(installed.ok()) << installed;
  ExpectDbsIdentical(source, *out, what);
}

TEST(SnapshotRoundTrip, DimensionlessEmptyDatabase) {
  EmbeddedDatabase source;  // dims() == 0.
  EmbeddedDatabase restored;
  RoundTripInto(source, &restored, "dims == 0, no rows");
}

TEST(SnapshotRoundTrip, EmptyDatabaseWithDims) {
  EmbeddedDatabase source(kLineDims);
  EmbeddedDatabase restored(kLineDims);
  RoundTripInto(source, &restored, "empty, dims set");
}

TEST(SnapshotRoundTrip, EmptyShadowlessImageClearsPopulatedDatabase) {
  EmbeddedDatabase source(kLineDims);
  EmbeddedDatabase restored(kLineDims);
  restored.Append(Vector(kLineDims, 0.5), 9);
  restored.Append(Vector(kLineDims, 0.25), 10);
  RoundTripInto(source, &restored, "empty image over populated db");
  EXPECT_EQ(0u, restored.size());
}

TEST(SnapshotRoundTrip, SingleRowAfterRemoves) {
  // Drive through the engine so removes exercise the swap path the
  // id column depends on; what must survive is the survivor's row AND
  // its database id.
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase source(kLineDims);
  RetrievalEngine engine(&embedder, &scorer, &source, {});
  for (size_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(engine.Insert(id, DxOfObject(id)).ok());
  }
  for (size_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(engine.Remove(id).ok());
  }
  ASSERT_EQ(1u, source.size());
  EmbeddedDatabase restored(kLineDims);
  RoundTripInto(source, &restored, "n == 1 after removes");
  EXPECT_EQ(4u, restored.ids()[0]);
}

TEST(SnapshotRoundTrip, EveryShadowCombination) {
  const uint32_t masks[] = {0u, kShadowFloat32, kShadowInt8,
                            kShadowFloat32 | kShadowInt8};
  for (uint32_t mask : masks) {
    EmbeddedDatabase source(kLineDims);
    for (size_t id = 0; id < 10; ++id) {
      source.Append(Vector(kLineDims, test::XOf(id)), id);
    }
    if (mask != 0) source.EnableFilterShadows(mask);
    EmbeddedDatabase restored(kLineDims);
    RoundTripInto(source, &restored,
                  "shadow mask " + std::to_string(mask));
    EXPECT_EQ(mask, restored.snapshot().view().shadows());
  }
}

TEST(SnapshotRoundTrip, RequantOnOverflowScalesRestoredVerbatim) {
  // Build a database whose int8 scales could NOT be reproduced by
  // rebuilding from the rows: an appended outlier forces the 1.25x
  // headroom requant, while a fresh EnableFilterShadows fits at 1.0x.
  constexpr size_t kDims = 4;
  EmbeddedDatabase source(kDims);
  for (size_t id = 0; id < 6; ++id) {
    source.Append(Vector(kDims, 0.25 + 0.05 * static_cast<double>(id)), id);
  }
  source.EnableFilterShadows(kShadowInt8);
  source.Append(Vector(kDims, 100.0), 99);  // Overflow: requant with headroom.
  ASSERT_EQ(7u, source.size());

  EmbeddedDatabase restored(kDims);
  RoundTripInto(source, &restored, "post-requant state");

  // The same rows quantized from scratch get DIFFERENT scales — which is
  // exactly why restore must install the serialized ones, not rebuild.
  EmbeddedDatabase rebuilt(kDims);
  {
    EmbeddedDatabase::Snapshot pin = source.snapshot();
    const EmbeddedDatabase::View& view = pin.view();
    for (size_t i = 0; i < view.size(); ++i) {
      rebuilt.Append(view.row(i), view.id_of(i));
    }
  }
  rebuilt.EnableFilterShadows(kShadowInt8);
  EXPECT_NE(0, std::memcmp(restored.snapshot().view().i8_scales(),
                           rebuilt.snapshot().view().i8_scales(),
                           kDims * sizeof(float)));
}

TEST(SnapshotRoundTrip, MultiDbImagePreservesOrder) {
  EmbeddedDatabase a(kLineDims), b(kLineDims);
  for (size_t id = 0; id < 4; ++id) {
    a.Append(Vector(kLineDims, test::XOf(id)), id);
  }
  b.Append(Vector(kLineDims, test::XOf(100)), 100);
  EmbeddedDatabase::Snapshot pa = a.snapshot();
  EmbeddedDatabase::Snapshot pb = b.snapshot();
  const std::string bytes =
      EncodeSnapshot(5, "", {pa.view(), pb.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(2u, decoded->dbs.size());
  EmbeddedDatabase ra(kLineDims), rb(kLineDims);
  ASSERT_TRUE(InstallSnapshotDb(decoded->dbs[0], &ra).ok());
  ASSERT_TRUE(InstallSnapshotDb(decoded->dbs[1], &rb).ok());
  ExpectDbsIdentical(a, ra, "db 0");
  ExpectDbsIdentical(b, rb, "db 1");
}

TEST(SnapshotRoundTrip, InstallRejectsDimsMismatchOnNonEmptyImage) {
  EmbeddedDatabase source(kLineDims);
  source.Append(Vector(kLineDims, 0.5), 1);
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(1, "", {pin.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EmbeddedDatabase wrong_dims(kLineDims + 1);
  Status installed = InstallSnapshotDb(decoded->dbs[0], &wrong_dims);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, installed.code());
}

TEST(SnapshotRoundTrip, FileRoundTripAndMissingFile) {
  const std::string path =
      test::FreshDir("snapshot_roundtrip_file") + "/snapshot.qse";

  StatusOr<SnapshotContents> missing = ReadSnapshotFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(StatusCode::kNotFound, missing.status().code());

  EmbeddedDatabase source(kLineDims);
  source.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  for (size_t id = 0; id < 12; ++id) {
    source.Append(Vector(kLineDims, test::XOf(id)), id);
  }
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(12, "model", {pin.view()});
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());

  StatusOr<SnapshotContents> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(12u, read->cut_seq);
  EXPECT_EQ("model", read->model_blob);
  EmbeddedDatabase restored(kLineDims);
  ASSERT_TRUE(InstallSnapshotDb(read->dbs[0], &restored).ok());
  ExpectDbsIdentical(source, restored, "file roundtrip");
}

}  // namespace
}  // namespace persist
}  // namespace qse
