#include "src/retrieval/embedded_database.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace qse {
namespace {

TEST(EmbeddedDatabaseTest, StartsEmpty) {
  EmbeddedDatabase db(4);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.dims(), 4u);
  EXPECT_TRUE(db.empty());
}

TEST(EmbeddedDatabaseTest, AppendStoresRowsContiguously) {
  EmbeddedDatabase db(3);
  EXPECT_EQ(db.Append({1, 2, 3}), 0u);
  EXPECT_EQ(db.Append({4, 5, 6}), 1u);
  EXPECT_EQ(db.size(), 2u);
  // One flat buffer, row-major.
  EXPECT_EQ(db.data(), (Aligned64Vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(db.row(1)[0], 4.0);
  EXPECT_EQ(db.row(1) - db.row(0), 3);  // Adjacent rows, no gaps.
}

TEST(EmbeddedDatabaseTest, FromRowsRoundTripsThroughRowVector) {
  std::vector<Vector> rows = {{0.5, -1}, {2, 3}, {4, 5}};
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  ASSERT_EQ(db.size(), 3u);
  ASSERT_EQ(db.dims(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(db.RowVector(i), rows[i]);
  }
}

TEST(EmbeddedDatabaseTest, SetRowOverwritesInPlace) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 1}, {2, 2}});
  db.SetRow(0, {9, 8});
  EXPECT_EQ(db.RowVector(0), (Vector{9, 8}));
  EXPECT_EQ(db.RowVector(1), (Vector{2, 2}));
}

TEST(EmbeddedDatabaseTest, SwapRemoveMiddleMovesLastRow) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  size_t moved_from = db.SwapRemove(1);
  EXPECT_EQ(moved_from, 3u);  // Former last row now lives at slot 1.
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.RowVector(1), (Vector{3, 3}));
  EXPECT_EQ(db.RowVector(2), (Vector{2, 2}));
}

TEST(EmbeddedDatabaseTest, SwapRemoveLastMovesNothing) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0, 0}, {1, 1}});
  size_t moved_from = db.SwapRemove(1);
  EXPECT_EQ(moved_from, 1u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.RowVector(0), (Vector{0, 0}));
}

TEST(EmbeddedDatabaseTest, ResizeZeroFillsNewRows) {
  EmbeddedDatabase db(2);
  db.Resize(3);
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.RowVector(2), (Vector{0, 0}));
  db.mutable_row(1)[0] = 7;
  EXPECT_EQ(db.RowVector(1), (Vector{7, 0}));
}

TEST(EmbeddedDatabaseTest, AppendBorrowedRowMayAliasOwnBuffer) {
  // Append(const double*) must survive a source pointing into this
  // database's own buffer even when the append forces a reallocation.
  EmbeddedDatabase db(2);
  db.Append({1, 2});
  for (int i = 0; i < 100; ++i) {
    size_t row = db.Append(db.row(db.size() - 1));
    EXPECT_EQ(row, static_cast<size_t>(i) + 1);
  }
  ASSERT_EQ(db.size(), 101u);
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.RowVector(i), (Vector{1, 2})) << i;
  }
}

TEST(EmbeddedDatabaseTest, ReserveOnDimensionlessDatabaseIsSafeNoOp) {
  // Regression: Reserve on a dims() == 0 database used to reserve zero
  // bytes and still walk the hugepage-advise path.  It must be a true
  // no-op: no allocation, and the database stays fully usable.
  EmbeddedDatabase db;
  ASSERT_EQ(db.dims(), 0u);
  db.Reserve(1u << 20);
  EXPECT_EQ(db.data().capacity(), 0u);
  EXPECT_TRUE(db.empty());
  // FromRows({}) funnels through the same path (dims 0, Reserve(0)).
  EmbeddedDatabase empty = EmbeddedDatabase::FromRows({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.dims(), 0u);
}

TEST(EmbeddedDatabaseTest, ReserveGrowsCapacityOnce) {
  EmbeddedDatabase db(3);
  db.Reserve(100);
  size_t cap = db.data().capacity();
  EXPECT_GE(cap, 300u);
  // A smaller (or equal) reservation must not touch the buffer again.
  db.Reserve(50);
  EXPECT_EQ(db.data().capacity(), cap);
  db.Append({1, 2, 3});
  EXPECT_EQ(db.RowVector(0), (Vector{1, 2, 3}));
}

TEST(EmbeddedDatabaseTest, AppendAfterResizeKeepsData) {
  EmbeddedDatabase db(2);
  db.Resize(1);
  db.SetRow(0, {1, 2});
  EXPECT_EQ(db.Append({3, 4}), 1u);
  EXPECT_EQ(db.data(), (Aligned64Vector<double>{1, 2, 3, 4}));
}

// --- Epoch snapshots: what pinned readers observe under mutation --------

TEST(EmbeddedDatabaseTest, SnapshotIsImmuneToAppend) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 1}, {2, 2}});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  // Append enough to force a copy-on-write reallocation.
  for (int i = 0; i < 64; ++i) db.Append({9, 9});
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->row(0)[0], 1.0);
  EXPECT_EQ(snap->row(1)[1], 2.0);
  EXPECT_EQ(db.size(), 66u);
  // A fresh snapshot sees the appended state.
  EXPECT_EQ(db.snapshot()->size(), 66u);
}

TEST(EmbeddedDatabaseTest, SnapshotIsImmuneToInteriorRemove) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  db.SwapRemove(1);  // Interior: swaps {3,3} into slot 1 via CoW.
  // The pinned reader still sees the pre-remove layout, untouched.
  ASSERT_EQ(snap->size(), 4u);
  EXPECT_EQ(snap->row(1)[0], 1.0);
  EXPECT_EQ(snap->row(3)[0], 3.0);
  // The current state has the swapped layout.
  EXPECT_EQ(db.RowVector(1), (Vector{3, 3}));
  EXPECT_EQ(db.size(), 3u);
}

TEST(EmbeddedDatabaseTest, SwapRemoveLastShortCircuitsWithoutCopy) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}});
  const double* before = db.snapshot()->data();
  size_t moved_from = db.SwapRemove(2);
  EXPECT_EQ(moved_from, 2u);  // Nothing moved.
  // Same buffer republished with a smaller count: the O(1) fast path,
  // not a copy-on-write (an interior remove would swap buffers).
  EXPECT_EQ(db.snapshot()->data(), before);
  EXPECT_EQ(db.size(), 2u);
  size_t interior = db.SwapRemove(0);
  EXPECT_EQ(interior, 1u);
  EXPECT_NE(db.snapshot()->data(), before);
  EXPECT_EQ(db.RowVector(0), (Vector{1, 1}));
}

TEST(EmbeddedDatabaseTest, VacatedLastSlotIsNotRewrittenUnderAPin) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0, 0}, {1, 1}});
  db.Reserve(8);  // Plenty of capacity: only the pin forces the copy.
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  ASSERT_EQ(snap->size(), 2u);
  db.SwapRemove(1);      // O(1) shrink; slot 1 still pinned by `snap`.
  db.Append({7, 7}, 7);  // Would land in slot 1 — must copy instead.
  // The pinned reader's row 1 is intact...
  EXPECT_EQ(snap->row(1)[0], 1.0);
  EXPECT_EQ(snap->row(1)[1], 1.0);
  // ...and the new state has the fresh row.
  EXPECT_EQ(db.RowVector(1), (Vector{7, 7}));
  EXPECT_EQ(db.id_of(1), 7u);
}

TEST(EmbeddedDatabaseTest, AppendRemoveLastCyclesKeepCapacityBounded) {
  // Remove-of-the-last-row leaves a published slot below high_water, so
  // the next Append must copy — but only into the current capacity, not
  // a doubled one, or each cycle doubles it until allocation fails.
  for (uint32_t shadows : {0u, kShadowFloat32 | kShadowInt8}) {
    EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0, 0}, {1, 1}});
    if (shadows != 0) db.EnableFilterShadows(shadows);
    size_t peak_rows = db.size();
    for (size_t cycle = 0; cycle < 200; ++cycle) {
      const double v = static_cast<double>(cycle % 7);
      db.Append({v, -v}, 100 + cycle);
      peak_rows = std::max(peak_rows, db.size());
      const size_t last = db.size() - 1;
      ASSERT_EQ(db.SwapRemove(last), last);
      ASSERT_LE(db.capacity(), 2 * std::max<size_t>(peak_rows, 4))
          << "cycle " << cycle << " shadows " << shadows;
    }
    EXPECT_EQ(db.size(), 2u);
    EXPECT_EQ(db.RowVector(1), (Vector{1, 1}));
    EXPECT_EQ(db.filter_shadows(), shadows);
  }
}

TEST(EmbeddedDatabaseTest, IdColumnFollowsMutations) {
  EmbeddedDatabase db(1);
  db.Append({0.5}, 10);
  db.Append({1.5}, 11);
  db.Append({2.5}, 12);
  EXPECT_EQ(db.id_of(0), 10u);
  EXPECT_EQ(db.id_of(2), 12u);
  db.SwapRemove(0);  // id 12's row swaps into slot 0.
  EXPECT_EQ(db.id_of(0), 12u);
  EXPECT_EQ(db.id_of(1), 11u);
  EXPECT_EQ(db.ids(), (std::vector<size_t>{12, 11}));
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_EQ(snap->id_of(0), 12u);
  db.AssignIds({20, 21});
  EXPECT_EQ(db.id_of(0), 20u);
}

TEST(EmbeddedDatabaseTest, CopyIsDeepAndIndependent) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 2}, {3, 4}});
  db.AssignIds({5, 6});
  EmbeddedDatabase copy = db;
  db.SwapRemove(0);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.RowVector(0), (Vector{1, 2}));
  EXPECT_EQ(copy.id_of(0), 5u);
  EXPECT_EQ(copy.id_of(1), 6u);
}

// --- 64-byte alignment and mixed-precision filter shadows ---------------

bool Aligned64(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % 64 == 0;
}

/// Every invariant the scorer's error envelope leans on: the float32
/// shadow is the narrowed float64 row, the int8 shadow round-trips
/// within half a quantization step, and every stored value fits its
/// dimension's scale (the re-quantization trigger keeps this true).
void ExpectShadowsConsistent(const EmbeddedDatabase::View& view) {
  for (size_t i = 0; i < view.size(); ++i) {
    const double* row = view.row(i);
    for (size_t j = 0; j < view.dims(); ++j) {
      if (view.has_f32()) {
        EXPECT_EQ(view.row_f32(i)[j], static_cast<float>(row[j]))
            << "row " << i << " dim " << j;
      }
      if (view.has_i8()) {
        float s = view.i8_scales()[j];
        EXPECT_TRUE(FitsInt8(row[j], s))
            << "row " << i << " dim " << j << " value " << row[j]
            << " scale " << s;
        EXPECT_LE(
            std::fabs(row[j] - static_cast<double>(s) * view.row_i8(i)[j]),
            0.5 * static_cast<double>(s) + 1e-12)
            << "row " << i << " dim " << j;
      }
    }
  }
}

TEST(EmbeddedDatabaseTest, RowStorageStays64ByteAlignedAcrossGrowth) {
  // dims = 7: rows are 56 bytes, so alignment of row 1+ would break if
  // anyone "fixed" alignment by padding strides instead of the base —
  // the contract is an aligned BASE pointer with dense rows.
  EmbeddedDatabase db(7);
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    Vector row(7);
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    db.Append(row);
    // Append-driven growth reallocates through AlignedAllocator every
    // time capacity doubles; the base must stay 64-byte aligned at every
    // size, not just the first allocation.
    EXPECT_TRUE(Aligned64(db.data().data())) << "after append " << i;
    EmbeddedDatabase::Snapshot snap = db.snapshot();
    EXPECT_TRUE(Aligned64(snap->data_f32())) << "after append " << i;
    EXPECT_TRUE(Aligned64(snap->data_i8())) << "after append " << i;
  }
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, ViewsBeforeEnableFilterShadowsCarryNone) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(db.filter_shadows(), 0u);
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_EQ(snap->shadows(), 0u);
  EXPECT_FALSE(snap->has_f32());
  EXPECT_FALSE(snap->has_i8());
}

TEST(EmbeddedDatabaseTest, EnableFilterShadowsBuildsBothCopies) {
  Rng rng(11);
  std::vector<Vector> rows(17, Vector(5));
  for (Vector& r : rows) {
    for (double& v : r) v = rng.Uniform(-3.0, 3.0);
  }
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  db.EnableFilterShadows(kShadowFloat32);
  EXPECT_EQ(db.filter_shadows(), kShadowFloat32);
  {
    EmbeddedDatabase::Snapshot snap = db.snapshot();
    EXPECT_TRUE(snap->has_f32());
    EXPECT_FALSE(snap->has_i8());
    ExpectShadowsConsistent(snap.view());
  }
  // Bits accumulate across calls.
  db.EnableFilterShadows(kShadowInt8);
  EXPECT_EQ(db.filter_shadows(), kShadowFloat32 | kShadowInt8);
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_TRUE(snap->has_f32());
  EXPECT_TRUE(snap->has_i8());
  ExpectShadowsConsistent(snap.view());
}

TEST(EmbeddedDatabaseTest, AppendMaintainsShadowsThroughGrowth) {
  EmbeddedDatabase db(3);
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    Vector row(3);
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    db.Append(row);
  }
  ASSERT_EQ(db.size(), 100u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, AppendOutOfRangeRequantizesWholeMatrix) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(
      {{0.5, -0.25}, {0.125, 0.75}, {-0.5, 0.5}});
  db.EnableFilterShadows(kShadowInt8);
  float scale_before;
  {
    EmbeddedDatabase::Snapshot snap = db.snapshot();
    scale_before = snap->i8_scales()[0];
    ASSERT_GT(scale_before, 0.0f);
    ASSERT_FALSE(FitsInt8(100.0, scale_before));
  }
  // 100.0 cannot quantize under the old dimension-0 scale: the append
  // must re-quantize every row under grown scales, not clamp the new
  // one into the envelope-breaking range.
  db.Append({100.0, 0.5});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_GT(snap->i8_scales()[0], scale_before);
  ASSERT_EQ(snap->size(), 4u);
  ExpectShadowsConsistent(snap.view());
}

TEST(EmbeddedDatabaseTest, SwapRemoveMaintainsShadows) {
  Rng rng(17);
  std::vector<Vector> rows(8, Vector(4));
  for (Vector& r : rows) {
    for (double& v : r) v = rng.Uniform(-2.0, 2.0);
  }
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  db.SwapRemove(2);  // Interior: copy-on-write, shadows follow the swap.
  ASSERT_EQ(db.size(), 7u);
  ExpectShadowsConsistent(db.snapshot().view());
  db.SwapRemove(db.size() - 1);  // Last row: O(1) shrink, shadows shrink.
  ASSERT_EQ(db.size(), 6u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, SetRowAndResizeMaintainShadows) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0.5, 0.5}, {0.25, -0.5}});
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  db.SetRow(0, {0.125, 0.0625});
  ExpectShadowsConsistent(db.snapshot().view());
  db.SetRow(1, {50.0, 0.5});  // Out of range: requantization path.
  ExpectShadowsConsistent(db.snapshot().view());
  db.Resize(5);  // Zero-filled rows must land in the shadows too.
  ASSERT_EQ(db.size(), 5u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, PinnedShadowsAreImmuneToRequantization) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0.5, -0.5}, {0.25, 0.5}});
  db.EnableFilterShadows(kShadowInt8);
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  float pinned_scale = snap->i8_scales()[0];
  int8_t pinned_q = snap->row_i8(0)[0];
  // Forces a copy-on-write re-quantization with grown scales.
  db.Append({100.0, 0.5});
  // The pinned version's scales and codes are untouched — a reader
  // halfway through a scan keeps consistent (scale, code) pairs.
  EXPECT_EQ(snap->i8_scales()[0], pinned_scale);
  EXPECT_EQ(snap->row_i8(0)[0], pinned_q);
  EXPECT_EQ(snap->size(), 2u);
  ExpectShadowsConsistent(snap.view());
  EXPECT_GT(db.snapshot()->i8_scales()[0], pinned_scale);
}

TEST(EmbeddedDatabaseTest, CopyCarriesShadowsBitForBit) {
  Rng rng(23);
  std::vector<Vector> rows(5, Vector(3));
  for (Vector& r : rows) {
    for (double& v : r) v = rng.Uniform(-1.0, 1.0);
  }
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  EmbeddedDatabase copy = db;
  EXPECT_EQ(copy.filter_shadows(), kShadowFloat32 | kShadowInt8);
  EmbeddedDatabase::Snapshot a = db.snapshot();
  EmbeddedDatabase::Snapshot b = copy.snapshot();
  ASSERT_EQ(a->size(), b->size());
  for (size_t j = 0; j < a->dims(); ++j) {
    EXPECT_EQ(a->i8_scales()[j], b->i8_scales()[j]);
  }
  for (size_t i = 0; i < a->size(); ++i) {
    for (size_t j = 0; j < a->dims(); ++j) {
      EXPECT_EQ(a->row_f32(i)[j], b->row_f32(i)[j]);
      EXPECT_EQ(a->row_i8(i)[j], b->row_i8(i)[j]);
    }
  }
}

}  // namespace
}  // namespace qse
