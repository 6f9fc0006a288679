#include "src/retrieval/filter_scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/distance/lp.h"
#include "src/distance/simd/dispatch.h"
#include "src/distance/weighted_l1.h"
#include "src/util/logging.h"

namespace qse {
namespace {

/// Bytes of rows in one tile of the batched scan: small enough that a
/// tile stays in L2 while every query of the batch scores it.
constexpr size_t kTileBytes = 512 * 1024;

/// The one filter scan loop: a streaming pass over `n` rows keeping the
/// p smallest for each of `m` queries.  Query j's lane, built by
/// `make_lane(j)`, is called as lane(i, threshold): it scores row i with
/// the scorer's kernel and may stop early — returning any value strictly
/// greater than `threshold` — once its running partial sum provably
/// exceeds it (a lane whose terms can be negative ignores the threshold
/// and always completes).  Partial sums are monotone non-decreasing
/// (non-negative terms), so an abandoned row's true score also exceeds
/// the threshold and Offer() rejects it; completed rows return scores
/// bit-identical to Score()'s (the dispatched kernels hold the span
/// kernels' lane discipline, see src/distance/simd/kernels.h), and
/// BoundedTopK breaks ties by row index exactly like SmallestK.
///
/// Rows stream in tiles of kTileBytes / row_bytes rows, each scored by
/// every query before the next loads.  A query still visits the rows in
/// ascending order against its own threshold history, so its result is
/// the same as a scan with that query alone — which a batch of one is.
template <typename MakeLane>
std::vector<std::vector<ScoredIndex>> TiledTopP(
    size_t n, size_t row_bytes, size_t p, size_t m, const MakeLane& make_lane,
    std::vector<FilterScanStats>* scan_stats) {
  std::vector<decltype(make_lane(size_t{0}))> lanes;
  std::vector<BoundedTopK> tops;
  lanes.reserve(m);
  tops.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    lanes.push_back(make_lane(j));
    tops.emplace_back(std::min(p, n));
  }
  std::vector<size_t> pruned(m, 0);
  const size_t tile_rows = std::max<size_t>(1, kTileBytes / row_bytes);
  for (size_t begin = 0; begin < n; begin += tile_rows) {
    const size_t end = std::min(n, begin + tile_rows);
    for (size_t j = 0; j < m; ++j) {
      BoundedTopK& top = tops[j];
      auto& lane = lanes[j];
      size_t tile_pruned = 0;
      for (size_t i = begin; i < end; ++i) {
        tile_pruned += !top.Offer({i, lane(i, top.threshold())});
      }
      pruned[j] += tile_pruned;
    }
  }
  std::vector<std::vector<ScoredIndex>> best(m);
  if (scan_stats != nullptr) scan_stats->resize(m);
  for (size_t j = 0; j < m; ++j) {
    best[j] = tops[j].TakeSortedAscending();
    if (scan_stats != nullptr) (*scan_stats)[j] = {n, pruned[j]};
  }
  return best;
}

/// A reduced-precision lane: `score(i, widened)` scans a shadow row
/// against the threshold widened by the query's quantization error
/// envelope, so abandonment stays sound relative to the exact scores
/// (see ScoreTopP's contract in the header).  Widening costs a divide;
/// the threshold only moves when an Offer is accepted (at most p times
/// once the heap is warm), so the widened value is cached until it
/// does.  +inf != +inf is false, so the initial unbounded threshold
/// takes the cached path too.
template <typename ShadowScoreFn>
class WidenedLane {
 public:
  WidenedLane(const ReducedPrecisionBound& bound, ShadowScoreFn score)
      : bound_(bound),
        score_(std::move(score)),
        threshold_(std::numeric_limits<double>::infinity()),
        widened_(FloatAtLeast(WidenedAbandonThreshold(threshold_, bound_))) {}

  double operator()(size_t i, double threshold) {
    if (threshold != threshold_) {
      threshold_ = threshold;
      widened_ = FloatAtLeast(WidenedAbandonThreshold(threshold, bound_));
    }
    return static_cast<double>(score_(i, widened_));
  }

 private:
  ReducedPrecisionBound bound_;
  ShadowScoreFn score_;
  double threshold_;
  float widened_;
};

/// int8 shadow rows are only d bytes — a few cachelines — and the scan
/// touches just one or two of them before abandoning most rows, too
/// little demand pressure to keep the hardware stream prefetcher ahead
/// of a DRAM-resident matrix.  Fetching a handful of rows ahead
/// explicitly recovers ~35% of scan time at n=1M, d=256 (measured; the
/// float32/float64 paths stream whole kilobytes per row and need no
/// help).
constexpr size_t kI8PrefetchRowsAhead = 8;

inline void PrefetchI8Ahead(const EmbeddedDatabase::View& db, size_t i) {
  if (i + kI8PrefetchRowsAhead >= db.size()) return;
  const int8_t* row = db.row_i8(i + kI8PrefetchRowsAhead);
  for (size_t b = 0; b < db.dims(); b += 64) {
    __builtin_prefetch(row + b, /*rw=*/0, /*locality=*/0);
  }
}

std::vector<float> ToFloat(const double* v, size_t d) {
  std::vector<float> out(d);
  for (size_t j = 0; j < d; ++j) out[j] = static_cast<float>(v[j]);
  return out;
}

std::vector<int8_t> QuantizeQuery(const double* q, const float* scales,
                                  size_t d) {
  std::vector<int8_t> out(d);
  for (size_t j = 0; j < d; ++j) out[j] = QuantizeToInt8(q[j], scales[j]);
  return out;
}

/// The precision dispatch the three scorers share: checks that the view
/// carries the matrix `precision` scans, builds query j's lane with
/// `exact(j)`, `f32(j)` or `i8(j)` (float64 rows, float32 shadow, int8
/// shadow), and runs the tiled scan over `m` queries.
template <typename ExactLane, typename F32Lane, typename I8Lane>
std::vector<std::vector<ScoredIndex>> TiledTopPAt(
    const EmbeddedDatabase::View& db, size_t m, size_t p,
    FilterPrecision precision, const ExactLane& exact, const F32Lane& f32,
    const I8Lane& i8, std::vector<FilterScanStats>* scan_stats) {
  const size_t n = db.size();
  const size_t d = db.dims();
  if (precision == FilterPrecision::kFilter32) {
    QSE_CHECK_MSG(db.has_f32(), "kFilter32 scan on a view without a float32 "
                                "shadow (EnableFilterShadows)");
    return TiledTopP(n, d * sizeof(float), p, m, f32, scan_stats);
  }
  if (precision == FilterPrecision::kFilter8) {
    QSE_CHECK_MSG(db.has_i8(), "kFilter8 scan on a view without an int8 "
                               "shadow (EnableFilterShadows)");
    return TiledTopP(n, d * sizeof(int8_t), p, m, i8, scan_stats);
  }
  return TiledTopP(n, d * sizeof(double), p, m, exact, scan_stats);
}

void CheckQueryDims(const std::vector<Vector>& queries, size_t d) {
  for (const Vector& q : queries) QSE_CHECK(q.size() == d);
}

}  // namespace

std::vector<ScoredIndex> FilterScorer::ScoreTopP(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  QSE_CHECK_MSG(precision == FilterPrecision::kExact64,
                "the fallback ScoreTopP only implements kExact64; scorers "
                "with reduced-precision support override it");
  std::vector<double> scores;
  Score(embedded_query, db, &scores);
  std::vector<ScoredIndex> best = SmallestK(scores, p);
  if (scan_stats != nullptr) {
    *scan_stats = FilterScanStats{db.size(), db.size() - best.size()};
  }
  return best;
}

std::vector<std::vector<ScoredIndex>> FilterScorer::ScoreTopPBatch(
    const std::vector<Vector>& embedded_queries,
    const EmbeddedDatabase::View& db, size_t p, FilterPrecision precision,
    std::vector<FilterScanStats>* scan_stats) const {
  const size_t m = embedded_queries.size();
  std::vector<std::vector<ScoredIndex>> best;
  best.reserve(m);
  if (scan_stats != nullptr) scan_stats->resize(m);
  for (size_t j = 0; j < m; ++j) {
    best.push_back(ScoreTopP(embedded_queries[j], db, p, precision,
                             scan_stats != nullptr ? &(*scan_stats)[j]
                                                   : nullptr));
  }
  return best;
}

std::vector<ScoredIndex> FilterScorer::ScoreTopPAsBatch(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  std::vector<FilterScanStats> stats;
  std::vector<std::vector<ScoredIndex>> best =
      ScoreTopPBatch({embedded_query}, db, p, precision,
                     scan_stats != nullptr ? &stats : nullptr);
  if (scan_stats != nullptr) *scan_stats = stats[0];
  return std::move(best[0]);
}

void QuerySensitiveScorer::Score(const Vector& embedded_query,
                                 const EmbeddedDatabase::View& db,
                                 std::vector<double>* scores) const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  const Vector weights = model_->QueryWeights(embedded_query);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = WeightedL1DistanceSpan(embedded_query.data(), db.row(i),
                                          weights.data(), d);
  }
}

std::vector<ScoredIndex> QuerySensitiveScorer::ScoreTopP(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  return ScoreTopPAsBatch(embedded_query, db, p, precision, scan_stats);
}

std::vector<std::vector<ScoredIndex>> QuerySensitiveScorer::ScoreTopPBatch(
    const std::vector<Vector>& embedded_queries,
    const EmbeddedDatabase::View& db, size_t p, FilterPrecision precision,
    std::vector<FilterScanStats>* scan_stats) const {
  const size_t m = embedded_queries.size();
  const size_t d = db.dims();
  CheckQueryDims(embedded_queries, d);
  // A_i(q) sums AdaBoost alphas, which MinimizeZ may drive negative.
  // Early abandon and the reduced-precision envelopes are only sound for
  // non-negative terms, so a query with a negative weight gets an exact
  // lane that ignores the threshold: it never abandons, and every score
  // it completes is wl1_f64 at +inf, Score()'s own kernel call, so its
  // top p is SmallestK(Score(q), p).  At a reduced precision such
  // queries keep those exact float64 scores in a pass of their own.
  std::vector<Vector> weights(m);
  std::vector<char> unbounded(m, 0);
  std::vector<size_t> exact, shadow;
  for (size_t j = 0; j < m; ++j) {
    weights[j] = model_->QueryWeights(embedded_queries[j]);
    unbounded[j] = std::any_of(weights[j].begin(), weights[j].end(),
                               [](double w) { return w < 0.0; });
    const bool exact_lane =
        precision == FilterPrecision::kExact64 || unbounded[j] != 0;
    (exact_lane ? exact : shadow).push_back(j);
  }
  const simd::KernelTable* k = simd::ActiveKernels();
  auto exact_lane = [&](size_t j) {
    return [q = embedded_queries[j].data(), w = weights[j].data(),
            unbounded = unbounded[j] != 0, k, &db,
            d](size_t i, double threshold) {
      return k->wl1_f64(q, db.row(i), w, d,
                        unbounded ? std::numeric_limits<double>::infinity()
                                  : threshold);
    };
  };
  auto f32_lane = [&](size_t j) {
    const double* q = embedded_queries[j].data();
    const double* w = weights[j].data();
    return WidenedLane(
        F32BoundWeightedL1(w, q, d),
        [qf = ToFloat(q, d), wf = ToFloat(w, d), k, &db, d](size_t i,
                                                            float widened) {
          return k->wl1_f32(qf.data(), db.row_f32(i), wf.data(), d, widened);
        });
  };
  auto i8_lane = [&](size_t j) {
    const double* q = embedded_queries[j].data();
    const double* w = weights[j].data();
    const float* s = db.i8_scales();
    std::vector<int8_t> qq = QuantizeQuery(q, s, d);
    // Coefficients fold weight and dequantization scale: the kernel's
    // c_j * |qq_j - rq_j| then approximates w_j * |q_j - r_j|.
    std::vector<float> c(d);
    for (size_t jj = 0; jj < d; ++jj) {
      c[jj] = static_cast<float>(w[jj] * static_cast<double>(s[jj]));
    }
    ReducedPrecisionBound bound = I8BoundWeightedL1(w, q, qq.data(), s, d);
    return WidenedLane(bound, [qq = std::move(qq), c = std::move(c), k, &db,
                               d](size_t i, float widened) {
      PrefetchI8Ahead(db, i);
      return k->wl1_i8(qq.data(), db.row_i8(i), c.data(), d, widened);
    });
  };

  std::vector<std::vector<ScoredIndex>> best(m);
  std::vector<FilterScanStats> stats(m);
  // One tiled pass per group; group[t] is the batch index of lane t.
  auto scan = [&](const std::vector<size_t>& group, FilterPrecision at) {
    if (group.empty()) return;
    auto pick = [&group](const auto& make_lane) {
      return [&group, &make_lane](size_t t) { return make_lane(group[t]); };
    };
    std::vector<FilterScanStats> group_stats;
    std::vector<std::vector<ScoredIndex>> group_best =
        TiledTopPAt(db, group.size(), p, at, pick(exact_lane), pick(f32_lane),
                    pick(i8_lane), &group_stats);
    for (size_t t = 0; t < group.size(); ++t) {
      best[group[t]] = std::move(group_best[t]);
      stats[group[t]] = group_stats[t];
    }
  };
  scan(exact, FilterPrecision::kExact64);
  scan(shadow, precision);
  if (scan_stats != nullptr) *scan_stats = std::move(stats);
  return best;
}

void L2Scorer::Score(const Vector& embedded_query,
                     const EmbeddedDatabase::View& db,
                     std::vector<double>* scores) const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = SquaredL2DistanceSpan(embedded_query.data(), db.row(i), d);
  }
}

std::vector<ScoredIndex> L2Scorer::ScoreTopP(const Vector& embedded_query,
                                             const EmbeddedDatabase::View& db,
                                             size_t p,
                                             FilterPrecision precision,
                                             FilterScanStats* scan_stats)
    const {
  return ScoreTopPAsBatch(embedded_query, db, p, precision, scan_stats);
}

std::vector<std::vector<ScoredIndex>> L2Scorer::ScoreTopPBatch(
    const std::vector<Vector>& embedded_queries,
    const EmbeddedDatabase::View& db, size_t p, FilterPrecision precision,
    std::vector<FilterScanStats>* scan_stats) const {
  const size_t d = db.dims();
  CheckQueryDims(embedded_queries, d);
  const simd::KernelTable* k = simd::ActiveKernels();
  return TiledTopPAt(
      db, embedded_queries.size(), p, precision,
      [&](size_t j) {
        return [q = embedded_queries[j].data(), k, &db, d](size_t i,
                                                           double threshold) {
          return k->l2_f64(q, db.row(i), d, threshold);
        };
      },
      [&](size_t j) {
        const double* q = embedded_queries[j].data();
        return WidenedLane(F32BoundSquaredL2(q, d),
                           [qf = ToFloat(q, d), k, &db, d](size_t i,
                                                           float widened) {
                             return k->l2_f32(qf.data(), db.row_f32(i), d,
                                              widened);
                           });
      },
      [&](size_t j) {
        const double* q = embedded_queries[j].data();
        const float* s = db.i8_scales();
        std::vector<int8_t> qq = QuantizeQuery(q, s, d);
        // c_j = s_j^2 turns the kernel's (c_j * fd) * fd into
        // (s_j * (qq_j - rq_j))^2, the quantized squared difference.
        std::vector<float> c(d);
        for (size_t jj = 0; jj < d; ++jj) {
          double sd = static_cast<double>(s[jj]);
          c[jj] = static_cast<float>(sd * sd);
        }
        ReducedPrecisionBound bound = I8BoundSquaredL2(q, qq.data(), s, d);
        return WidenedLane(bound, [qq = std::move(qq), c = std::move(c), k,
                                   &db, d](size_t i, float widened) {
          PrefetchI8Ahead(db, i);
          return k->wl2_i8(qq.data(), db.row_i8(i), c.data(), d, widened);
        });
      },
      scan_stats);
}

void L1Scorer::Score(const Vector& embedded_query,
                     const EmbeddedDatabase::View& db,
                     std::vector<double>* scores) const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = L1DistanceSpan(embedded_query.data(), db.row(i), d);
  }
}

std::vector<ScoredIndex> L1Scorer::ScoreTopP(const Vector& embedded_query,
                                             const EmbeddedDatabase::View& db,
                                             size_t p,
                                             FilterPrecision precision,
                                             FilterScanStats* scan_stats)
    const {
  return ScoreTopPAsBatch(embedded_query, db, p, precision, scan_stats);
}

std::vector<std::vector<ScoredIndex>> L1Scorer::ScoreTopPBatch(
    const std::vector<Vector>& embedded_queries,
    const EmbeddedDatabase::View& db, size_t p, FilterPrecision precision,
    std::vector<FilterScanStats>* scan_stats) const {
  const size_t d = db.dims();
  CheckQueryDims(embedded_queries, d);
  const simd::KernelTable* k = simd::ActiveKernels();
  return TiledTopPAt(
      db, embedded_queries.size(), p, precision,
      [&](size_t j) {
        return [q = embedded_queries[j].data(), k, &db, d](size_t i,
                                                           double threshold) {
          return k->l1_f64(q, db.row(i), d, threshold);
        };
      },
      [&](size_t j) {
        const double* q = embedded_queries[j].data();
        return WidenedLane(F32BoundWeightedL1(nullptr, q, d),
                           [qf = ToFloat(q, d), k, &db, d](size_t i,
                                                           float widened) {
                             return k->l1_f32(qf.data(), db.row_f32(i), d,
                                              widened);
                           });
      },
      [&](size_t j) {
        const double* q = embedded_queries[j].data();
        const float* s = db.i8_scales();
        std::vector<int8_t> qq = QuantizeQuery(q, s, d);
        ReducedPrecisionBound bound =
            I8BoundWeightedL1(nullptr, q, qq.data(), s, d);
        return WidenedLane(bound, [qq = std::move(qq), s, k, &db, d](
                                      size_t i, float widened) {
          PrefetchI8Ahead(db, i);
          return k->wl1_i8(qq.data(), db.row_i8(i), s, d, widened);
        });
      },
      scan_stats);
}

}  // namespace qse
