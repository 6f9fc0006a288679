// Turns the spans of a traced run into per-layer metrics: mean time and
// work per layer call, and each layer's self time as a share of the mean
// end-to-end query time (the accounting check).
#ifndef PERFBENCH_ANALYSIS_H_
#define PERFBENCH_ANALYSIS_H_

#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"

namespace perfbench {

/// Fills the per-layer metrics the spans support (see WORKLOADS.md for
/// the list) and returns the mean traced end-to-end query time in ms.
/// Also checks that layer self times cover at least 90 % of that time.
double AnalyzeTrace(const std::vector<Span>& spans,
                    const std::vector<BatchMember>& batches, Report* report);

/// Sum and mean of the durations (ms) of spans of one kind.
struct KindStats {
  size_t count = 0;
  double total_ms = 0;
  double mean_ms() const { return count == 0 ? 0 : total_ms / count; }
};
KindStats StatsOf(const std::vector<Span>& spans, Kind kind);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYSIS_H_
