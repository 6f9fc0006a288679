#include "perfbench/src/analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr double kNsPerMs = 1e6;

bool IsShardScan(Kind kind) {
  return kind == Kind::kShardScan || kind == Kind::kStubScan;
}

}  // namespace

KindStats StatsOf(const std::vector<Span>& spans, Kind kind) {
  KindStats stats;
  for (const Span& s : spans) {
    if (s.kind != kind) continue;
    ++stats.count;
    stats.total_ms += s.duration_ns() / kNsPerMs;
  }
  return stats;
}

double AnalyzeTrace(const std::vector<Span>& spans,
                    const std::vector<BatchMember>& batches, Report* report) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<const Span*>> by_request;
  std::unordered_map<uint64_t, double> child_ns;  // parent id -> children
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.request != 0) by_request[s.request].push_back(&s);
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  std::unordered_map<uint64_t, uint64_t> batch_of;
  for (const BatchMember& m : batches) batch_of[m.request] = m.batch_span;

  // Layer self times summed over requests, in ns; each request's
  // end-to-end interval is split so the parts add up to it exactly.
  std::map<std::string, double> layer_ns;
  double total_e2e_ns = 0;
  size_t requests = 0;
  double embed_ns = 0, embed_dx = 0, dx_ns = 0, dx_calls = 0;
  double refine_ns = 0, refine_dx = 0;
  double queue_ns = 0, merge_ns = 0, skew_sum = 0;
  size_t skew_n = 0;

  for (const auto& [request, list] : by_request) {
    const Span* e2e = nullptr;
    const Span* retrieve = nullptr;
    for (const Span* s : list) {
      if (s->kind == Kind::kRequest) e2e = s;
      if (s->kind == Kind::kRetrieve) retrieve = s;
    }
    if (e2e == nullptr) continue;
    ++requests;
    double e = e2e->duration_ns();
    total_e2e_ns += e;

    uint64_t first = UINT64_MAX, last = 0;
    double work_ns = 0;  // Embed + shard scans + refine (top-level work).
    std::vector<double> shard_ns;
    for (const Span* s : list) {
      double d = s->duration_ns();
      switch (s->kind) {
        case Kind::kEmbed:
          layer_ns["core.embed"] += d - s->inner_ns;
          layer_ns["distance.dx"] += s->inner_ns;
          embed_ns += d;
          embed_dx += s->count;
          dx_ns += s->inner_ns;
          dx_calls += s->count;
          work_ns += d;
          break;
        case Kind::kRefine:
          layer_ns["retrieval.refine"] += d - s->inner_ns;
          layer_ns["distance.dx"] += s->inner_ns;
          refine_ns += d;
          refine_dx += s->count;
          dx_ns += s->inner_ns;
          dx_calls += s->count;
          work_ns += d;
          break;
        case Kind::kScan:
          layer_ns["retrieval.scan"] += d;
          // A scan inside a shard scan is already part of that span.
          if (s->parent == 0 || by_id.count(s->parent) == 0 ||
              !IsShardScan(by_id[s->parent]->kind)) {
            work_ns += d;
          }
          break;
        case Kind::kShardScan:
          layer_ns["serving.shard_scan"] += d - child_ns[s->id];
          shard_ns.push_back(d);
          work_ns += d;
          break;
        case Kind::kStubScan:
          // One round trip: wire, remote server and the remote scan.
          layer_ns["net.scan_rtt"] += d;
          shard_ns.push_back(d);
          work_ns += d;
          break;
        default:
          continue;
      }
      first = std::min(first, s->start_ns);
      last = std::max(last, s->end_ns);
    }
    if (!shard_ns.empty()) {
      double mean = Mean(shard_ns);
      if (mean > 0) {
        skew_sum += *std::max_element(shard_ns.begin(), shard_ns.end()) / mean;
        ++skew_n;
      }
    }
    double window = last > first ? static_cast<double>(last - first) : 0;
    auto batch = batch_of.find(request);
    if (batch != batch_of.end() && by_id.count(batch->second) != 0) {
      const Span* b = by_id[batch->second];
      double queue = static_cast<double>(b->start_ns - e2e->start_ns);
      double merge = std::max(0.0, window - work_ns);
      layer_ns["server.queue"] += queue;
      layer_ns["server.batch"] += std::max(0.0, b->duration_ns() - window);
      layer_ns["serving.merge_refine"] += merge;
      layer_ns["unaccounted"] += std::max(
          0.0, static_cast<double>(e2e->end_ns) - static_cast<double>(b->end_ns));
      queue_ns += queue;
      merge_ns += merge;
    } else if (retrieve != nullptr) {
      layer_ns["retrieval.engine"] +=
          std::max(0.0, retrieve->duration_ns() - work_ns);
      layer_ns["unaccounted"] += std::max(0.0, e - retrieve->duration_ns());
    } else {
      layer_ns["unaccounted"] += e;
    }
  }

  double n = static_cast<double>(std::max<size_t>(requests, 1));
  report->Set("trace.requests", static_cast<double>(requests), "count");
  report->Set("core.embed_us", embed_ns / n / 1e3, "us");
  report->Set("core.embed_dx", embed_dx / n, "count");
  report->Set("distance.dx_us", dx_calls > 0 ? dx_ns / dx_calls / 1e3 : 0,
              "us");
  report->Set("retrieval.refine_ms", refine_ns / n / kNsPerMs, "ms");
  report->Set("retrieval.refine_dx", refine_dx / n, "count");

  // Scans: every FilterScorer::ScoreTopP call, server-side ones included.
  double scan_ns = 0, scan_bytes = 0, rows = 0, pruned = 0;
  size_t scans = 0;
  for (const Span& s : spans) {
    if (s.kind != Kind::kScan) continue;
    ++scans;
    scan_ns += s.duration_ns();
    scan_bytes += static_cast<double>(s.inner_ns);
    rows += static_cast<double>(s.count);
    pruned += static_cast<double>(s.aux);
  }
  report->Set("retrieval.scan_ms",
              scans > 0 ? scan_ns / static_cast<double>(scans) / kNsPerMs : 0,
              "ms");
  report->Set("retrieval.scan_gbps", scan_ns > 0 ? scan_bytes / scan_ns : 0,
              "GB/s");
  report->Set("retrieval.pruned_share", rows > 0 ? pruned / rows : 0,
              "share");

  KindStats batch = StatsOf(spans, Kind::kBatch);
  if (batch.count > 0) {
    double queries = 0;
    for (const Span& s : spans) {
      if (s.kind == Kind::kBatch) queries += static_cast<double>(s.count);
    }
    report->Set("server.queue_wait_ms", queue_ns / n / kNsPerMs, "ms");
    report->Set("server.batch_size", queries / batch.count, "count");
    report->Set("server.batch_exec_ms", batch.mean_ms(), "ms");
    report->Set("serving.merge_refine_ms", merge_ns / n / kNsPerMs, "ms");
  }
  KindStats shard = StatsOf(spans, Kind::kShardScan);
  KindStats stub = StatsOf(spans, Kind::kStubScan);
  if (shard.count + stub.count > 0) {
    report->Set("serving.shard_scan_ms",
                (shard.total_ms + stub.total_ms) / (shard.count + stub.count),
                "ms");
    report->Set("serving.shard_skew", skew_n > 0 ? skew_sum / skew_n : 1,
                "ratio");
  }
  if (stub.count > 0) {
    KindStats server = StatsOf(spans, Kind::kServerScan);
    report->Set("net.scan_rtt_us", stub.mean_ms() * 1e3, "us");
    report->Set("net.wire_us", (stub.mean_ms() - server.mean_ms()) * 1e3,
                "us");
  }

  double mean_e2e_ms = total_e2e_ns / n / kNsPerMs;
  double accounted = 0;
  for (const auto& [layer, ns] : layer_ns) {
    double share = total_e2e_ns > 0 ? ns / total_e2e_ns : 0;
    if (layer != "unaccounted") accounted += share;
    char line[160];
    std::snprintf(line, sizeof(line), "self time %-22s %10.4f ms/query  %6.2f %%",
                  layer.c_str(), ns / n / kNsPerMs, 100 * share);
    report->Note(line);
  }
  report->Set("unaccounted_share", 1 - accounted, "share");
  report->Check(requests > 0, "the traced run recorded no requests");
  report->Check(accounted >= 0.9,
                "layer self times cover less than 90 % of end-to-end time");
  return mean_e2e_ms;
}

}  // namespace perfbench
