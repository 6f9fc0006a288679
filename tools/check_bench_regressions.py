#!/usr/bin/env python3
"""Threshold check over the benchmark JSON artifacts.

Reads one or more benchmark JSON files (google-benchmark output and the
compatible files bench/harness's WriteBenchJson emits, e.g. server_load)
and enforces relative performance invariants between benchmarks of the
same run.  Comparing within one run sidesteps cross-machine noise: CI
hosts vary wildly run to run, but "the SoA scan must not be slower than
the AoS scan it replaced" holds on any host.  The raw JSON is uploaded
as a CI artifact so absolute history is still inspectable.

Rules gate on a metric: "real_time" (the mean) by default, or a tail
percentile ("p50"/"p95"/"p99") when the benchmark emits one — the async
serving rules gate p99 so a batching change cannot buy mean throughput
with a tail-latency blowup.

Usage: check_bench_regressions.py <benchmark_json> [more_json...] [--strict]

Exit code 1 when any rule fails.  --strict additionally fails when a
rule's benchmarks are missing from the JSON (CI uses it; local runs of a
benchmark subset stay usable without it).
"""

import argparse
import json
import os
import sys


def _cpu_flags():
    """The host's CPUID feature flags (Linux); empty elsewhere."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def filter8_speedup_bound():
    """Max allowed time ratio, int8 filter scan vs the seed scalar
    float64 scan (n=1M, d=256, p=500).

    The SIMD-dispatch acceptance gate: >= 3x single-thread filter-scan
    throughput on AVX-512 hosts (measured ~3.7x).  AVX2 hosts run
    half-width vectors, so demand 2x; hosts with neither dispatch the
    scalar tier, where int8's only edge is 8x smaller memory traffic —
    demand "not slower" plus noise."""
    flags = _cpu_flags()
    if "avx512f" in flags:
        return 1.0 / 3.0
    if "avx2" in flags:
        return 0.50
    return 1.05


def filter32_speedup_bound():
    """Max allowed time ratio, float32 filter scan vs the seed scalar
    float64 scan.  The float32 path is DRAM-bandwidth bound at half the
    traffic of float64; on any SIMD tier it must clear 1.8x (measured
    ~2.3x), and scalar hosts must at least not lose."""
    flags = _cpu_flags()
    if "avx512f" in flags or "avx2" in flags:
        return 0.55
    return 1.05


def sharded_speedup_bound():
    """Max allowed time ratio for the sharded S=8 single-query config.

    On >= 4 cores (every GitHub-hosted runner) demand a real speedup:
    ratio <= 0.80, i.e. >= 1.25x — a lax regression guard under the
    1.5x the scatter typically measures there, so a throttled runner
    does not flap the build.  On 2-3 cores only demand "not slower".
    On one core the scatter runs serially and pays the weaker per-shard
    early-abandon threshold; allow its measured ~1.2x overhead.
    """
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 0.80
    if cores >= 2:
        return 1.00
    return 1.30


def micro_batching_bound():
    """Max allowed mean-latency ratio, adaptive micro-batching vs
    one-request-per-call serving (closed loop, same worker layout).

    Batching parallelizes each dispatched batch across cores via
    RetrieveBatch, so with >= 4 cores it must be a real win (the measured
    gap is ~Cx; demand a lax 1.2x).  On 2-3 cores demand "not slower";
    on one core batching only amortizes dispatch overhead, so allow
    noise-level slack.
    """
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 0.85
    if cores >= 2:
        return 1.05
    return 1.15


def mutation_tail_bound():
    """Max allowed p99 ratio, closed-loop serving with a background
    Insert/Remove stream vs the same configuration mutation-free.

    Epoch-based concurrent mutation never blocks readers (they keep
    scanning their pinned snapshot), but interior removals copy-on-write
    the database version, so the mutating run pays memcpy bandwidth and
    allocator churn.  The tail must stay the same order of magnitude:
    p99 is the noisiest statistic and CI hosts vary, so the bound is a
    blowup guard, not a parity assertion."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.80
    if cores >= 2:
        return 2.20
    return 2.60


def trace_sampling_tail_bound():
    """Max allowed p99 ratio, the adaptive closed loop with 1-in-64
    trace sampling vs the identical untraced configuration (same run,
    same binary).

    An un-sampled request pays one null-check branch per span site; a
    sampled one adds ~15 clock reads and mutex-guarded span pushes to a
    multi-hundred-microsecond request.  Neither should be visible above
    p99 noise, which scales with how contended the host is."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.05
    if cores >= 2:
        return 1.15
    return 1.30


def tracing_overhead_bound():
    """Max allowed p99 ratio between the instrumented build and a
    -DQSE_DISABLE_TRACING build of the same configuration (the
    --overhead-pair mode, two separate binaries).

    The observability acceptance budget: with tracing compiled in but
    requests un-sampled, the hot path differs by dead branches only, so
    on a quiet multi-core host the tails must agree within 2%.  Smaller
    hosts time-share the serving threads and p99 noise swamps a 2%
    budget; loosen rather than flap."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.02
    if cores >= 2:
        return 1.15
    return 1.30


def audit_sampling_tail_bound():
    """Max allowed p99 ratio, the adaptive closed loop with 1-in-16
    quality-audit sampling vs the identical audit-free configuration.

    The hot path pays one relaxed fetch_add per response plus, on
    sampled requests, moving a snapshot pin and k neighbor ids into the
    audit queue.  The brute-force re-scans themselves run on the single
    background worker, which time-shares a core with the serving
    threads — cheap on a multi-core host, visible on small ones."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.50
    if cores >= 2:
        return 2.00
    return 2.50


def remote_overhead_bound():
    """Max allowed p99 ratio, the hedged multi-process remote cluster vs
    in-process direct sharded serving.

    Remote serving pays two loopback RPCs (framing, serialization, one
    kernel round trip each) plus the hedge-delay waits its degraded
    replica forces, on top of the same scan the in-process engine runs —
    a constant-factor tax, not a scaling change.  This is a blowup
    guard: it catches a hedging or transport regression that turns
    milliseconds into hundreds, while staying insensitive to how
    contended the host is (smaller hosts time-share four extra server
    processes, so the tax grows as cores shrink)."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 8.0
    if cores >= 2:
        return 12.0
    return 20.0


def wal_tail_bound():
    """Max allowed p99 ratio, the closed-loop-with-mutation workload
    over the DurableBackend (WAL on, fsync every 64, auto-snapshots)
    vs the identical workload over the bare engine.

    Queries never touch the WAL (retrievals pass through the decorator
    untouched), so the tail cost comes only from mutations holding the
    log mutex across apply+append and from the occasional snapshot
    stalling the mutator — both invisible to readers on their pinned
    epochs.  The bound is a blowup guard sized to how contended the
    host is, not a parity assertion."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 2.0
    if cores >= 2:
        return 2.5
    return 3.0


def micro_batching_tail_bound():
    """Max allowed p99 ratio for the same pair.  Under closed-loop load,
    coalescing strictly reduces queueing, so the tail must not regress
    either — but p99 is the noisiest statistic, so every tier gets extra
    headroom over the mean bound."""
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.00
    if cores >= 2:
        return 1.20
    return 1.35


# (numerator benchmark, denominator benchmark, max allowed ratio, label,
#  metric).  Ratios are metric(numerator) / metric(denominator); a rule
# fails when the ratio exceeds the bound.  The bound may be a callable
# (resolved at check time, e.g. to adapt to the host's core count).
# Metric "real_time" is the google-benchmark mean; "p99" gates tail
# latency and only applies to benchmarks that emit percentiles;
# "items_per_second" is a throughput, so a rule on it puts the side that
# must be faster in the denominator.
RULES = [
    # The flat SoA layout exists to beat the AoS scan it replaced; allow
    # 10% noise headroom.
    (
        "BM_FilterScanWeightedL1_SoA/100000/256",
        "BM_FilterScanWeightedL1_AoS/100000/256",
        1.10,
        "SoA filter scan vs AoS baseline (n=100k, d=256)",
        "real_time",
    ),
    # Early abandon prunes work; it must never lose to the full scan by
    # more than noise.
    (
        "BM_ScoreTopP_EarlyAbandon/100000/256/500",
        "BM_ScoreTopP_FullScan/100000/256/500",
        1.10,
        "early-abandon top-p vs full scan + select (n=100k, d=256)",
        "real_time",
    ),
    # One shard through the scatter/gather path must stay within 15% of
    # the monolithic engine: the merge + translation overhead is bounded.
    (
        "BM_RetrieveShardedSingleQuery/100000/256/1/real_time",
        "BM_RetrieveMonolithicSingleQuery/100000/256/real_time",
        1.15,
        "sharded S=1 overhead vs monolithic single query",
        "real_time",
    ),
    # 8 shards must make ONE query faster, not slower — but the speedup
    # comes from scattering the scan across cores, so the enforceable
    # bound depends on the host.  sharded_speedup_bound() picks it.
    (
        "BM_RetrieveShardedSingleQuery/100000/256/8/real_time",
        "BM_RetrieveMonolithicSingleQuery/100000/256/real_time",
        sharded_speedup_bound,
        "sharded S=8 single-query speedup vs monolithic",
        "real_time",
    ),
    # The async serving acceptance gate: adaptive micro-batching must
    # sustain higher closed-loop throughput (= lower mean latency at
    # equal concurrency) than one-request-per-call serving...
    (
        "SL_Closed/mono/async_adaptive",
        "SL_Closed/mono/async_b1",
        micro_batching_bound,
        "adaptive micro-batching vs one-request-per-call (mean)",
        "real_time",
    ),
    # ...without trading the tail away for it.
    (
        "SL_Closed/mono/async_adaptive",
        "SL_Closed/mono/async_b1",
        micro_batching_tail_bound,
        "adaptive micro-batching vs one-request-per-call (p99 tail)",
        "p99",
    ),
    # Observability: the adaptive closed loop with 1-in-64 trace
    # sampling vs the identical untraced configuration — sampling must
    # not buy visibility with a tail blowup.
    (
        "SL_Closed/mono/async_traced",
        "SL_Closed/mono/async_adaptive",
        trace_sampling_tail_bound,
        "trace sampling (1/64) vs untraced adaptive loop (p99 tail)",
        "p99",
    ),
    # Concurrent mutation: a background Insert/Remove stream through the
    # server (epoch/RCU path) must not blow the closed-loop query tail
    # relative to the identical mutation-free configuration.
    (
        "SL_Mutate/mono/async_adaptive",
        "SL_Closed/mono/async_adaptive",
        mutation_tail_bound,
        "background mutation vs mutation-free closed loop (p99 tail)",
        "p99",
    ),
    # Strict-priority admission: under the saturating mixed-priority
    # burst, completed high-lane requests must see a clearly lower p99
    # sojourn than the low lane they preempt.  Queueing-order driven, so
    # the bound holds on any core count.
    (
        "SL_Lanes/mono/high",
        "SL_Lanes/mono/low",
        0.90,
        "priority lanes: high-lane p99 under saturation vs low lane",
        "p99",
    ),
    # Quality auditing: sampling 1-in-16 responses into background
    # exact-kNN audits must not buy drift visibility with a serving-tail
    # blowup.
    (
        "SL_Drift/mono/control",
        "SL_Closed/mono/async_adaptive",
        audit_sampling_tail_bound,
        "quality audits (1/16) vs audit-free adaptive loop (p99 tail)",
        "p99",
    ),
    # The hedged-read acceptance gate: over the degraded multi-process
    # cluster (one replica injects a 40ms delay on every 32nd scan),
    # hedging must measurably cut the p99 that the no-hedging arm eats
    # in full.  The injected delay dwarfs host noise on any core count,
    # so the bound is flat.
    (
        "SL_Remote/cluster/hedged",
        "SL_Remote/cluster/nohedge",
        0.90,
        "hedged reads vs no-hedging over the degraded cluster (p99 tail)",
        "p99",
    ),
    # Crossing a process boundary is a constant-factor tax, not a
    # blowup: the remote cluster's tail must stay within a bounded
    # multiple of in-process sharded serving.
    (
        "SL_Remote/cluster/hedged",
        "SL_Closed/sharded/direct",
        remote_overhead_bound,
        "remote hedged cluster vs in-process sharded serving (p99 tail)",
        "p99",
    ),
    # Durability: write-ahead logging must price mutations, not the
    # serving tail — WAL-on p99 stays within a bounded multiple of the
    # identical WAL-off run.
    (
        "SL_Recover/mono/wal_on",
        "SL_Recover/mono/wal_off",
        wal_tail_bound,
        "WAL-on mutating closed loop vs WAL-off (p99 tail)",
        "p99",
    ),
    # The batch-tiled filter scan: eight queries scored in one pass over
    # the rows must reach >= 1.5x the per-query throughput of the
    # single-query scan.  Metric items_per_second counts queries, so
    # the ratio is B=1 over B=8 throughput.
    (
        "BM_ScoreTopPBatch/100000/256/1",
        "BM_ScoreTopPBatch/100000/256/8",
        1.0 / 1.5,
        "batch-tiled scan B=8 per-query throughput vs B=1 (n=100k, d=256)",
        "items_per_second",
    ),
    # The same bound for query-sensitive queries with a negative weight:
    # they never abandon, but score inside the same tiled pass instead
    # of a full pass each.
    (
        "BM_ScoreTopPBatchNegative/100000/256/1",
        "BM_ScoreTopPBatchNegative/100000/256/8",
        1.0 / 1.5,
        "batch-tiled scan of negative-weight queries B=8 per-query "
        "throughput vs B=1 (n=100k, d=256)",
        "items_per_second",
    ),
    # Runtime dispatch on the exact path must never lose to the seed
    # scalar scan it replaced (same math, same bits, wider registers).
    (
        "BM_FilterScanPrecision_Exact64",
        "BM_FilterScanPrecision_SeedScalar",
        1.10,
        "dispatched exact64 scan vs seed scalar scan (n=1M, d=256)",
        "real_time",
    ),
    # The mixed-precision acceptance gates (host-tier adaptive).
    (
        "BM_FilterScanPrecision_Filter32",
        "BM_FilterScanPrecision_SeedScalar",
        filter32_speedup_bound,
        "float32 filter scan speedup vs seed scalar (n=1M, d=256)",
        "real_time",
    ),
    (
        "BM_FilterScanPrecision_Filter8",
        "BM_FilterScanPrecision_SeedScalar",
        filter8_speedup_bound,
        "int8 filter scan speedup vs seed scalar (n=1M, d=256)",
        "real_time",
    ),
]

# (benchmark, counter, min value, label).  google-benchmark user
# counters (e.g. the recall_at_k counters the precision scans emit)
# appear as top-level fields of a benchmark entry; a floor fails when
# the value drops below the minimum.  Recall here is deterministic —
# the reduced kernels are bit-identical across ISA tiers and the
# widened abandon threshold is rounding-safe — so the floors are tight
# (both modes measure recall 1.0 at p=500 over the true top-100).
FLOOR_RULES = [
    # The observability acceptance bar: the sampled sharded-server
    # request's spans must account for >= 95% of the wall-clock between
    # admit and completion — no invisible pipeline stage.  (The entry is
    # absent from -DQSE_DISABLE_TRACING builds; --strict CI runs the
    # default build, where it is mandatory.)
    (
        "SL_Trace/sharded",
        "trace_coverage",
        0.95,
        "sampled sharded request: span coverage of admit-to-completion",
    ),
    (
        "SL_Trace/sharded",
        "trace_spans",
        10,
        "sampled sharded request: span count (server + engine stages)",
    ),
    (
        "BM_FilterScanPrecision_Filter32",
        "recall_at_10",
        0.995,
        "float32 filter recall@10 (n=1M, d=256, p=500)",
    ),
    (
        "BM_FilterScanPrecision_Filter32",
        "recall_at_100",
        0.99,
        "float32 filter recall@100 (n=1M, d=256, p=500)",
    ),
    (
        "BM_FilterScanPrecision_Filter8",
        "recall_at_10",
        0.995,
        "int8 filter recall@10 (n=1M, d=256, p=500)",
    ),
    (
        "BM_FilterScanPrecision_Filter8",
        "recall_at_100",
        0.99,
        "int8 filter recall@100 (n=1M, d=256, p=500)",
    ),
    # The drift-detection acceptance gates.  Injected abrupt drift MUST
    # raise the alarm (the whole monitor exists for this signal), and the
    # alarm must be about a real degradation of audited recall.
    (
        "SL_Drift/mono/abrupt",
        "alarm_raised",
        1,
        "injected abrupt drift raises qse_quality_drift_alarm",
    ),
    (
        "SL_Drift/mono/abrupt",
        "recall_degradation",
        0.02,
        "audited recall actually degraded when the alarm fired",
    ),
    # p = n degenerates to exact brute force: every audited answer is
    # bit-identical to ground truth, so windowed recall is exactly 1.
    (
        "SL_Drift/sharded/verify_pn",
        "exact_recall",
        1.0,
        "p = n verify run: audited recall exactly 1",
    ),
    (
        "SL_Drift/sharded/verify_pn",
        "audits_completed",
        1,
        "p = n verify run actually audited something",
    ),
    (
        "SL_Drift/mono/control",
        "audits_completed",
        1,
        "control run: background audits completed under load",
    ),
    # Hedging must actually race and win against the injected-delay
    # replica — a hedge path that silently stopped firing would pass the
    # ratio rule on a healthy-enough cluster.
    (
        "SL_Remote/cluster/hedged",
        "hedge_wins",
        1,
        "hedged cluster run: at least one hedge won its race",
    ),
    # Warm restart must actually replay a WAL tail over the snapshot —
    # a recovery that found nothing to replay exercised only half the
    # path (the bench appends tail records after its last snapshot to
    # guarantee this has something to chew on).
    (
        "SL_Recover/mono/recovery",
        "replayed_records",
        1,
        "warm restart replayed a WAL tail over the snapshot",
    ),
]

# (benchmark, counter, max value, label).  The inverse of FLOOR_RULES:
# absolute ceilings on user counters.  A ceiling of 0 means "never".
CEILING_RULES = [
    # A stationary workload must not alarm — a drift detector that cries
    # wolf gets ignored, which is worse than no detector.
    (
        "SL_Drift/mono/control",
        "false_alarms",
        0,
        "no-drift control run raises zero drift alarms",
    ),
    # Auditing sheds under pressure by design, but the control load must
    # leave the worker mostly keeping up.
    (
        "SL_Drift/mono/control",
        "audit_shed_ratio",
        0.5,
        "control run: audit shed ratio bounded",
    ),
    # Alarm latency: audit-every-query means post-onset audits == queries
    # after the change; Page-Hinkley needs only ~lambda/drop of them
    # (measured: 2-3).
    (
        "SL_Drift/mono/abrupt",
        "audits_to_alarm",
        64,
        "abrupt drift alarm latency (audited queries past onset)",
    ),
    # The bit-identity acceptance: p = n and nothing drifting, so every
    # served answer equals exact kNN over the same pinned snapshots.
    (
        "SL_Drift/sharded/verify_pn",
        "audit_mismatches",
        0,
        "p = n verify run: zero served-vs-exact mismatches",
    ),
    # The multi-node acceptance pair: the composed remote cluster must
    # answer bit-identically to the in-process sharded engine, and a
    # SIGKILLed replica must be invisible to callers (failover, not
    # failures).
    (
        "SL_Remote/parity",
        "parity_mismatches",
        0,
        "remote cluster bit-identical to in-process sharded engine",
    ),
    (
        "SL_Remote/cluster/killed",
        "failed_requests",
        0,
        "replica kill: zero caller-visible request failures",
    ),
    # The durability acceptance pair: the engine recovered from
    # snapshot + WAL replay answers bit-identically to the live engine
    # it mirrors (memcmp over rows and ids, plus query answer parity),
    # and the warm restart finishes in interactive time — the ceiling is
    # a blowup guard over the ~millisecond restart the bench measures.
    (
        "SL_Recover/mono/recovery",
        "parity_mismatches",
        0,
        "recovered engine bit-identical to the live WAL-on engine",
    ),
    (
        "SL_Recover/mono/recovery",
        "recovery_ms",
        30000,
        "warm restart (snapshot load + WAL replay) bounded",
    ),
]


# (section, metric name, min value, label).  Presence floors over the
# server_load metrics snapshot (--metrics server_load_metrics.json): one
# run must register and bump the counters of every instrumented layer —
# an instrumentation point silently falling out of the build fails here,
# not in a dashboard weeks later.  Histogram floors check the merged
# observation count.  A name ending in "*" matches any metric with that
# prefix (labeled series whose label values vary run to run, e.g. the
# commit in qse_build_info).
METRIC_FLOORS = [
    ("counters", "qse_engine_retrievals_total", 1,
     "monolithic engine retrievals recorded"),
    ("counters", "qse_engine_filter_rows_visited_total", 1,
     "monolithic filter scan row accounting"),
    ("counters", "qse_sharded_retrievals_total", 1,
     "sharded engine retrievals recorded"),
    ("counters", "qse_sharded_filter_rows_visited_total", 1,
     "sharded filter scan row accounting"),
    ("counters", "qse_server_submitted_total", 1,
     "server admission accounting (submitted)"),
    ("counters", "qse_server_completed_total", 1,
     "server admission accounting (completed)"),
    ("histograms", "qse_server_batch_size", 1,
     "server batch-size histogram populated"),
    ("histograms", "qse_sharded_scatter_latency_ns", 1,
     "sharded scatter stage latency recorded"),
    ("histograms", "qse_engine_filter_latency_ns", 1,
     "monolithic filter stage latency recorded"),
    # The quality monitor's instruments, bumped by the control run.
    ("counters", "qse_quality_audits_sampled_total", 1,
     "quality audits sampled off the hot path"),
    ("counters", "qse_quality_audits_completed_total", 1,
     "quality audits completed by the background worker"),
    # Windowed audited recall: a float gauge in [0, 1].  0.5 is a
    # sanity floor, not a target — the control run audits an exact-ish
    # p/n configuration and measures ~1.0.
    ("gauges", "qse_quality_recall_at_k", 0.5,
     "audited recall gauge populated and sane"),
    # Identity gauge: labels carry the commit, so prefix-match.
    ("gauges", "qse_build_info*", 1,
     "build identity gauge registered at startup"),
    # The remote cluster's client-side instruments (server-side twins
    # live in the child processes and are not exported here).  Replica
    # series carry labels-in-name, so prefix-match.
    ("counters", "qse_remote_rpcs_total", 1,
     "remote RPCs issued by the cluster phases"),
    ("counters", "qse_replica_attempts_total*", 1,
     "hedged replica attempt accounting"),
    ("histograms", "qse_remote_rpc_latency_ns", 1,
     "remote RPC latency recorded"),
    # The durability subsystem's instruments, bumped by SL_Recover.
    ("counters", "qse_persist_wal_records_total", 1,
     "WAL records appended by the WAL-on run"),
    ("counters", "qse_persist_wal_bytes_total", 1,
     "WAL byte accounting"),
    ("counters", "qse_persist_fsyncs_total", 1,
     "WAL fsyncs issued under the every-N policy"),
    ("counters", "qse_persist_snapshots_total", 1,
     "compacted snapshots published"),
    ("counters", "qse_persist_replay_records_total", 1,
     "warm restart replayed records through the engine"),
    ("histograms", "qse_persist_snapshot_duration_ns", 1,
     "snapshot encode+publish duration recorded"),
    ("histograms", "qse_persist_fsync_latency_ns", 1,
     "WAL fsync latency recorded"),
]

# Benchmarks compared across the two builds of --overhead-pair mode
# (instrumented vs -DQSE_DISABLE_TRACING): metrics/span sites compiled
# to dead branches must leave the serving tail within the budget.
OVERHEAD_PAIR_BENCHMARKS = [
    "SL_Closed/mono/async_adaptive",
    "SL_Closed/mono/async_b1",
]


def check_metric_floors(path, failures):
    """Applies METRIC_FLOORS to one obs::MetricsJson snapshot."""
    with open(path) as f:
        doc = json.load(f)
    for section, name, minimum, label in METRIC_FLOORS:
        table = doc.get(section, {})
        if name.endswith("*"):
            prefix = name[:-1]
            matches = [v for k, v in table.items() if k.startswith(prefix)]
            entry = matches[0] if matches else None
        else:
            entry = table.get(name)
        value = None
        if section == "histograms":
            if entry is not None:
                value = entry.get("count")
        else:
            value = entry
        if value is None:
            msg = f"MISSING  {label}: {section}/{name} absent from {path}"
            print(msg)
            failures.append(msg)
            continue
        status = "FAIL" if float(value) < minimum else "ok"
        print(f"{status:7}  {label}: {name} = {value} (floor {minimum})")
        if float(value) < minimum:
            failures.append(label)


def check_overhead_pair(instrumented_path, disabled_path, failures):
    """The observability overhead gate: p99 of the instrumented build vs
    the -DQSE_DISABLE_TRACING build, same configurations, two runs."""
    instrumented = load_benchmarks([instrumented_path])
    disabled = load_benchmarks([disabled_path])
    bound = tracing_overhead_bound()
    for name in OVERHEAD_PAIR_BENCHMARKS:
        num = metric_value(instrumented, name, "p99")
        den = metric_value(disabled, name, "p99")
        label = f"tracing overhead budget: {name} p99, instrumented vs off"
        if num is None or den is None:
            msg = f"MISSING  {label}: needs p99 in both runs"
            print(msg)
            failures.append(msg)
            continue
        if num <= 0 or den <= 0:
            msg = f"DEGENERATE  {label}: p99 {num} vs {den} (must be > 0)"
            print(msg)
            failures.append(msg)
            continue
        ratio = num / den
        status = "FAIL" if ratio > bound else "ok"
        print(f"{status:7}  {label}: ratio {ratio:.3f} (bound {bound:.2f})")
        if ratio > bound:
            failures.append(label)


def load_benchmarks(paths):
    benchmarks = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            benchmarks[bench["name"]] = bench
    return benchmarks


def metric_value(benchmarks, name, metric):
    """The metric for one benchmark, or None when absent — a rule whose
    metric a benchmark does not emit (e.g. p99 on a mean-only entry) is
    reported missing rather than silently passed."""
    bench = benchmarks.get(name)
    if bench is None or metric not in bench:
        return None
    return float(bench[metric])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark_json", nargs="*")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a rule's benchmarks are missing")
    parser.add_argument("--metrics", metavar="METRICS_JSON",
                        help="obs::MetricsJson snapshot (server_load "
                             "--out stem + _metrics.json) to apply "
                             "instrumentation presence floors to")
    parser.add_argument("--overhead-pair", nargs=2,
                        metavar=("INSTRUMENTED_JSON", "DISABLED_JSON"),
                        help="server_load outputs from the default build "
                             "and a -DQSE_DISABLE_TRACING build; gates "
                             "the p99 cost of compiled-in observability")
    args = parser.parse_args()
    if not args.benchmark_json and not args.metrics and not args.overhead_pair:
        parser.error("nothing to check: give benchmark JSON files, "
                     "--metrics, or --overhead-pair")

    failures = []
    if args.overhead_pair:
        check_overhead_pair(args.overhead_pair[0], args.overhead_pair[1],
                            failures)
    if args.metrics:
        check_metric_floors(args.metrics, failures)
    if not args.benchmark_json:
        if failures:
            print(f"\n{len(failures)} benchmark threshold(s) violated:",
                  file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nall benchmark thresholds satisfied")
        return 0

    benchmarks = load_benchmarks(args.benchmark_json)
    for numerator, denominator, bound, label, metric in RULES:
        if callable(bound):
            bound = bound()
        num = metric_value(benchmarks, numerator, metric)
        den = metric_value(benchmarks, denominator, metric)
        if num is None or den is None:
            msg = (f"MISSING  {label}: needs {metric} of {numerator} "
                   f"and {denominator}")
            print(msg)
            if args.strict:
                failures.append(msg)
            continue
        if num <= 0 or den <= 0:
            # A zero metric is a broken benchmark, not a passing ratio —
            # e.g. a lane that completed nothing emits p99 = 0.  Fail
            # loudly instead of dividing by zero or silently passing.
            msg = (f"DEGENERATE  {label}: {metric} of {numerator} = {num}, "
                   f"{denominator} = {den} (must be > 0)")
            print(msg)
            failures.append(msg)
            continue
        ratio = num / den
        status = "FAIL" if ratio > bound else "ok"
        print(f"{status:7}  {label}: ratio {ratio:.3f} (bound {bound:.2f}, "
              f"speedup {1.0 / ratio:.2f}x)")
        if ratio > bound:
            failures.append(label)

    for name, counter, floor, label in FLOOR_RULES:
        val = metric_value(benchmarks, name, counter)
        if val is None:
            msg = f"MISSING  {label}: needs {counter} of {name}"
            print(msg)
            if args.strict:
                failures.append(msg)
            continue
        status = "FAIL" if val < floor else "ok"
        print(f"{status:7}  {label}: {val:.4f} (floor {floor:.3f})")
        if val < floor:
            failures.append(label)

    for name, counter, ceiling, label in CEILING_RULES:
        val = metric_value(benchmarks, name, counter)
        if val is None:
            msg = f"MISSING  {label}: needs {counter} of {name}"
            print(msg)
            if args.strict:
                failures.append(msg)
            continue
        status = "FAIL" if val > ceiling else "ok"
        print(f"{status:7}  {label}: {val:.4f} (ceiling {ceiling:.3f})")
        if val > ceiling:
            failures.append(label)

    if failures:
        print(f"\n{len(failures)} benchmark threshold(s) violated:",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall benchmark thresholds satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
