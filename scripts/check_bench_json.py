#!/usr/bin/env python3
"""Validates a bench --json document against the shared result schema.

Every JSON-emitting bench writes one envelope:
    {"bench": <str>, "config": <object>, "metrics": <object>}
Known benches get extra structural checks.  Exit 0 = valid.

Usage: scripts/check_bench_json.py <path> [<path>...]
"""
import json
import sys


def fail(path, msg):
    print(f"{path}: SCHEMA ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def check_envelope(path, doc):
    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    for key, typ in (("bench", str), ("config", dict), ("metrics", dict)):
        if key not in doc:
            fail(path, f"missing key '{key}'")
        if not isinstance(doc[key], typ):
            fail(path, f"'{key}' must be {typ.__name__}")


def check_tenant(path, tenant):
    for key in ("name", "ops", "gbs", "share", "p50_us", "p99_us", "p999_us"):
        if key not in tenant:
            fail(path, f"tenant missing '{key}'")


IO_CLASSES = ("fg-read", "fg-write", "cleaner-gc", "prefetch", "migration")


def check_busy(path, busy, where):
    """Shared-resource occupancy with per-IoClass slices (ns)."""
    if not isinstance(busy, dict):
        fail(path, f"{where}.busy_ns must be an object")
    for key in ("total", "stall") + IO_CLASSES:
        if key not in busy:
            fail(path, f"{where}.busy_ns missing '{key}'")
    # Every reservation accrues to one class, so the slices sum to the
    # total; bound them from above (1 ns of slack for the accumulation).
    sliced = sum(busy[c] for c in IO_CLASSES)
    if sliced > busy["total"] + 1:
        fail(path, f"{where}.busy_ns class slices exceed the total")


def check_scenario(path, s):
    for key in ("name", "policy", "jain_index", "aggregate_gbs", "makespan_s",
                "cluster", "fabric", "busy_ns", "tenants"):
        if key not in s:
            fail(path, f"scenario '{s.get('name')}' missing '{key}'")
    check_busy(path, s["busy_ns"], f"scenario '{s['name']}'")
    for key in ("stalled_writes", "append_stall_ms", "segments_cleaned",
                "tenant_segments_cleaned"):
        if key not in s["cluster"]:
            fail(path, f"scenario '{s['name']}' cluster missing '{key}'")
    for key in ("vm_tx_bytes", "vm_rx_bytes", "vm_tx_util",
                "node_tx_bytes", "node_rx_bytes"):
        if key not in s["fabric"]:
            fail(path, f"scenario '{s['name']}' fabric missing '{key}'")
    if not s["tenants"]:
        fail(path, f"scenario '{s['name']}' has no tenants")
    for tenant in s["tenants"]:
        check_tenant(path, tenant)


def check_placement_scenario(path, s):
    for key in ("name", "jain_index", "aggregate_gbs", "makespan_s",
                "victim_mean_interference", "per_cluster_jain",
                "per_cluster_aggregate_gbs", "initial_cluster",
                "final_cluster", "migrations", "migration_pages_copied",
                "migration_frozen_ms", "busy_ns", "tenants"):
        if key not in s:
            fail(path, f"placement scenario '{s.get('name')}' missing '{key}'")
    check_busy(path, s["busy_ns"], f"placement scenario '{s['name']}'")
    if len(s["per_cluster_jain"]) != len(s["per_cluster_aggregate_gbs"]):
        fail(path, "per-cluster arrays disagree on the cluster count")
    if len(s["initial_cluster"]) != len(s["final_cluster"]):
        fail(path, "initial/final cluster assignments differ in length")
    for tenant in s["tenants"]:
        check_tenant(path, tenant)


def check_parallel(path, par):
    for key in ("threads", "wall_s", "sim_events", "events_per_sec"):
        if key not in par:
            fail(path, f"parallel block missing '{key}'")
    if not isinstance(par["threads"], int) or par["threads"] < 2:
        fail(path, "parallel.threads must be an int >= 2")
    if par["sim_events"] <= 0 or par["events_per_sec"] <= 0:
        fail(path, "parallel block must report positive event counts/rates")


def check_placement(path, placement):
    clusters = placement.get("clusters")
    if not isinstance(clusters, int) or clusters < 2:
        fail(path, "metrics.placement.clusters must be an int >= 2")
    # The parallel-engine trajectory rides along when --threads > 1.
    if "parallel" in placement:
        check_parallel(path, placement["parallel"])
    policies = placement.get("policies")
    if not isinstance(policies, list) or not policies:
        fail(path, "metrics.placement.policies must be a non-empty array")
    for p in policies:
        if "placement" not in p:
            fail(path, "placement policy entry missing 'placement'")
        if not isinstance(p.get("scenarios"), list) or not p["scenarios"]:
            fail(path, f"placement '{p['placement']}' needs scenarios")
        for s in p["scenarios"]:
            check_placement_scenario(path, s)
    relief = placement.get("migration_relief")
    if relief is not None:
        for key in ("scenario", "watermark", "packed", "relieved",
                    "stall_ms_packed", "stall_ms_relieved",
                    "aggregate_gbs_packed", "aggregate_gbs_relieved",
                    "migrations"):
            if key not in relief:
                fail(path, f"migration_relief missing '{key}'")
        check_placement_scenario(path, relief["packed"])
        check_placement_scenario(path, relief["relieved"])


def check_multi_tenant(path, metrics):
    scenarios = metrics.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail(path, "metrics.scenarios must be a non-empty array")
    expected = {"noisy-neighbor", "fair-share", "cleaner-pressure",
                "burst-collision"}
    names = {s.get("name") for s in scenarios}
    if not expected <= names:
        fail(path, f"missing scenarios: {sorted(expected - names)}")
    for s in scenarios:
        check_scenario(path, s)
    # The scheduling-policy study: per-policy scenario reruns plus the
    # buy-back summary against the FIFO baseline.
    policies = metrics.get("policies")
    if not isinstance(policies, list):
        fail(path, "metrics.policies must be an array")
    for p in policies:
        if "policy" not in p or p["policy"] not in ("wfq", "prio"):
            fail(path, f"policy entry has bad 'policy': {p.get('policy')}")
        if not isinstance(p.get("scenarios"), list) or not p["scenarios"]:
            fail(path, f"policy '{p['policy']}' needs a scenarios array")
        for s in p["scenarios"]:
            check_scenario(path, s)
    buyback = metrics.get("buyback")
    if not isinstance(buyback, list):
        fail(path, "metrics.buyback must be an array")
    for b in buyback:
        for key in ("policy", "victim_interference_improvement",
                    "fair_share_jain"):
            if key not in b:
                fail(path, f"buyback entry missing '{key}'")
    # The cross-cluster placement study rides along when --clusters > 1.
    if "placement" in metrics:
        check_placement(path, metrics["placement"])
    # The replay-driven study rides along with --trace / --trace-gen.
    if "replay" in metrics:
        check_replay_block(path, metrics["replay"])
        # Per-policy replay reruns ride along when --sched allows
        # alternatives next to the replay flags.
        for p in metrics["replay"].get("policies", []):
            if "policy" not in p or p["policy"] not in ("wfq", "prio"):
                fail(path, "replay policy entry has bad 'policy': "
                           f"{p.get('policy')}")
            if not isinstance(p.get("scenarios"), list) or not p["scenarios"]:
                fail(path, f"replay policy '{p['policy']}' needs scenarios")


def check_violations(path, violations):
    if not isinstance(violations, list):
        fail(path, "violations must be an array")
    for v in violations:
        for key in ("rule", "severity", "detail"):
            if key not in v:
                fail(path, f"violation entry missing '{key}'")


def check_replay_block(path, replay):
    for key in ("rate_scale", "trace_paths", "scenarios"):
        if key not in replay:
            fail(path, f"metrics.replay missing '{key}'")
    if not isinstance(replay["scenarios"], list) or not replay["scenarios"]:
        fail(path, "metrics.replay.scenarios must be a non-empty array")
    for s in replay["scenarios"]:
        for key in ("name", "policy", "jain_index", "aggregate_gbs",
                    "makespan_s", "tenants"):
            if key not in s:
                fail(path, f"replay scenario '{s.get('name')}' missing "
                           f"'{key}'")
        if not s["tenants"]:
            fail(path, f"replay scenario '{s['name']}' has no tenants")
        for tenant in s["tenants"]:
            check_tenant(path, tenant)
            for key in ("slowdown_p50_us", "slowdown_p99_us", "backlog_peak",
                        "trace", "violations"):
                if key not in tenant:
                    fail(path, f"replay tenant '{tenant.get('name')}' "
                               f"missing '{key}'")
            for key in ("events", "offered_gbs", "peak_to_mean"):
                if key not in tenant["trace"]:
                    fail(path, f"replay tenant trace missing '{key}'")
            check_violations(path, tenant["violations"])


def check_fig2(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 2:
        fail(path, "metrics.devices must list the two ESSD profiles")
    for dev in devices:
        matrices = dev.get("matrices")
        if not isinstance(matrices, list) or len(matrices) != 4:
            fail(path, "each device needs 4 workload matrices")
        for m in matrices:
            if not isinstance(m.get("cells"), list) or not m["cells"]:
                fail(path, "each matrix needs a non-empty cells array")
            for cell in m["cells"]:
                for key in ("io_bytes", "queue_depth", "avg_us", "p999_us",
                            "avg_gap", "p999_gap"):
                    if key not in cell:
                        fail(path, f"latency cell missing '{key}'")


def check_table1(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "capacity_bytes", "seq_read_gbs",
                    "rand_write_kiops"):
            if key not in dev:
                fail(path, f"device row missing '{key}'")


def check_fig3(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "capacity_bytes", "total_written_bytes",
                    "wall_time_s", "timeline"):
            if key not in dev:
                fail(path, f"gc device row missing '{key}'")
        if not isinstance(dev["timeline"], list) or not dev["timeline"]:
            fail(path, "each gc device needs a non-empty timeline")
        for point in dev["timeline"]:
            for key in ("time_s", "gb_per_s"):
                if key not in point:
                    fail(path, f"timeline point missing '{key}'")


def check_fig5(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "guaranteed_gbs", "mean_gbs", "cv", "sweep"):
            if key not in dev:
                fail(path, f"budget device row missing '{key}'")
        if not isinstance(dev["sweep"], list) or not dev["sweep"]:
            fail(path, "each budget device needs a non-empty sweep")
        for cell in dev["sweep"]:
            for key in ("write_pct", "total_gbs", "write_gbs"):
                if key not in cell:
                    fail(path, f"sweep cell missing '{key}'")


def check_fig4(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "max_gain", "cells"):
            if key not in dev:
                fail(path, f"pattern-gain device row missing '{key}'")
        if not isinstance(dev["cells"], list) or not dev["cells"]:
            fail(path, "each pattern-gain device needs a non-empty cells array")
        for cell in dev["cells"]:
            for key in ("io_bytes", "queue_depth", "rand_gbs", "seq_gbs",
                        "gain"):
                if key not in cell:
                    fail(path, f"pattern-gain cell missing '{key}'")


def check_ablation_essd(path, metrics):
    for sweep, keys in (
            ("chunk_bandwidth", ("node_append_mbps", "rand_gbs", "seq_gbs",
                                 "gain")),
            ("replication", ("replication", "rand_gbs", "qd1_avg_us")),
            ("cleaner_vs_spare", ("cleaner_mbps", "spare_xcap", "cliff_found",
                                  "cliff_xcap", "post_gbs"))):
        rows = metrics.get(sweep)
        if not isinstance(rows, list) or not rows:
            fail(path, f"metrics.{sweep} must be a non-empty array")
        for row in rows:
            for key in keys:
                if key not in row:
                    fail(path, f"{sweep} row missing '{key}'")


def check_ablation_gc(path, metrics):
    sweep = metrics.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail(path, "metrics.sweep must be a non-empty array")
    for row in sweep:
        for key in ("spare_superblocks", "cliff_found", "cliff_xcap",
                    "plateau_gbs", "final_gbs", "write_amplification",
                    "stall_pct"):
            if key not in row:
                fail(path, f"gc sweep row missing '{key}'")
    spares = [row["spare_superblocks"] for row in sweep]
    if any(b <= a for a, b in zip(spares, spares[1:])):
        fail(path, f"spare_superblocks must strictly increase: {spares}")


def check_sim_micro(path, metrics):
    benchmarks = metrics.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(path, "metrics.benchmarks must be a non-empty array")
    for b in benchmarks:
        for key in ("name", "iterations", "real_ns_per_iter",
                    "cpu_ns_per_iter", "events_per_sec"):
            if key not in b:
                fail(path, f"benchmark row missing '{key}'")
        if b["events_per_sec"] <= 0:
            fail(path, f"benchmark '{b['name']}' events_per_sec must be > 0")
    # The parallel trajectory: when the shard-replay family ran, every
    # requested thread count must have produced a row (events/sec at 1, 2,
    # and 4 workers is the single- vs multi-thread comparison artifact).
    parallel = [b for b in benchmarks
                if b["name"].startswith("BM_ParallelShardReplay")]
    if parallel and len(parallel) < 3:
        fail(path, "BM_ParallelShardReplay must report all thread counts "
                   f"(got {len(parallel)} rows)")
    # Same contract for the persistent-pool barrier bench: the epoch-sliced
    # engine's headline is barrier cost vs. worker count, so a run that
    # dropped a thread count is not a usable trajectory point.
    barrier = [b for b in benchmarks
               if b["name"].startswith("BM_ParallelEpochBarrier")]
    if barrier and len(barrier) < 3:
        fail(path, "BM_ParallelEpochBarrier must report all thread counts "
                   f"(got {len(barrier)} rows)")
    # The cleaner rung: its point is how a cycle scales with the chunk-log
    # count, so all three registry sizes must be present.
    cleaner = {b["name"].split("/")[1] for b in benchmarks
               if b["name"].startswith("BM_CleanerPick/")}
    if cleaner and cleaner != {"10", "100", "1000"}:
        fail(path, "BM_CleanerPick must report 10, 100 and 1000 chunk logs "
                   f"(got {sorted(cleaner)})")
    # The chunk-log clean rung compares the ESSD and fleet geometries, so
    # both must be present.
    chunk_clean = {b["name"].split("/")[1] for b in benchmarks
                   if b["name"].startswith("BM_ChunkLogClean/")}
    if chunk_clean and chunk_clean != {"0", "1"}:
        fail(path, "BM_ChunkLogClean must report the ESSD (0) and fleet (1) "
                   f"geometries (got {sorted(chunk_clean)})")
    # So does the chunk-log append-run rung.
    append_run = {b["name"].split("/")[1] for b in benchmarks
                  if b["name"].startswith("BM_ChunkLogAppendRun/")}
    if append_run and append_run != {"0", "1"}:
        fail(path, "BM_ChunkLogAppendRun must report the ESSD (0) and fleet "
                   f"(1) geometries (got {sorted(append_run)})")
    # The node-cache rung compares the read and write-invalidate mixes, so
    # both must be present.
    node_cache = {b["name"].split("/")[1] for b in benchmarks
                  if b["name"].startswith("BM_NodeCache/")}
    if node_cache and node_cache != {"0", "1"}:
        fail(path, "BM_NodeCache must report the read (0) and "
                   f"write-invalidate (1) mixes (got {sorted(node_cache)})")
    # The tenant result-state rung is one row counting lifecycles: it must
    # report items so its events_per_sec is lifecycles per second, not
    # iterations of whatever the reporter fell back to.
    lifecycle = [b for b in benchmarks
                 if b["name"].startswith("BM_TenantStatsLifecycle")]
    if len(lifecycle) > 1:
        fail(path, "BM_TenantStatsLifecycle must report exactly one row "
                   f"(got {len(lifecycle)})")
    if lifecycle and not lifecycle[0].get("items_per_second", 0) > 0:
        fail(path, "BM_TenantStatsLifecycle must report items_per_second "
                   "(tenant lifecycles per second)")
    # The event-kernel hot-path family: the trajectory artifact needs the
    # steady-state, same-time and burst-drain rows together — a partial run
    # would make before/after kernel comparisons meaningless.
    kernel = {b["name"].split("/")[0] for b in benchmarks
              if b["name"].startswith("BM_EventKernel")}
    expected_kernel = {"BM_EventKernelSteadyState", "BM_EventKernelSameTime",
                       "BM_EventKernelBurstDrain"}
    if kernel and kernel != expected_kernel:
        fail(path, "BM_EventKernel family mismatch: missing "
                   f"{sorted(expected_kernel - kernel)}, unexpected "
                   f"{sorted(kernel - expected_kernel)}")


def check_impl1(path, metrics):
    steps = metrics.get("steps")
    if not isinstance(steps, list) or not steps:
        fail(path, "metrics.steps must be a non-empty array")
    for step in steps:
        for key in ("io_bytes", "queue_depth", "essd1", "essd2", "ssd",
                    "gap1", "gap2"):
            if key not in step:
                fail(path, f"impl1 step missing '{key}'")
        for dev in ("essd1", "essd2", "ssd"):
            for key in ("avg_us", "p999_us", "gbs"):
                if key not in step[dev]:
                    fail(path, f"impl1 step.{dev} missing '{key}'")


def check_impl3(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "inplace_gbs", "log_wa2_gbs", "log_wa3_gbs",
                    "best"):
            if key not in dev:
                fail(path, f"impl3 device row missing '{key}'")
        if dev["best"] not in ("in-place random", "log-structured"):
            fail(path, f"impl3 unknown best strategy: {dev['best']}")


def check_impl4(path, metrics):
    trace = metrics.get("trace")
    if not isinstance(trace, dict):
        fail(path, "metrics.trace must be an object")
    for key in ("events", "duration_s", "mean_gbs", "peak_to_mean"):
        if key not in trace:
            fail(path, f"impl4 trace missing '{key}'")
    sweep = metrics.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail(path, "metrics.sweep must be a non-empty array")
    for row in sweep:
        for key in ("budget_gbs", "smoothed", "p50_ms", "p999_ms",
                    "max_queue"):
            if key not in row:
                fail(path, f"impl4 sweep row missing '{key}'")


def check_impl5(path, metrics):
    devices = metrics.get("devices")
    if not isinstance(devices, list) or len(devices) != 3:
        fail(path, "metrics.devices must list ESSD-1, ESSD-2, and the SSD")
    for dev in devices:
        for key in ("device", "raw_gbs", "reduced_gbs", "speedup",
                    "raw_avg_us", "reduced_avg_us"):
            if key not in dev:
                fail(path, f"impl5 device row missing '{key}'")


def check_trace_replay(path, metrics):
    trace = metrics.get("trace")
    if not isinstance(trace, dict):
        fail(path, "metrics.trace must be an object")
    for key in ("events", "span_s", "offered_gbs", "offered_iops",
                "peak_to_mean", "small_io_byte_fraction"):
        if key not in trace:
            fail(path, f"trace_replay trace missing '{key}'")
    for leg in ("scale_replay", "overload_replay"):
        run = metrics.get(leg)
        if not isinstance(run, dict):
            fail(path, f"metrics.{leg} must be an object")
        for key in ("offered_gbs", "achieved_gbs", "slowdown_p50_ms",
                    "slowdown_p99_ms", "backlog_peak", "violations"):
            if key not in run:
                fail(path, f"{leg} missing '{key}'")
        check_violations(path, run["violations"])
    closed = metrics.get("closed_loop")
    if not isinstance(closed, dict):
        fail(path, "metrics.closed_loop must be an object")
    for key in ("gbs", "p50_ms", "p99_ms"):
        if key not in closed:
            fail(path, f"closed_loop missing '{key}'")
    div = metrics.get("divergence")
    if not isinstance(div, dict):
        fail(path, "metrics.divergence must be an object")
    for key in ("open_p99_slowdown_ms", "closed_p99_latency_ms", "ratio"):
        if key not in div:
            fail(path, f"divergence missing '{key}'")
    # The sharded fleet leg rides along when --clusters > 1.
    mc = metrics.get("multi_cluster")
    if mc is not None:
        for key in ("clusters", "threads", "shards", "wall_s",
                    "replayed_events", "sim_events", "events_per_sec",
                    "digests", "tenants"):
            if key not in mc:
                fail(path, f"multi_cluster missing '{key}'")
        if mc["events_per_sec"] <= 0 or mc["sim_events"] <= 0:
            fail(path, "multi_cluster must report positive event counts")
        digests = mc["digests"]
        if (not isinstance(digests, list)
                or len(digests) != mc["shards"]
                or not all(isinstance(d, str) and len(d) == 16
                           for d in digests)):
            fail(path, "multi_cluster.digests must hold one 16-hex-char "
                       "string per shard")
        if not isinstance(mc["tenants"], list) or not mc["tenants"]:
            fail(path, "multi_cluster.tenants must be a non-empty array")
        for t in mc["tenants"]:
            for key in ("name", "events", "offered_gbs", "achieved_gbs",
                        "slowdown_p50_ms", "slowdown_p99_ms", "backlog_peak",
                        "violations"):
                if key not in t:
                    fail(path, f"multi_cluster tenant missing '{key}'")
            check_violations(path, t["violations"])


def check_fleet_leg(path, leg, where):
    for key in ("policy", "worst_p999_us", "worst_slowdown_p999_us",
                "worst_tenant", "mean_p999_us", "active_tenants",
                "jain_clusters", "aggregate_gbs", "migrations",
                "peak_concurrent_migrations", "migration_bytes_copied",
                "makespan_s", "wall_s", "sim_events", "events_per_sec",
                "busy_ns", "digests"):
        if key not in leg:
            fail(path, f"{where} missing '{key}'")
    if leg["sim_events"] <= 0 or leg["events_per_sec"] <= 0:
        fail(path, f"{where} must report positive event counts/rates")
    if leg["active_tenants"] <= 0 or leg["worst_p999_us"] <= 0:
        fail(path, f"{where} must have measured at least one tenant")
    if not (0.0 < leg["jain_clusters"] <= 1.0 + 1e-9):
        fail(path, f"{where} jain_clusters out of (0, 1]")
    digests = leg["digests"]
    if (not isinstance(digests, list) or not digests
            or not all(isinstance(d, str) and len(d) == 16 for d in digests)):
        fail(path, f"{where}.digests must be non-empty 16-hex-char strings")
    check_busy(path, leg["busy_ns"], where)


def check_fleet(path, metrics):
    fleet = metrics.get("fleet")
    if not isinstance(fleet, dict):
        fail(path, "metrics.fleet must be an object")
    for key in ("clusters", "tenants", "threads", "total_capacity_bytes",
                "churned_tenants", "policies", "delta", "rebalance"):
        if key not in fleet:
            fail(path, f"metrics.fleet missing '{key}'")
    policies = fleet["policies"]
    if not isinstance(policies, list) or len(policies) != 2:
        fail(path, "metrics.fleet.policies must hold the two static legs")
    for leg in policies:
        check_fleet_leg(path, leg, f"fleet policy '{leg.get('policy')}'")
    delta = fleet["delta"]
    for key in ("baseline", "candidate", "worst_p999_ratio",
                "candidate_wins"):
        if key not in delta:
            fail(path, f"metrics.fleet.delta missing '{key}'")
    rebalance = fleet["rebalance"]
    check_fleet_leg(path, rebalance, "fleet rebalance leg")
    for key in ("watermark", "budget"):
        if key not in rebalance:
            fail(path, f"fleet rebalance leg missing '{key}'")
    budget = rebalance["budget"]
    for key in ("max_concurrent", "copy_bandwidth_bps", "max_total"):
        if key not in budget:
            fail(path, f"fleet rebalance budget missing '{key}'")
    # The budget is a hard cap, not advisory: a document recording a
    # violation is itself invalid.
    if rebalance["peak_concurrent_migrations"] > budget["max_concurrent"]:
        fail(path, "fleet rebalance exceeded MigrationBudget.max_concurrent")
    if budget["max_total"] > 0 and rebalance["migrations"] > budget["max_total"]:
        fail(path, "fleet rebalance exceeded MigrationBudget.max_total")
    # The rebalance leg runs on the epoch-sliced engine: it must carry the
    # slice/fusion accounting, one digest per cluster shard (no whole-fleet
    # co-shard), and internally consistent fusion/split counts.
    sliced = rebalance.get("sliced")
    if not isinstance(sliced, dict):
        fail(path, "fleet rebalance leg missing the 'sliced' block")
    for key in ("slice_ms", "slices", "fusions", "splits",
                "max_group_clusters"):
        if key not in sliced:
            fail(path, f"fleet rebalance sliced block missing '{key}'")
    # Every fleet runs the slice loop (one that cannot rebalance runs one
    # unbounded slice), so the counters tick at any cluster count.
    if sliced["slice_ms"] <= 0 or sliced["slices"] <= 0:
        fail(path, "fleet rebalance must have run at least one slice")
    if len(rebalance["digests"]) != fleet["clusters"]:
        fail(path, "sliced rebalance must digest one shard per cluster "
                   f"(got {len(rebalance['digests'])} digests for "
                   f"{fleet['clusters']} clusters)")
    if sliced["splits"] > sliced["fusions"]:
        fail(path, "fleet rebalance split more shard groups than it fused")
    if rebalance["migrations"] > 0 and sliced["fusions"] < 1:
        fail(path, "fleet rebalance migrated without fusing the coupled "
                   "source/dest shards")
    if sliced["fusions"] > 0 and sliced["max_group_clusters"] < 2:
        fail(path, "fleet rebalance fused shards but max_group_clusters < 2")


CHECKS = {
    "multi_tenant": check_multi_tenant,
    "fleet": check_fleet,
    "fig2_latency": check_fig2,
    "table1": check_table1,
    "fig3_gc": check_fig3,
    "fig4_pattern": check_fig4,
    "fig5_budget": check_fig5,
    "ablation_essd": check_ablation_essd,
    "ablation_gc": check_ablation_gc,
    "sim_micro": check_sim_micro,
    "impl1_scaling": check_impl1,
    "impl3_randseq": check_impl3,
    "impl4_smoothing": check_impl4,
    "impl5_reduction": check_impl5,
    "trace_replay": check_trace_replay,
}


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, str(e))
        check_envelope(path, doc)
        extra = CHECKS.get(doc["bench"])
        if extra is not None:
            extra(path, doc["metrics"])
        print(f"{path}: ok ({doc['bench']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
