#!/usr/bin/env python3
"""Appends an events/sec row to the repo's bench trajectory file.

The trajectory (BENCH_TRAJECTORY.json at the repo root) is an append-only
record of kernel throughput over time, so a perf regression shows up as a
dip in a diffable artifact rather than as folklore.  Each row snapshots the
events/sec of the BM_EventKernel*, BM_ParallelShardReplay*,
BM_ParallelEpochBarrier*, BM_CleanerPick*, BM_NodeCache* and
BM_TenantStatsLifecycle families from `bench_sim_micro --json` documents,
plus "FleetRebalanceReplay/t<threads>" from a `bench_fleet --json`
document's epoch-sliced rebalance leg:

    {
      "schema": "uc-bench-trajectory-v1",
      "rows": [
        {"label": "<commit / milestone>",
         "benchmarks": {"BM_EventKernelSteadyState": 10212300.0,
                        "FleetRebalanceReplay/t4": 5210000.0, ...}}
      ]
    }

Usage:
    scripts/update_bench_trajectory.py TRAJECTORY BENCH_JSON... --label LABEL
    scripts/update_bench_trajectory.py TRAJECTORY --check-only

Several bench documents given together merge into one trajectory row.

A missing trajectory file is seeded on first append.  Exit 0 = row appended
(or file valid under --check-only).
"""
import argparse
import json
import os
import sys

SCHEMA = "uc-bench-trajectory-v1"
TRACKED_PREFIXES = ("BM_EventKernel", "BM_ParallelShardReplay",
                    "BM_ParallelEpochBarrier", "BM_CleanerPick",
                    "BM_NodeCache", "BM_TenantStatsLifecycle",
                    "FleetRebalanceReplay")


def fail(msg):
    print(f"bench-trajectory: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc):
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(f"trajectory schema must be '{SCHEMA}'")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        fail("trajectory 'rows' must be an array")
    for row in rows:
        if not isinstance(row.get("label"), str) or not row["label"]:
            fail("every trajectory row needs a non-empty string 'label'")
        benchmarks = row.get("benchmarks")
        if not isinstance(benchmarks, dict) or not benchmarks:
            fail(f"row '{row['label']}' needs a non-empty 'benchmarks' map")
        for name, rate in benchmarks.items():
            if not name.startswith(TRACKED_PREFIXES):
                fail(f"row '{row['label']}' tracks unknown bench '{name}'")
            if not isinstance(rate, (int, float)) or rate <= 0:
                fail(f"row '{row['label']}' bench '{name}' needs a positive "
                     "events/sec value")


def extract_rates(bench_doc):
    bench = bench_doc.get("bench")
    rates = {}
    if bench == "sim_micro":
        for b in bench_doc.get("metrics", {}).get("benchmarks", []):
            # Keep bench arguments ("/4096") so depth variants stay distinct
            # rows; drop the real_time suffix, which is presentation.
            name = b.get("name", "").removesuffix("/real_time")
            if name.startswith(TRACKED_PREFIXES):
                rates[name] = b.get("events_per_sec")
    elif bench == "fleet":
        # The fleet's rebalance leg is the end-to-end artifact for the
        # epoch-sliced engine: whole-run events/sec at this thread count.
        fleet = bench_doc.get("metrics", {}).get("fleet", {})
        rebalance = fleet.get("rebalance", {})
        if "events_per_sec" in rebalance and "threads" in fleet:
            rates[f"FleetRebalanceReplay/t{fleet['threads']}"] = \
                rebalance["events_per_sec"]
    else:
        fail("bench document must be a sim_micro or fleet envelope")
    if not rates:
        fail(f"{bench} document has no tracked rows "
             f"(prefixes: {', '.join(TRACKED_PREFIXES)})")
    return rates


def main():
    parser = argparse.ArgumentParser(
        description="append an events/sec row to the bench trajectory")
    parser.add_argument("trajectory", help="path to BENCH_TRAJECTORY.json")
    parser.add_argument("bench_json", nargs="*",
                        help="bench --json outputs merged into one row")
    parser.add_argument("--label", default=None,
                        help="row label (commit sha, milestone, ...)")
    parser.add_argument("--check-only", action="store_true",
                        help="validate the trajectory file and exit")
    args = parser.parse_args()

    if os.path.exists(args.trajectory):
        try:
            with open(args.trajectory) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{args.trajectory}: {e}")
        validate(doc)
    elif args.check_only:
        fail(f"{args.trajectory}: no such file")
    else:
        doc = {"schema": SCHEMA, "rows": []}

    if args.check_only:
        print(f"{args.trajectory}: ok ({len(doc['rows'])} rows)")
        return 0

    if not args.bench_json:
        fail("a bench JSON is required unless --check-only is given")
    if not args.label:
        fail("--label is required when appending (use the commit sha)")
    rates = {}
    for path in args.bench_json:
        try:
            with open(path) as f:
                bench_doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path}: {e}")
        rates.update(extract_rates(bench_doc))

    doc["rows"].append({"label": args.label, "benchmarks": rates})
    validate(doc)
    tmp = args.trajectory + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    os.replace(tmp, args.trajectory)
    print(f"{args.trajectory}: appended '{args.label}' "
          f"({len(doc['rows'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
