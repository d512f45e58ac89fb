#!/usr/bin/env python3
"""The perf gate of ./ci.sh bench: one snapshot against one baseline.

Usage: bench_summary.py <perf_nuise_json>... <perfbench_out> <snapshot_out>
           --build-type=TYPE --cxx-flags=FLAGS --baseline=FILE

Each <perf_nuise_json> is google-benchmark JSON from one bench/perf_nuise
run with randomly interleaved repetitions. Each benchmark becomes a row
holding the real and CPU time in nanoseconds of its fastest repetition in
any of the files: on a shared host interference only adds time, so the
fastest of several repetitions, spread over the gate, is the steadiest
estimate, and a real slowdown raises it too.

<perfbench_out> is the stdout of `perfbench/run.py --workload fleet-stream`.
Its last line is perfbench's JSON result, which becomes the row
"perfbench/fleet-stream": throughput_per_s counts full detector steps per
second, and every output of the run was checked against perfbench's
oracles. A result with "correct": false is refused (exit 1).

The build type must be Release (exit 1 otherwise). The build type, the
compiler flags, the CPU model and the usable CPU count (`nproc`) form the
fingerprint recorded in the snapshot's context.

The snapshot is written to <snapshot_out>, which must not be the baseline:
no run rewrites the baseline. When the baseline's fingerprint equals the
snapshot's, every row is compared. A kernel whose real_time_ns grew, or the
fleet-stream row whose time per step (1 / throughput_per_s) grew, by more
than 15% fails the run (exit 1), and so does a row that only one side has.
When the fingerprints differ, or there is no baseline, nothing is compared:
both fingerprints are printed with the `cp` command that adopts the
snapshot as the baseline, and the run passes.
"""
import json
import os
import sys

FLEET_ROW = "perfbench/fleet-stream"
MAX_REGRESS = 0.15


def host_fingerprint() -> dict:
    """CPU model name and usable CPU count (what `nproc` prints)."""
    try:
        with open("/proc/cpuinfo") as f:
            models = [line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")]
    except OSError:
        models = []
    return {"cpu_model": models[0] if models else "",
            "nproc": len(os.sched_getaffinity(0))}


def fingerprint(context: dict) -> dict:
    return {k: context.get(k)
            for k in ("cpu_model", "nproc", "build_type", "cxx_flags")}


def kernel_rows(raws: list) -> dict:
    """Each benchmark's fastest repetition (aggregates are skipped)."""
    runs = {}
    for b in (b for raw in raws for b in raw.get("benchmarks", [])):
        if b.get("run_type") != "aggregate":
            runs.setdefault(b.get("run_name", b["name"]), []).append(b)
    rows = {}
    for name, reps in runs.items():
        b = min(reps, key=lambda rep: rep["real_time"])
        rows[name] = {
            "real_time_ns": round(b["real_time"], 1),
            "cpu_time_ns": round(b["cpu_time"], 1),
            "iterations": b["iterations"],
            "repetitions": len(reps),
        }
        for counter in ("modes", "threads"):
            if counter in b:
                rows[name][counter] = b[counter]
    return rows


def fleet_row(path: str) -> dict:
    """The fleet-stream row; raises ValueError on a refused result."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"{path} does not end in perfbench's JSON result")
    if result.get("correct") is not True:
        raise ValueError(
            f"perfbench fleet-stream failed its oracles ({result.get('failed')}"
            f" of {result.get('attempted')} frames failed); its throughput "
            f"is not a capacity")
    metrics = result["metrics"]
    row = {name: metrics[name]["value"]
           for name in ("throughput_per_s", "setup_s", "peak_rss_mb")}
    row["attempted"] = result["attempted"]
    return row


def slowdown(row: dict, base: dict) -> float:
    """How much longer one operation of `row` takes than of `base`."""
    if "throughput_per_s" in base:
        rate = row["throughput_per_s"]
        return base["throughput_per_s"] / rate if rate > 0 else float("inf")
    return row["real_time_ns"] / base["real_time_ns"]


def compare(snapshot: dict, baseline: dict) -> int:
    """Prints every row against the baseline; returns how many fail."""
    failures = 0
    rows = snapshot["benchmarks"]
    base_rows = baseline.get("benchmarks", {})
    for name in sorted(rows.keys() | base_rows.keys()):
        row, base = rows.get(name), base_rows.get(name)
        if row is None or base is None:
            failed = True
            verdict = "not in this run" if row is None else "not in the baseline"
        else:
            ratio = slowdown(row, base)
            failed = ratio > 1.0 + MAX_REGRESS
            verdict = f"{ratio:.3f}x the baseline's time per operation"
        failures += failed
        print(f"  {'FAIL' if failed else 'ok  '} {name}: {verdict}")
    return failures


def main() -> int:
    positional = []
    flags = {"build-type": None, "cxx-flags": None, "baseline": None}
    for arg in sys.argv[1:]:
        key, _, value = arg[2:].partition("=")
        if not arg.startswith("--"):
            positional.append(arg)
        elif key in flags and "=" in arg:
            flags[key] = value
        else:
            print(f"bench_summary: unknown flag {arg}", file=sys.stderr)
            return 2
    if len(positional) < 3 or None in flags.values():
        print(__doc__, file=sys.stderr)
        return 2
    *kernel_paths, fleet_path, out_path = positional
    baseline_path = flags["baseline"]

    if flags["build-type"] != "Release":
        print(f"bench_summary: refusing a perf snapshot from a "
              f"'{flags['build-type'] or 'unknown'}' build; configure the "
              f"bench tree with -DCMAKE_BUILD_TYPE=Release (ci.sh run_bench)",
              file=sys.stderr)
        return 1
    if os.path.abspath(out_path) == os.path.abspath(baseline_path):
        print("bench_summary: the snapshot must not overwrite the baseline",
              file=sys.stderr)
        return 2

    raws = []
    for path in kernel_paths:
        with open(path) as f:
            raws.append(json.load(f))
    try:
        fleet = fleet_row(fleet_path)
    except ValueError as e:
        print(f"bench_summary: {e}", file=sys.stderr)
        return 1
    snapshot = {
        "context": {
            **host_fingerprint(),
            "build_type": flags["build-type"],
            "cxx_flags": flags["cxx-flags"],
            "date": raws[0].get("context", {}).get("date", ""),
        },
        "benchmarks": {**kernel_rows(raws), FLEET_ROW: fleet},
    }
    with open(out_path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: wrote {len(snapshot['benchmarks'])} rows to "
          f"{out_path}")

    adopt = f"cp {out_path} {baseline_path}"
    if not os.path.exists(baseline_path):
        print(f"bench_summary: no baseline at {baseline_path}; nothing "
              f"compared. To adopt this snapshot: {adopt}")
        return 0
    with open(baseline_path) as f:
        baseline = json.load(f)
    mine = fingerprint(snapshot["context"])
    theirs = fingerprint(baseline.get("context", {}))
    if mine != theirs:
        print(f"bench_summary: {baseline_path} was recorded on "
              f"{json.dumps(theirs)}\nbench_summary: this run is on "
              f"{json.dumps(mine)}\nbench_summary: nothing compared. To "
              f"adopt this snapshot as the baseline: {adopt}")
        return 0
    if compare(snapshot, baseline):
        print(f"bench_summary: beyond {MAX_REGRESS:.0%} of {baseline_path}, "
              f"which is left untouched", file=sys.stderr)
        return 1
    print(f"bench_summary: {len(snapshot['benchmarks'])} rows within "
          f"{MAX_REGRESS:.0%} of {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
