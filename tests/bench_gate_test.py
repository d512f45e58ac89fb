#!/usr/bin/env python3
"""Checks the ./ci.sh bench gate (bench/bench_summary.py) on synthetic runs.

    bench_gate_test.py <path/to/bench_summary.py> <case>

Each case writes two perf_nuise JSONs, a perfbench fleet-stream output and
a baseline into a fresh temp dir, runs the gate and checks its exit code and
that the baseline's bytes are unchanged. Exits 0 when the case holds.
"""
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

SCRIPT = sys.argv[1]
FLAGS = "-O3 -DNDEBUG"
KERNEL_NS = {"BM_NuiseStepKhepera": 4000.0, "BM_FullDetectorStepKhepera": 15000.0}
THROUGHPUT = 50000.0


def gate_module():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernels_json(scale: float, reps: tuple) -> dict:
    """One perf_nuise run: each kernel at the given repetition slowdowns,
    plus their mean aggregate."""
    runs = []
    for name, ns in KERNEL_NS.items():
        times = [ns * scale * rep for rep in reps]
        for t in times:
            runs.append({"name": name, "run_name": name,
                         "run_type": "iteration", "real_time": t,
                         "cpu_time": t, "iterations": 1000})
        mean = sum(times) / len(times)
        runs.append({"name": name + "_mean", "run_name": name,
                     "run_type": "aggregate", "real_time": mean,
                     "cpu_time": mean, "iterations": 1000})
    return {"context": {"date": "2026-01-01T00:00:00+00:00"},
            "benchmarks": runs}


def perfbench_out(throughput: float, correct: bool = True) -> str:
    result = {"correct": correct, "attempted": 150000,
              "failed": 0 if correct else 6994,
              "metrics": {"setup_s": {"value": 1.5, "unit": "s"},
                          "peak_rss_mb": {"value": 95.6, "unit": "MB"},
                          "throughput_per_s": {"value": throughput,
                                               "unit": "1/s"}}}
    return ('host: cpu="x" nproc=4 | build: type=Release\n'
            "fleet-stream: threads=3/4 throughput=1/s\n"
            + json.dumps(result) + "\n")


def baseline(context: dict) -> dict:
    rows = {name: {"real_time_ns": ns, "cpu_time_ns": ns, "iterations": 1000}
            for name, ns in KERNEL_NS.items()}
    rows["perfbench/fleet-stream"] = {"throughput_per_s": THROUGHPUT}
    return {"context": context, "benchmarks": rows}


def matching_context() -> dict:
    return {**gate_module().host_fingerprint(), "build_type": "Release",
            "cxx_flags": FLAGS}


class Run:
    """One gate run in a temp dir; keeps the baseline's bytes to compare."""

    def __init__(self, tmp, base: dict, kernel_scale=1.0,
                 throughput=THROUGHPUT, correct=True, build_type="Release"):
        paths = {name: os.path.join(tmp, name) for name in
                 ("kernels_1.json", "kernels_2.json", "fleet.out",
                  "snapshot.json", "BENCH_PERF.json")}
        # Interference slowed the first run; the second has the kernels'
        # true times, so the gate must read the fastest across files.
        with open(paths["kernels_1.json"], "w") as f:
            json.dump(kernels_json(kernel_scale, (1.5, 1.3)), f)
        with open(paths["kernels_2.json"], "w") as f:
            json.dump(kernels_json(kernel_scale, (1.2, 1.0)), f)
        with open(paths["fleet.out"], "w") as f:
            f.write(perfbench_out(throughput, correct))
        with open(paths["BENCH_PERF.json"], "w") as f:
            json.dump(base, f, indent=2)
        with open(paths["BENCH_PERF.json"], "rb") as f:
            self.baseline_bytes = f.read()
        done = subprocess.run(
            [sys.executable, SCRIPT, paths["kernels_1.json"],
             paths["kernels_2.json"], paths["fleet.out"],
             paths["snapshot.json"], f"--build-type={build_type}",
             f"--cxx-flags={FLAGS}", f"--baseline={paths['BENCH_PERF.json']}"],
            capture_output=True, text=True, check=False)
        self.code = done.returncode
        self.output = done.stdout + done.stderr
        self.paths = paths

    def baseline_untouched(self) -> bool:
        with open(self.paths["BENCH_PERF.json"], "rb") as f:
            return f.read() == self.baseline_bytes

    def snapshot_written(self) -> bool:
        return os.path.exists(self.paths["snapshot.json"])


def expect(ok: bool, what: str, run: Run) -> bool:
    if not ok:
        print(f"FAIL: {what}\n--- gate output ---\n{run.output}")
    return ok


def regression_fails_and_keeps_baseline(tmp: str) -> bool:
    ok = True
    for label, kwargs, code in (
            ("equal numbers", {}, 0),
            ("kernels 20% slower", {"kernel_scale": 1.2}, 1),
            ("fleet-stream throughput 20% lower",
             {"throughput": THROUGHPUT * 0.8}, 1)):
        case_dir = os.path.join(tmp, label.replace(" ", "_"))
        os.mkdir(case_dir)
        run = Run(case_dir, baseline(matching_context()), **kwargs)
        ok &= expect(run.code == code, f"{label}: exit {run.code}, want {code}",
                     run)
        ok &= expect(run.baseline_untouched(), f"{label}: baseline rewritten",
                     run)
        ok &= expect(run.snapshot_written(), f"{label}: no snapshot", run)
    # A baseline row the run no longer produces fails too.
    base = baseline(matching_context())
    base["benchmarks"]["BM_Renamed"] = {"real_time_ns": 1000.0}
    os.mkdir(os.path.join(tmp, "missing_row"))
    run = Run(os.path.join(tmp, "missing_row"), base)
    ok &= expect(run.code == 1, f"missing row: exit {run.code}, want 1", run)
    return ok


def host_mismatch_compares_nothing(tmp: str) -> bool:
    # Numbers twice as good in the baseline would fail any comparison.
    base = baseline({**matching_context(), "cpu_model": "Some Other CPU"})
    for row in base["benchmarks"].values():
        if "real_time_ns" in row:
            row["real_time_ns"] /= 2
        else:
            row["throughput_per_s"] *= 2
    run = Run(tmp, base)
    return (expect(run.code == 0, f"mismatch: exit {run.code}, want 0", run)
            and expect(run.baseline_untouched(), "mismatch: baseline rewritten",
                       run)
            and expect("Some Other CPU" in run.output and "cp " in run.output,
                       "mismatch: fingerprints or the cp hint not printed",
                       run))


def incorrect_perfbench_run_is_refused(tmp: str) -> bool:
    run = Run(tmp, baseline(matching_context()), correct=False)
    return (expect(run.code == 1, f"correct=false: exit {run.code}, want 1",
                   run)
            and expect(not run.snapshot_written(),
                       "correct=false: snapshot written", run)
            and expect(run.baseline_untouched(),
                       "correct=false: baseline rewritten", run))


def non_release_build_is_refused(tmp: str) -> bool:
    run = Run(tmp, baseline(matching_context()), build_type="RelWithDebInfo")
    return (expect(run.code == 1, f"RelWithDebInfo: exit {run.code}, want 1",
                   run)
            and expect(not run.snapshot_written(),
                       "RelWithDebInfo: snapshot written", run)
            and expect(run.baseline_untouched(),
                       "RelWithDebInfo: baseline rewritten", run))


CASES = {
    "RegressionFailsAndKeepsBaseline": regression_fails_and_keeps_baseline,
    "HostMismatchComparesNothing": host_mismatch_compares_nothing,
    "IncorrectPerfbenchRunIsRefused": incorrect_perfbench_run_is_refused,
    "NonReleaseBuildIsRefused": non_release_build_is_refused,
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="bench_gate_") as tmp:
        sys.exit(0 if CASES[sys.argv[2]](tmp) else 1)
