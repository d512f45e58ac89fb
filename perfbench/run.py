#!/usr/bin/env python3
"""Build and run the RoboADS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script configures and builds the
standalone CMake package in perfbench/ (Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary. Build output goes to stderr; the binary's last stdout line
is the JSON result. Traced runs write their spans JSONL under the build
directory's traces/ folder. See perfbench/README.md.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no RoboADS sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", done.returncode or 2)
    return build_dir


def main(argv: list) -> int:
    if argv == ["--self-test"]:
        build_dir = build()
        return subprocess.run([str(build_dir / "perfbench_selftest"),
                               str(build_dir / "perfbench")],
                              cwd=ROOT, check=False).returncode
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    build_dir = build()
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([str(build_dir / "perfbench"), *argv,
                           "--trace-dir", str(trace_dir)],
                          cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
