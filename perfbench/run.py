#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload mincut|kcut|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library layers from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one measuring process. Build
output goes to stderr. Standard output carries the measuring process's info
lines (prefixed '# ') and, as its last line, the JSON result. A traced run
also writes its spans to <build dir>/traces/<workload>-seed<N>.jsonl.

The script checks that the reported metrics are exactly the ones
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1) and exits non-zero without a result if they are not, if the build
fails, or if the library sources are missing.

--self-test builds the benchmark and runs its own tests through ctest.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))


class Terminated(Exception):
    pass


def interrupted(signum, frame):
    raise Terminated


def run(cmd, timeout=None, **kwargs):
    """subprocess.run in a process group of its own. On a timeout, a
    SIGTERM or any other exception the whole group (cmake's compilers too)
    is killed and waited for before the exception propagates."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if run(cfg, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", JOBS]
    for t in targets:
        cmd += ["--target", t]
    if run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    signal.signal(signal.SIGTERM, interrupted)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["mincut", "kcut", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        out = build(["perfbench_selftest"])
        sys.exit(run(["ctest", "--test-dir", str(out),
                      "--output-on-failure"]).returncode)
    if a.workload is None:
        die("--workload is required", 2)
    if a.seed < 0:
        die("--seed must be non-negative", 2)

    out = build(["perfbench"])
    cmd = [str(out / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{a.workload}-seed{a.seed}.jsonl")]
    try:
        measured = run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"measuring process exceeded {RUN_TIMEOUT_S} s")
    if measured.returncode != 0:
        die(f"measuring process exited with {measured.returncode}")
    lines = measured.stdout.strip().splitlines()
    if not lines:
        die("measuring process printed nothing")
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    want = expected_metrics(a.trace)
    if names != want:
        die(f"metrics {names} differ from BENCHMARK.json's {want}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Terminated:
        die("terminated")
