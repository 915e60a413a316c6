#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the ExaStro libraries and the
`exabench` program from source (benchsuite/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when unset; generates the workload's
inputs from the seed (gen_inputs.py); runs the workload in one process
with a fixed thread count; and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
metrics of a traced run of the same workload and seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import gen_inputs  # noqa: E402

# One thread count for every workload: OpenMP threads on the
# single-simulation workloads, ensemble workers on ensemble-mixed. Two of
# the host's four cores leaves headroom for the OS and co-tenants, which
# keeps run-to-run spread low.
THREADS = 2
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"benchsuite: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("library sources (src/) not found next to benchsuite/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "benchsuite-build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"cmake configure failed (see {log_path})")
        r = subprocess.run(["cmake", "--build", build_dir, "--target", "exabench",
                            "-j", "4"], stdout=log, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail(f"build failed (see {log_path})")
    exe = os.path.join(build_dir, "exabench")
    if not os.path.isfile(exe):
        fail("build produced no exabench binary")
    return exe


def expected_metrics(trace):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen_inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)

    work = os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inp = os.path.join(work, "input.cfg")
    with open(inp, "w") as f:
        f.write(gen_inputs.generate(args.workload, args.seed))

    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    env.pop("EXA_BACKEND", None)
    env.pop("EXA_FAULTS", None)
    cmd = [exe, "--workload", args.workload, "--input", inp, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(THREADS), "--work-dir", work]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"exabench exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace == 1)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    metrics = {}
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail(f"metric {name} has unit {got[name]['unit']}, expected {unit}")
        metrics[name] = {"value": got[name]["value"], "unit": unit}
    print(f"threads: {THREADS}; step samples (attempted): {result['attempted']}; "
          f"failed: {result['failed']}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
