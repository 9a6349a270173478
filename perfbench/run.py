#!/usr/bin/env python3
"""perfbench: the proteus-vec end-to-end benchmark, as one command.

    python3 perfbench/run.py --workload bulk|serve-warm|serve-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository in its default
configuration (plus the benchmark harness) into .bench_build/, runs the
workload, prints every metric by name with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the names and units are checked against BENCHMARK.json.
serve-warm runs the same way but is not one of BENCHMARK.json's gated
workloads (see perfbench/README.md).

Exit status: 0 when every output was correct; 1 when some output was
wrong (the result line is still printed); 2 when the build or the
workload could not run (no result line).
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
PROTEUSD = os.path.join(BUILD, "tools", "proteusd")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def program_env():
    """The environment for the programs under test: no PROTEUS_* override
    (backend, fault injection), so every program runs its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROTEUS_")}
    env.pop("OMP_NUM_THREADS", None)
    return env


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the checkout root; nothing to build")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "hook.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "proteusd", "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=program_env())
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        expected = expected_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        return 2

    results_dir = os.path.join(BUILD, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--proteusd", PROTEUSD,
           "--trace-out", os.path.join(results_dir, stem + ".trace.json")]
    # Own session, so every process the harness starts (the daemon) can be
    # stopped as a group whatever happens to the harness.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=program_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if proc.returncode not in (0, 1) or not lines:
        log("harness failed (exit %s)" % proc.returncode)
        sys.stdout.write(out)
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("harness printed no result line")
        return 2
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        log("metrics do not match BENCHMARK.json: got %s, expected %s"
            % (sorted(got.items()), sorted(expected.items())))
        return 2

    with open(os.path.join(results_dir, stem + ".txt"), "w") as f:
        f.write(out)
    for line in lines:
        print(line)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
