#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  Builds perfbench/main.exe with dune
from that tree, runs the named workload in a fresh single-domain process
and relays its report; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
Exits nonzero when the tree cannot be built, a run fails or times out,
or any output check fails.

--self-test runs every workload at a few hundred nodes, twice per trace
mode on one seed, and checks that every metric prints with its unit and
that the deterministic metrics repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

# A run must end within 180 s; the first one in a fresh tree also builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700

# Metrics that depend only on the seed: equal on every run of one seed.
DETERMINISTIC = {
    0: ["alloc_words_per_msg", "msgs_per_query", "sim_mean_ms", "sim_p99_ms"],
    1: [
        "trial.ri_build_iterations",
        "engine.inflight_peak",
        "engine.queue_peak",
        "engine.queue_mean",
        "engine.wait_share",
        "query.start_alloc_words",
        "query.deliver_alloc_words_per_msg",
        "query.return_share",
        "query.useful_visit_share",
        "scheme.rank_alloc_words_per_call",
        "scheme.rank_candidates_mean",
        "update.alloc_words_per_wave",
        "update.msgs_per_wave",
        "update.wire_bytes_per_msg",
        "update.significant_share",
    ],
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        die("%s is not a source tree of this repository (no dune-project/lib)" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S
        )
    except FileNotFoundError:
        die("dune not found")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run(workload, seed, seconds, trace, tiny=False, deadline=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    env = dict(os.environ, RI_JOBS="1", RI_CACHE="1", RI_OBS="0")
    for knob in ("RI_WAVE_SHARD_MIN", "RI_PAR_BUILD_MIN", "RI_PLACE_SHARD_MIN"):
        env.pop(knob, None)
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    timeout = RUN_LIMIT_S if deadline is None else max(1, deadline - time.monotonic())
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("%s timed out after %.0f s" % (workload, timeout))
    return proc.returncode, out.splitlines()


def validate(spec, trace, lines):
    """The result line's shape; returns (result, list of problems)."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return result, problems
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s has unit %r, not %r" % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            problems.append("%s has no numeric value" % m["name"])
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a positive integer")
    if not isinstance(result["failed"], int):
        problems.append("failed must be an integer")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("the run's correctness checks failed")
    return result, problems


def self_test(spec):
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        for trace in (0, 1):
            results = []
            for attempt in range(2):
                code, lines = run(name, 7, 1, trace, tiny=True)
                result, problems = validate(spec, trace, lines)
                if code != 0:
                    problems.append("exit code %d" % code)
                for p in problems:
                    print("FAIL %s trace %d run %d: %s" % (name, trace, attempt, p))
                ok = ok and not problems
                results.append(result)
            if all(results):
                a, b = (r["metrics"] for r in results)
                for m in DETERMINISTIC[trace]:
                    if m in a and a[m] != b.get(m):
                        ok = False
                        print(
                            "FAIL %s trace %d: %s differs between runs of one seed: %s vs %s"
                            % (name, trace, m, a[m]["value"], b[m]["value"])
                        )
                for m, v in sorted(results[0]["metrics"].items()):
                    print("  %-18s %-36s %18.6f %s" % (name, m, v["value"], v["unit"]))
            print("%s %s trace %d" % ("ok  " if ok else "FAIL", name, trace))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        die("--workload, --seed, --seconds and --trace are required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    # A no-op build leaves the run its full limit; a first build in a
    # fresh tree has its own, longer allowance.
    built_in = time.monotonic() - start
    deadline = start + RUN_LIMIT_S if built_in < 30 else time.monotonic() + RUN_LIMIT_S
    code, lines = run(args.workload, args.seed, args.seconds, args.trace, deadline=deadline)
    result, problems = validate(spec, args.trace, lines)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if result is not None:
        print(json.dumps(result))
    return code or (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
