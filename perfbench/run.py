#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of the repository.  It builds perfbench/perfbench.exe
from source with dune (release profile, build directory .bench_build), runs
it, and passes its output through: the last line of standard output is the
JSON result.  Workloads: cqp-sf0.1, ordered-stream, serve-ckpt.  See
perfbench/NOTES.md for what each metric measures.

--selftest runs every workload at a tiny scale and checks that every metric
listed in BENCHMARK.json is emitted with its unit, that the result check
trips on a result with one row dropped, and that the seed changes the
generated inputs but not the metric names.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SMOKE_SCALE = "0.05"


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the repository root (%s is missing)" % need)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def child_env():
    # The GC settings are part of what is measured: pin the defaults.
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    return env


def run(args, capture=False):
    try:
        return subprocess.run([EXE] + args, env=child_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out", 1)


def result_of(proc):
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        return None, None
    inputs = next((l.split()[-1] for l in lines if l.startswith("# inputs ")), None)
    try:
        return json.loads(lines[-1]), inputs
    except ValueError:
        return None, inputs


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def smoke(workload, seed, trace, *extra):
        proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--scale-mult", SMOKE_SCALE] + list(extra),
                   capture=True)
        res, inputs = result_of(proc)
        if res is None:
            problems.append("%s seed %d trace %d %s: no JSON result (exit %d)"
                            % (workload, seed, trace, " ".join(extra), proc.returncode))
        return res, inputs

    def check_names(label, res, trace):
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        if got != expected[trace]:
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
            problems.append("%s: metrics differ from BENCHMARK.json (missing %s, extra %s, "
                            "wrong unit %s)" % (label, missing, extra, wrong))

    for w in (w["name"] for w in spec["workloads"]):
        names = {}
        for trace in (0, 1):
            res, inputs = smoke(w, 1, trace)
            if res is None:
                continue
            label = "%s trace %d" % (w, trace)
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: clean run reported %s" % (label, res))
            check_names(label, res, trace)
            names[trace] = (sorted(res["metrics"]), inputs)
        res2, inputs2 = smoke(w, 2, 0)
        if res2 is not None and 0 in names:
            if sorted(res2["metrics"]) != names[0][0]:
                problems.append("%s: seed 2 changed the metric names" % w)
            if inputs2 is None or inputs2 == names[0][1]:
                problems.append("%s: seed 2 did not change the inputs" % w)
        bad, _ = smoke(w, 1, 0, "--corrupt")
        if bad is not None and (bad["correct"] or bad["failed"] < 1):
            problems.append("%s: the result check missed a dropped row" % w)
        print("selftest %s: %s" % (w, "done"), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        sys.exit(selftest())
    proc = run(["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
