#!/usr/bin/env python3
"""Build and run the lisim benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/lisbench.exe with dune (the first build compiles the
whole simulator), runs it, checks that its last stdout line is the JSON
result carrying exactly the metrics BENCHMARK.json names for the mode,
and prints that line last. Exits non-zero, without a result, when the
checkout lacks the simulator's sources or anything fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "lisbench.exe")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 150


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def env():
    e = dict(os.environ)
    # keep dune's cache and the GC event ring inside the checkout
    e["DUNE_CACHE"] = "disabled"
    events = os.path.join(ROOT, "_build", "perfbench-events")
    os.makedirs(events, exist_ok=True)
    e["OCAML_RUNTIME_EVENTS_DIR"] = events
    e.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    return e


def run(cmd, timeout, **kw):
    """Runs cmd to completion; kills it (and waits) on timeout or when
    this script is terminated."""
    p = subprocess.Popen(cmd, env=env(), **kw)

    def stop(signum, _frame):
        p.kill()
        p.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("timed out: " + " ".join(cmd))
    return p.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a lisim checkout (missing %s)" % need)
    code, _ = run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./" + EXE],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        die("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        code, _ = run([EXE, "--selftest"], RUN_MARGIN_S)
        sys.exit(code)
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        die("need --workload, --seed, --seconds and --trace")
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code, out = run(cmd, a.seconds + RUN_MARGIN_S, stdout=subprocess.PIPE,
                    text=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        die("lisbench exited with %d" % code)
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        die("metrics differ from BENCHMARK.json: %s"
            % sorted(set(result["metrics"]) ^ set(want)))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
