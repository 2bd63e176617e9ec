#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload extsort-file --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The script builds the workload
driver (perfbench/pbench.exe) and the stlb CLI with dune, runs the driver
in a fresh work directory under .perfbench-work/, and removes that
directory and every process the run started on every exit path. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every check
passed. README.md in this directory describes the workloads and metrics.
"""

import argparse
import ctypes
import json
import math
import os
import secrets
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["extsort-file", "census-m64", "serve-small"]
DRIVER = os.path.join("_build", "default", "perfbench", "pbench.exe")
STLB = os.path.join("_build", "default", "bin", "stlb.exe")
WORK_ROOT = ".perfbench-work"
OUT_ROOT = ".perfbench-out"
# A run must end within 180 s; the driver's measured loop overshoots its
# --seconds by at most one operation (about 6 s on extsort-file).
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("dune is not on PATH")


def check_checkout():
    """The benchmark builds the repository it sits in; refuse anything else."""
    needed = ["dune-project", "lib", os.path.join("bin", "stlb.ml"),
              os.path.join("perfbench", "dune"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        die("not the root of a source checkout (missing: %s)" % ", ".join(missing))


def build():
    cmd = find_dune() + ["build", "--root", ".", "--cache=disabled",
                         "./" + DRIVER, "./" + STLB]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        die("build failed", 3)


def catalogue(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def become_subreaper():
    """Orphaned grandchildren (a stlb server whose parent died) are
    re-parented to this process, so it can reap every one of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_all(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def run_driver(args, workdir):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", OUT_ROOT, "--stlb", STLB,
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def on_signal(signum, _frame):
        reap_all(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_all(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
        die("the run did not finish within %d s" % RUN_TIMEOUT_S, 1)
    finally:
        reap_all(proc.pid)
    return proc.returncode, out


def leftovers(workdir):
    """Files the run left behind: the driver removes its spill directory
    and socket itself, so anything still there is an orphan."""
    found = []
    for root, _dirs, files in os.walk(workdir):
        found.extend(os.path.join(root, f) for f in files)
    return found


def compare_counts(args, counts):
    """Counts are exact: a run with the same seed must repeat them."""
    path = os.path.join(OUT_ROOT, "counts", "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-quick" if args.quick else ""))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    drift = []
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        drift = ["%s: %s, now %s" % (k, before.get(k), counts.get(k))
                 for k in sorted(set(before) | set(counts))
                 if before.get(k) != counts.get(k)]
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
    return drift


def run_once(args):
    check_checkout()
    build()
    expected = catalogue(args.trace)
    become_subreaper()
    # The driver and the server it starts inherit one CPU. On a shared
    # two-core machine, letting the scheduler place the client and server
    # of serve-small on the same or on different cores moved its request
    # rate by up to 2x from run to run; on one CPU it repeats within a few %.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK_ROOT, exist_ok=True)
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, "%s-%d-%s" % (
        args.workload, os.getpid(), secrets.token_hex(4)))
    os.makedirs(workdir)
    try:
        code, out = run_driver(args, workdir)
        orphans = leftovers(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("the driver exited with %d and printed no result" % code, 1)
    problems = list(result["failures"])
    problems += ["orphan file left by the run: " + p for p in orphans]
    problems += ["count drifted from an earlier run of this seed: " + d
                 for d in compare_counts(args, result["counts"])]
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: %s" %
                        sorted(set(metrics) ^ set(expected)))
    for name, m in metrics.items():
        if m["unit"] != expected.get(name, m["unit"]):
            problems.append("%s: unit %s, BENCHMARK.json says %s" %
                            (name, m["unit"], expected[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: value %r is not a finite number" % (name, m["value"]))
    if code != 0 and not problems:
        problems.append("the driver exited with %d" % code)
    extra = len(problems) - len(result["failures"])
    for p in problems:
        print("check failed: " + p)
    final = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"] + extra,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if not problems else 1


def self_test():
    """Every workload at tiny sizes, untraced and traced: each run must pass
    its checks and print every catalogued metric with its unit."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "42", "--seconds", "1", "--trace",
                   str(trace), "--quick"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            expected = catalogue(trace)
            ok = (proc.returncode == 0 and result is not None
                  and sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()} == expected)
            print("%-4s %s trace=%d" % ("ok" if ok else "FAIL", workload, trace))
            bad += not ok
    print("self-test: %s" % ("passed" if bad == 0 else "%d run(s) failed" % bad))
    return 0 if bad == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes (N ~ 10^4, m = 8, 64-request passes)")
    p.add_argument("--self-test", action="store_true",
                   help="run every workload in quick mode and check the output")
    args = p.parse_args()
    if args.self_test:
        check_checkout()
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds < 1:
        p.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
