#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the libraries under src/) into the directory named
by CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed. Build output goes to standard error; the last line of standard output
is the benchmark's result object. Controller state goes to .bench_state/ (on
the checkout's disk, removed after the run), traced runs write a Chrome trace
to .bench_traces/, and every result line is kept in .bench_results/.

--self-test sabotages each correctness check in turn and exits 0 only if
every sabotaged run failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("acl_churn", "fuzz_mix", "bulk_load", "forward")
# A run still going after this long is killed and reported as failed.
RUN_TIMEOUT_S = 170
# (workload, sabotaged check): one per kind of correctness check.
SELF_TESTS = (
    ("forward", "packet"),      # one recorded packet outcome has a flipped byte
    ("acl_churn", "journal"),   # a committed journal group is gone before recovery
    ("bulk_load", "journal"),
    ("fuzz_mix", "verdict"),    # one recorded recompile verdict is forged
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run(binary, workload, seed, seconds, trace, sabotage=None):
    """Runs one workload; returns (exit code, result line or None, stderr)."""
    state = os.path.join(ROOT, ".bench_state", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", state]
    if trace:
        traces = os.path.join(ROOT, ".bench_traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None, ""
    finally:
        shutil.rmtree(state, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else None), proc.stderr


def manifest_problems(workload, trace, line):
    """What the result line lacks against BENCHMARK.json, for the workloads it
    lists: every end-to-end metric (untraced) or per-layer metric (traced),
    in its unit, as a finite number; end-to-end figures also nonzero."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        manifest = json.load(f)
    if workload not in [w["name"] for w in manifest["workloads"]]:
        return []
    try:
        result = json.loads(line)
    except ValueError:
        return ["the result line is not JSON"]
    problems = [k for k in ("correct", "attempted", "failed", "metrics")
                if k not in result]
    if problems:
        return ["no %s" % k for k in problems]
    metrics = result["metrics"]
    wanted = manifest["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s in %s, not %s" % (m["name"], got.get("unit"),
                                                 m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                got["value"] != got["value"] or abs(got["value"]) == float("inf"):
            problems.append("%s is not a finite number" % m["name"])
        elif not trace and got["value"] == 0:
            problems.append("%s is 0" % m["name"])
    extra = set(metrics) - set(m["name"] for m in wanted)
    problems += ["%s not in BENCHMARK.json" % name for name in sorted(extra)]
    return problems


def compare_with_untraced(results, workload, seed, traced_line, stderr):
    """Prints the traced run's per-layer figures next to the untraced
    end-to-end figures of the same workload and seed, when one was kept, and
    the tracing overhead: traced minus untraced, metric by metric."""
    untraced = os.path.join(results, "%s-seed%d-trace0.json" % (workload, seed))
    marker = "perfbench-traced-e2e "
    traced = [l[len(marker):] for l in stderr.splitlines() if l.startswith(marker)]
    if not os.path.exists(untraced) or not traced:
        return
    with open(untraced) as f:
        e2e = json.load(f)["metrics"]
    traced_e2e = json.loads(traced[-1])
    log("%s seed %d: end-to-end, untraced vs traced (tracing overhead):" %
        (workload, seed))
    for name, m in e2e.items():
        t = traced_e2e.get(name, {}).get("value")
        if t is None or m["value"] == 0:
            continue
        log("  %-28s %14.4f %14.4f %s  (%+.1f%%)" %
            (name, m["value"], t, m["unit"], 100.0 * (t - m["value"]) / m["value"]))
    log("per-layer figures (traced):")
    for name, m in json.loads(traced_line)["metrics"].items():
        log("  %-40s %14.4f %s" % (name, m["value"], m["unit"]))


def self_test(binary):
    fired = 0
    for workload, sabotage in SELF_TESTS:
        code, _, err = run(binary, workload, 1, 1, 0, sabotage)
        ok = code != 0 and "CHECK FAILED" in err
        fired += ok
        log("self-test %-10s %-8s %s (exit %d)" %
            (workload, sabotage, "fired" if ok else "DID NOT FIRE", code))
    log("self-test: %d of %d sabotaged checks fired" % (fired, len(SELF_TESTS)))
    return 0 if fired == len(SELF_TESTS) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.self_test:
        return self_test(binary)

    code, line, stderr = run(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    if line is None or not line.startswith("{"):
        log("perfbench: %s printed no result" % args.workload)
        return 1
    problems = manifest_problems(args.workload, args.trace, line)
    if problems:
        log("perfbench: %s result does not match BENCHMARK.json: %s" %
            (args.workload, "; ".join(problems)))
        return 1
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        f.write(line + "\n")
    if args.trace:
        compare_with_untraced(results, args.workload, args.seed, line, stderr)
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
