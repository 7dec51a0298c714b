#!/usr/bin/env python3
"""The aecnc benchmark: one command, three workloads.

    python3 perfbench/run.py --workload count-skewed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds the library, the CLI
and the benchmark driver from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), generates the workload's
seeded inputs there once per seed, runs the workload for --seconds and
prints, as its last stdout line, one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a trace-event JSON file). The line before it is the run's
provenance. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("count-skewed", "count-flat", "serve-mutate")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole run, build excluded.
RUN_LIMIT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir, jobs):
    cdir = os.path.join(bdir, "perfbench")
    if not os.path.exists(os.path.join(cdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cdir, "-j", str(jobs), "--target",
                    "perfbench_driver", "aecnc_cli"],
                   check=True, stdout=sys.stderr)
    return cdir


def ensure_inputs(driver, bdir, workload, seed):
    sdir = os.path.join(bdir, "inputs", workload, "seed-%d" % seed)
    fixed_dir = os.path.join(bdir, "inputs", "fixed")
    os.makedirs(fixed_dir, exist_ok=True)
    meta = os.path.join(sdir, "meta.json")
    os.makedirs(sdir, exist_ok=True)
    t0 = time.time()
    # A no-op when this seed's inputs are already there.
    subprocess.run([driver, "gen", "--workload=" + workload,
                    "--seed=%d" % seed, "--dir=" + sdir,
                    "--fixed-dir=" + fixed_dir],
                   check=True, stdout=sys.stderr)
    log("inputs for %s seed %d ready in %.1f s" % (workload, seed,
                                                   time.time() - t0))
    with open(meta) as f:
        return sdir, fixed_dir, json.load(f)


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmake_cache(cdir, key):
    with open(os.path.join(cdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return None


def compiler(cxx):
    out = subprocess.run([cxx, "--version"], capture_output=True,
                         text=True).stdout if cxx else ""
    return out.splitlines()[0] if out else "unknown"


def source_identity():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_driver(cmd, limit_s):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver exceeded %d s and was stopped" % limit_s)
        return None, 1
    return out, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = os.cpu_count() or 1
    bdir = build_dir()
    # Compiler and driver temporaries stay inside the build directory.
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    try:
        cdir = build(bdir, min(4, nproc))
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    start = time.time()
    driver = os.path.join(cdir, "perfbench_driver")
    cli = os.path.join(cdir, "aecnc_cli")
    sdir, fixed, meta = ensure_inputs(driver, bdir, args.workload, args.seed)
    trace_out = os.path.join(bdir, "traces", "%s-seed%d.json" %
                             (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)

    cmd = [driver, "run", "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--dir=" + sdir, "--cli=" + cli,
           "--fixed-dir=" + fixed, "--trace-out=" + trace_out]
    steal0 = steal_ticks()
    out, rc = run_driver(cmd, max(10, RUN_LIMIT_S - (time.time() - start)))
    steal1 = steal_ticks()
    if out is None:
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("driver exited %d without a result line" % rc)
        return 1
    run_info = {}
    for l in lines[:-1]:
        if l.startswith("info "):
            run_info.update(json.loads(l[5:]))
    for l in lines[:-1]:
        print(l)

    sha, digest = source_identity()
    provenance = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": compiler(cmake_cache(cdir, "CMAKE_CXX_COMPILER")),
        "build_type": cmake_cache(cdir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_digest": digest,
        "threads": run_info.get("threads"),
        "kernel": run_info.get("kernel"),
        "shards": 4,
        "multiprocess_processes": 4 if args.workload == "count-skewed" else 0,
        "workload": args.workload,
        "seed": args.seed,
        "input": meta,
        "run": run_info,
        "steal_ticks": (steal1 - steal0) if steal0 is not None
        and steal1 is not None else None,
        "attempted": {args.workload: result["attempted"]},
        "failed": {args.workload: result["failed"]},
    }
    print(json.dumps({"provenance": provenance}))
    print(lines[-1], flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
