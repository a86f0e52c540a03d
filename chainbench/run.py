#!/usr/bin/env python3
"""chainbench entry point: build the benchmark, run one workload, check it.

    python3 chainbench/run.py --workload sweep|serve-zipf \
        --seed N --seconds S --trace 0|1 [benchmark flags ...]
    python3 chainbench/run.py --selfcheck

Run from the repository root. The first run configures and builds the
`chainbench` binary (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. Every
file the run writes stays in that directory.

The last line of standard output is one JSON object with exactly the
keys correct, attempted, failed and metrics: with --trace 0 the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The line before it records the provenance of the numbers, and
the one before that every other metric the run measured ("ungated":
wall-clock rates and latencies, see README.md).
Any flag this script does not know is passed to the binary unchanged
(see chainbench/main.cpp), which is how BENCHMARK.json fixes the
corpus size, the daemon's workers and the open-loop rate.

--selfcheck runs every workload at a tiny size, traced and not, and
fails unless every metric named in BENCHMARK.json is emitted, finite
and in its unit, no operation failed, and the result cache both hit
and evicted.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
TINY = ["--domains", "400", "--cache-capacity", "64"]


def fail(message):
    print(f"chainbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            fail("cmake configure failed")
    result = subprocess.run(
        ["cmake", "--build", out, "--target", "chainbench",
         "-j", str(len(os.sched_getaffinity(0)))],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(out, "chainbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (human lines, result object)."""
    scratch = os.path.join(build_dir(), "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = scratch
    # The library caches its generated RSA keys on disk; keep that file
    # in the build directory, inside the checkout.
    env["CHAINCHAOS_KEY_CACHE"] = os.path.join(build_dir(), "keypool.v1")
    try:
        proc = subprocess.run([binary, "--workdir", scratch] + args,
                              capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"chainbench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"chainbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("chainbench did not end with a JSON result")
    return lines[:-1], result


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def select_metrics(spec, result, trace):
    """The metrics of one mode, checked for presence, finiteness, unit."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    chosen, problems = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"{m['name']} not finite")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {got['unit']}, not {m['unit']}")
        else:
            chosen[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return chosen, problems


def source_digest():
    """SHA-256 over the library and benchmark sources: the identity of
    the measured code where no git metadata is available."""
    h = hashlib.sha256()
    for top in ("src", "chainbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(result):
    record = dict(result.get("provenance", {}))
    commit = status = None
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    record["commit"] = commit
    record["dirty"] = None if status is None else bool(status)
    record["source_sha256"] = source_digest()
    return record


def selfcheck(spec):
    binary = build()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            _, result = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace)] + TINY)
            chosen, missing = select_metrics(spec, result, trace)
            where = f"{workload} --trace {trace}"
            problems += [f"{where}: {p}" for p in missing]
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} failed "
                                f"{result.get('errors')}")
            if trace and "service.cache_hit_ratio" in chosen:
                hit = chosen["service.cache_hit_ratio"]["value"]
                evict = chosen["service.cache_evictions_per_request"]["value"]
                if not (0 < hit < 1 and evict > 0):
                    problems.append(f"{where}: hit ratio {hit}, "
                                    f"evictions/request {evict}")
            print(f"{where}: {len(chosen)} metrics, "
                  f"{result['attempted']} operations, "
                  f"{result['failed']} failed")
    for p in problems:
        print(f"SELFCHECK FAILED: {p}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args, binary_args = parser.parse_known_args()
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed is None or args.seconds is None:
        fail("--seed and --seconds are required")

    binary = build()
    human, result = run_binary(binary, binary_args + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    metrics, problems = select_metrics(spec, result, args.trace)
    if problems:
        fail("; ".join(problems))
    for line in human:
        print(line)
    for error in result.get("errors", []):
        print(f"failure: {error}")
    ungated = {name: m for name, m in result["metrics"].items()
               if name not in metrics}
    print(json.dumps({"ungated": ungated}))
    print(json.dumps({"provenance": provenance(result)}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
