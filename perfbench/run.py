#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload udp_bulk --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split
(spans are also written to perfbench/out/).  The last line of standard
output is the JSON result; the exit code is non-zero when the build or
any output check failed.  --workload all runs the three workloads one
after the other, each printing its own result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("udp_bulk", "sim_exact_rlnc", "sim_aggregate")
EXE = ROOT / "_build" / "default" / "perfbench" / "main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources in a plain checkout."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".ml", ".mli", ".c", "") and "out" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def pin_to_one_cpu():
    """Keep the single-threaded benchmark on one CPU: migrating between
    CPUs whose neighbours load them differently makes run-to-run timings
    bimodal."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("no library sources next to the benchmark; run from a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found")
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not EXE.is_file():
        fail("build failed")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(workload, args, env) for workload in workloads]
    sys.exit(max(codes))


def run_one(workload, args, env):
    """Run one workload, pass its output through and return its exit code."""
    command = [str(EXE), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", source_rev(), "--nproc", str(len(os.sched_getaffinity(0)))]
    if args.trace == 1:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        command += ["--spans-out", str(out / f"{workload}-seed{args.seed}.spans.tsv")]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(run.stdout, end="")
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    print(run.stdout, end="")
    return run.returncode

if __name__ == "__main__":
    main()
