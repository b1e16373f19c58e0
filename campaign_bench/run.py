#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Run from the repository root:

    python3 campaign_bench/run.py --workload persona-sweep --seed 0 \
        --seconds 20 --trace 0

The benchmark and the SPE library are built (Release) under
$CARGO_TARGET_DIR, or .bench_build when it is unset; the first run builds,
later runs only re-check. The binary runs in its own session with this
process as child subreaper, so whatever it leaves behind (a wedged
compiler broker after a missed deadline) is killed and reaped before this
script exits. The last line of stdout is the benchmark's JSON result; a
failed build or run exits non-zero.

The run, with every process it starts, is confined to two CPUs. A
workload keeps at most three processes busy (the harness thread and two
compiler brokers, which mostly take turns). Spread over every vCPU of a
shared virtual machine, a broker hand-off can wake an idle vCPU, and
external-matrix throughput then swung with the host's load.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36
RUN_CPUS = 2


def log(msg):
    print(f"campaign_bench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"build timed out: {' '.join(cmd)}")
            return None
        if done.returncode != 0:
            log(f"build failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "campaign_bench")


def children_of(parent):
    """Pids whose parent is `parent`, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def reap_descendants(pgid):
    """Kills the benchmark's process group, then every process re-parented
    to us (brokers run in process groups of their own), and waits until
    none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            return
        for pid in children_of(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    log("some benchmark processes could not be reaped")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The compiler's temporary files stay inside the build tree too.
    tmp_dir = os.path.abspath(os.path.join(build_root, "campaign_bench_tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    binary = build(os.path.join(build_root, "campaign_bench"))
    if binary is None:
        return 1

    # Orphans of the benchmark (broker processes of a run killed on its
    # deadline) re-parent to this process so they can be reaped.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        log("could not become child subreaper; orphans go to init")

    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:RUN_CPUS])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "campaign_bench_work"),
           "--expected-dir", os.path.join(HERE, "expected")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        reap_descendants(proc.pid)
        return 1
    reap_descendants(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
