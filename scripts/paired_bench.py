#!/usr/bin/env python3
"""Paired parent/change runs of the campaign benchmark, and a check of
committed bench points.

Run from the repository root, with the parent commit unpacked elsewhere
(for example `git archive <parent> | tar -x -C ../parent`):

    python3 scripts/paired_bench.py run --parent ../parent --change . \\
        --workload persona-sweep --workload external-matrix \\
        --seeds 1-10 --seconds 20 --name state_repeat \\
        --what "..." --out bench/results/BENCH_state_repeat.json

Each checkout runs its own campaign_bench/run.py with its own
CARGO_TARGET_DIR (under --build-root), so the two builds never mix. One
unrecorded warm-up run per checkout and workload builds the benchmark and
checks the pinned outcome. Then, for each workload and seed, the parent and
the change run back to back, in an order that alternates from seed to seed,
so a drift in the host's load hits both sides alike. The result is a
BENCH_<name>.json in the layout of bench/results/: per workload and
end-to-end metric, the runs, median and quartiles of each side, the pairs
the change won and the ratio of the medians. With --trace-seed, each side
also makes one traced run per workload, and the layers named by
--trace-key are recorded. The script exits non-zero if any run fails or
reports an incorrect campaign.

    python3 scripts/paired_bench.py check bench/results/BENCH_*.json

loads committed bench points and exits non-zero if one of them lacks a
parent or change median for a metric it lists, or has a workload section
whose runs were not all correct.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS = (("tested_per_s", "higher"), ("cpu_s", "lower"),
           ("peak_rss_mb", "lower"), ("setup_s", "lower"))
TRACE_KEYS = ("interp.timeout_s", "interp.timeout_count",
              "compiler.exec_timeout_s", "compiler.exec_timeout_count",
              "triage.s", "triage.clusters", "trace.wall_s")


def log(msg):
    print(f"paired_bench: {msg}", file=sys.stderr, flush=True)


def parse_seeds(text):
    """'1-10' or '1,3,5' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(checkout, given):
    if given:
        return given
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench(checkout, target_dir, workload, seed, seconds, trace):
    """One run.py invocation; returns its JSON result or None."""
    cmd = [sys.executable, os.path.join("campaign_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{checkout}: {workload} seed {seed} failed "
            f"({done.returncode}):\n{done.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def compare(parent, change, better):
    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    return {"parent": summary(parent), "change": summary(change),
            "change_better_pairs": f"{wins}/{len(parent)}",
            "change_over_parent":
                statistics.median(change) / p_med if p_med else None}


def run(args):
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    targets = {side: os.path.join(os.path.abspath(args.build_root), side)
               for side in sides}
    seeds = parse_seeds(args.seeds)
    ok = True
    doc = {
        "name": args.name,
        "what": args.what,
        "parent_commit": commit_of(sides["parent"], args.parent_commit),
        "change_commit": commit_of(sides["change"], args.change_commit),
        "hardware": f"{os.cpu_count()}-vCPU {platform.machine()} Linux host; "
        "campaign_bench/run.py confines each run to 2 CPUs; runs made one "
        "at a time",
        "command": "python3 campaign_bench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
    }
    for workload in args.workload:
        for side in sides:
            log(f"warm-up {side} {workload}")
            if bench(sides[side], targets[side], workload, 0, 1, 0) is None:
                return 1
        values = {side: {m: [] for m, _ in METRICS} for side in sides}
        correct = True
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                log(f"{workload} seed {seed} {side}")
                res = bench(sides[side], targets[side], workload, seed,
                            args.seconds, 0)
                if res is None:
                    return 1
                correct = correct and bool(res.get("correct"))
                for m, _ in METRICS:
                    values[side][m].append(res["metrics"][m]["value"])
        section = {
            "seeds": seeds,
            "pair_order": "alternating per seed: parent first on the 1st, "
                          "3rd, ... seed, change first on the 2nd, 4th, ...",
            "metrics": {m: compare(values["parent"][m], values["change"][m],
                                   better) for m, better in METRICS},
            "all_runs_correct": correct,
        }
        doc[workload.replace("-", "_")] = section
        ok = ok and correct
        if args.trace_seed is not None:
            traced = {}
            for side in sides:
                res = bench(sides[side], targets[side], workload,
                            args.trace_seed, 5, 1)
                if res is None:
                    return 1
                traced[side] = {k: res["metrics"][k]["value"]
                                for k in args.trace_key
                                if k in res["metrics"]}
                ok = ok and bool(res.get("correct"))
            key = f"{workload.replace('-', '_')}_trace_seed{args.trace_seed}"
            doc[key] = dict(
                command="python3 campaign_bench/run.py --workload "
                        f"{workload} --seed {args.trace_seed} --seconds 5 "
                        "--trace 1", **traced)
    if args.note:
        doc["notes"] = args.note
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    log(f"wrote {args.out}")
    if not ok:
        log("a run reported an incorrect campaign")
    return 0 if ok else 1


def check(paths):
    """Every workload section has all runs correct and both medians of
    every metric."""
    failed = False
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        sections = [(k, v) for k, v in doc.items()
                    if isinstance(v, dict) and "metrics" in v]
        problems = [] if sections else ["no workload section with metrics"]
        for key, section in sections:
            if section.get("all_runs_correct") is not True:
                problems.append(f"{key} does not record all runs correct")
            for metric, cmp in section["metrics"].items():
                for side in ("parent", "change"):
                    median = cmp.get(side, {}).get("median")
                    if not isinstance(median, (int, float)):
                        problems.append(f"{key}.{metric} lacks a {side} "
                                        "median")
        for problem in problems:
            print(f"{path}: {problem}")
        if not problems:
            print(f"{path}: ok ({len(sections)} workloads)")
        failed = failed or bool(problems)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="paired runs; writes a BENCH_*.json")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float, default=20)
    r.add_argument("--name", required=True)
    r.add_argument("--what", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--build-root", default=".paired_bench",
                   help="holds one CARGO_TARGET_DIR per side")
    r.add_argument("--parent-commit")
    r.add_argument("--change-commit")
    r.add_argument("--trace-seed", type=int)
    r.add_argument("--trace-key", action="append", default=list(TRACE_KEYS),
                   help="a traced layer to record, besides the defaults")
    r.add_argument("--note", action="append")
    c = sub.add_parser("check", help="validate committed bench points")
    c.add_argument("paths", nargs="+")
    args = ap.parse_args()
    return run(args) if args.cmd == "run" else check(args.paths)


if __name__ == "__main__":
    sys.exit(main())
