#!/usr/bin/env python3
"""Same-host A/B of the end-to-end benchmark: a base revision against HEAD.

    python3 tools/ab.py f40bd72 --workloads onboard_cold --seeds 1-10
    python3 tools/ab.py f40bd72 --cmd "{pml} compile --model m.json --cluster Frontera --out /dev/null"

Exports both revisions with `git archive` into a scratch directory (the
repository's worktrees are untouched), builds each with its own
CARGO_TARGET_DIR, then runs perfbench/run.py in interleaved pairs over the
seed list, alternating which side runs first. Prints, per workload and
metric, the median [quartiles] of both sides, how many pairs the head
won, and the base's quartile spread, stamped with perfbench's host line.
A gain is claimed when the head wins at least 9 of 10 pairs and the
medians differ by more than the base's quartile spread. From 20 seeds up
each half of the pairs is summarized too, and "gain holds" is printed only
when the whole list and both halves claim the gain, so one lucky run of
pairs on a shared host is not enough. Each end_to_end
metric of BENCHMARK.json also gets a no-regression verdict against its
bound: `holds`, `REGRESSED`, or `unresolved` when the base's own spread
is wider than the bound.

--cmd times a plain command on both builds instead (wall time and the
child's ru_maxrss); {pml} in it names each side's `pml` binary. The script
reads perfbench/ and BENCHMARK.json and never writes them.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPLIT_PAIRS = 20  # from this many pairs, each half must claim a gain too


def quartiles(values):
    """(q1, median, q3) with inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base, head, better):
    """Pairwise comparison of one metric: base[i] and head[i] ran as a pair."""
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    spread = b3 - b1
    claimed = (wins >= math.ceil(0.9 * len(base)) and
               sign * (hmed - bmed) > spread)
    return {"base": (b1, bmed, b3), "head": (h1, hmed, h3), "wins": wins,
            "pairs": len(base), "base_iqr": spread, "claimed": claimed}


def gain(base, head, better):
    """summarize() of all pairs and, from SPLIT_PAIRS pairs up, of the
    first and second half; the gain holds only if every summary claims it."""
    whole = summarize(base, head, better)
    halves = []
    if len(base) >= SPLIT_PAIRS:
        mid = len(base) // 2
        halves = [summarize(base[:mid], head[:mid], better),
                  summarize(base[mid:], head[mid:], better)]
    return whole, halves, all(s["claimed"] for s in [whole] + halves)


def regression(base, head, better, bound):
    """No-regression verdict of one metric with `bound`, a fraction of the
    base median: "holds" when the head's median is worse by at most the
    bound, "REGRESSED" past it, and "unresolved" when the base's quartile
    spread alone exceeds the bound, unless every head run beats every
    base run."""
    b1, bmed, b3 = quartiles(base)
    hmed = quartiles(head)[1]
    sign = -1.0 if better == "lower" else 1.0
    allowed = bound * abs(bmed)
    if b3 - b1 > allowed:
        best_base = max(base) if better == "higher" else min(base)
        if not all(sign * (h - best_base) > 0 for h in head):
            return "unresolved"
    return "holds" if sign * (bmed - hmed) <= allowed else "REGRESSED"


def parse_run(stdout):
    """perfbench's host line and its result JSON (the last stdout line)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    host = next((line[5:] for line in lines if line.startswith("host ")), "")
    return host, json.loads(lines[-1])


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def metrics_spec():
    """Per metric name: its direction, and its bound if it is end_to_end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def export(rev, dest):
    if dest.exists():  # a --scratch reused from an earlier run, builds too
        return
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"ab: git archive {rev} failed")


def bench(side, workload, seed, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    proc = subprocess.run(cmd, cwd=side["tree"], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"ab: {side['name']} {workload} seed {seed} failed "
                 f"({proc.returncode})")
    return parse_run(proc.stdout)


def build_pml(side):
    out = side["target"] / "pml"
    for cmd in (["cmake", "-S", str(side["tree"]), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", "pml", "-j",
                 str(min(4, os.cpu_count() or 1))]):
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return out / "tools" / "pml"


def time_command(template, pml):
    """Wall seconds and the child's peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(template.format(pml=pml), shell=True,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status != 0:
        sys.exit(f"ab: command failed: {template.format(pml=pml)}")
    return wall, usage.ru_maxrss / 1024.0


def fmt(triple):
    q1, median, q3 = triple
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def line(label, result, verdict=""):
    return (f"  {label:28s} base {fmt(result['base']):30s} "
            f"head {fmt(result['head']):30s} wins {result['wins']}/"
            f"{result['pairs']}  base IQR {result['base_iqr']:.4g}{verdict}")


def report(name, base, head, better, no_regression=""):
    whole, halves, holds = gain(base, head, better)
    verdict = "  gain holds" if holds else ""
    if no_regression:
        verdict += f"  no-regression {no_regression}"
    print(line(name, whole, verdict))
    for i, half in enumerate(halves):
        print(line(f"  half {i + 1}", half,
                   "  claimed" if half["claimed"] else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="base revision")
    parser.add_argument("--head", default="HEAD", help="head revision")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--workloads", default="select_hot,onboard_cold")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", help="export and build directory; an "
                        "existing one is reused with its builds")
    parser.add_argument("--cmd", help="time this command instead; {pml} is "
                        "each side's pml binary")
    args = parser.parse_args()

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="pml-ab-"))
    sides = []
    for name, rev in (("base", args.rev), ("head", args.head)):
        side = {"name": name, "tree": scratch / name,
                "target": scratch / f"{name}-target"}
        export(rev, side["tree"])
        sides.append(side)
    seeds = seed_list(args.seeds)
    print(f"ab: base {args.rev} vs head {args.head}, {len(seeds)} pairs, "
          f"scratch {scratch}")

    if args.cmd:
        binaries = [build_pml(side) for side in sides]
        samples = {"wall_s": ([], []), "maxrss_mb": ([], [])}
        for i in range(len(seeds)):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                wall, rss = time_command(args.cmd, binaries[s])
                samples["wall_s"][s].append(wall)
                samples["maxrss_mb"][s].append(rss)
        print(f"command: {args.cmd}")
        for metric, (base, head) in samples.items():
            report(metric, base, head, "lower")
        return 0

    spec = metrics_spec()
    for workload in args.workloads.split(","):
        runs = ([], [])
        host = ""
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                host, result = bench(sides[s], workload, seed, args)
                runs[s].append(result)
        print(f"workload {workload}")
        print(f"  host {host}")
        for s, side in enumerate(sides):
            failed = sum(r.get("failed", 0) for r in runs[s])
            print(f"  {side['name']} failed {failed}, correct "
                  f"{all(r.get('correct') for r in runs[s])}")
        for metric in runs[0][0]["metrics"]:
            base = [r["metrics"][metric]["value"] for r in runs[0]]
            head = [r["metrics"][metric]["value"] for r in runs[1]]
            better, bound = spec.get(metric, ("lower", None))
            report(metric, base, head, better,
                   "" if bound is None else
                   regression(base, head, better, bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
