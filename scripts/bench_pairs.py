#!/usr/bin/env python3
"""Paired benchmark runs of two revisions; writes BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 9 --parent HEAD~1 --change HEAD \\
        --first-seed 901 --claim grid-resume:wall_s --traced grid-resume

Each revision is exported with `git archive` into a temporary directory, so
no branch, index or work tree of the repository is touched, and the
benchmark builds what it runs from that copy. The workloads, the run length
and the end-to-end metrics come from the change side's `BENCHMARK.json`.
Each of 10 pairs, k = 0..9, runs `bench/run.py --workload W --seed S
--seconds T --trace 0` once per side on seed S = first seed + k, for every
workload in turn; pairs with even k run the parent first, odd k the change
first. For each end-to-end metric the file holds both sides' runs, medians
and quartiles, the quartile distances, the median change and each pair's
outcome (change, parent, tie, or missing when a run reported no value; the
runs without one are listed). Because the second run of a pair can read
differently whichever side it is, each metric also gives, for the
parent-first and the change-first pairs apart, the median change-minus-parent
difference and the change's wins. Because the host's speed drifts between
pairs, which widens each side's own quartiles, each metric also gives the
median and quartile distance of the per-pair change-minus-parent differences
over all pairs that have both values. Exit codes and failed operations per side
and the machine the runs took (nproc, Python and numpy versions, and the
requests version where it is installed) are recorded too.
`--claim W:METRIC` states whether the change beat the parent in at least 9
of the 10 pairs (ties and missing pairs are not wins) and by more than the
parent's quartile distance in the median, and why not if it did not.
`--traced W` adds one `--trace 1` run per side on the seed after the last
pair, with its per-layer metrics. The file is rewritten after every run, so
an interrupted set keeps what it measured.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of `rev` under `dest`, through `git archive`."""
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} exited {proc.returncode}")
    return dest


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; its result object, exit code and raw wall time."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-12:]
    result["rc"] = proc.returncode
    result["run_s"] = round(elapsed, 2)
    result["metrics"] = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> dict[str, float] | None:
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def outcome(parent: float | None, change: float | None, lower: bool) -> str:
    """Which side a pair favours on one metric."""
    if parent is None or change is None:
        return "missing"
    if parent == change:
        return "tie"
    return "change" if (change < parent) == lower else "parent"


def differences(parent: list, change: list) -> list[float]:
    """Each pair's change-minus-parent difference; pairs missing a value are skipped."""
    return [c - p for p, c in zip(parent, change) if p is not None and c is not None]


def paired_summary(parent: list, change: list) -> dict | None:
    """Median and quartile distance of the per-pair differences."""
    diffs = differences(parent, change)
    q = quartiles(diffs)
    if q is None:
        return None
    return {
        "pairs": len(diffs),
        "median_change_minus_parent": q["median"],
        "quartile_distance": round(q["q3"] - q["q1"], 4),
    }


def order_summary(parent: list, change: list, outcomes: list[str]) -> dict:
    """The pairs of one running order: median change-minus-parent difference and the change's wins."""
    diffs = differences(parent, change)
    return {
        "median_change_minus_parent": round(statistics.median(diffs), 4) if diffs else None,
        "change_better_in": f"{outcomes.count('change')} of {len(outcomes)} pairs",
    }


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: both sides' runs and quartiles, and each pair's outcome."""
    out = {}
    pairs = min(len(runs["parent"]), len(runs["change"]))
    if pairs == 0:
        return out
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"].get(name) for r in runs[side][:pairs]] for side in SIDES}
        present = {side: [v for v in values[side] if v is not None] for side in SIDES}
        q = {side: quartiles(present[side]) for side in SIDES}
        outcomes = [outcome(p, c, lower) for p, c in zip(values["parent"], values["change"])]
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **q}
        if q["parent"] and q["change"]:
            parent_median = q["parent"]["median"]
            entry["parent_quartile_distance"] = round(q["parent"]["q3"] - q["parent"]["q1"], 4)
            entry["change_quartile_distance"] = round(q["change"]["q3"] - q["change"]["q1"], 4)
            entry["median_change"] = (
                f"{100 * (q['change']['median'] - parent_median) / parent_median:+.1f}%" if parent_median else "n/a"
            )
        entry["change_better_in"] = f"{outcomes.count('change')} of {pairs} pairs"
        entry["wins"] = outcomes
        entry["paired_differences"] = paired_summary(values["parent"], values["change"])
        entry["by_order"] = {
            order: order_summary(values["parent"][first::2], values["change"][first::2], outcomes[first::2])
            for order, first in (("parent_first", 0), ("change_first", 1))
        }
        missing = {side: [i for i, v in enumerate(values[side]) if v is None] for side in SIDES}
        if any(missing.values()):
            entry["runs_without_value"] = missing
        entry["parent_runs"] = values["parent"]
        entry["change_runs"] = values["change"]
        out[name] = entry
    return out


def claim(summary: dict, metric: str) -> dict:
    """Whether the change met the claim on `metric`, and why not if it did not."""
    s = summary.get(metric)
    if s is None:
        return {"met": None, "reason": f"no completed pair reports {metric}"}
    if "parent_quartile_distance" not in s:
        return {"met": False, "reason": f"a side has no run that reports {metric}"}
    won = s["wins"].count("change")
    gain = s["parent"]["median"] - s["change"]["median"]
    if s["better"] == "higher":
        gain = -gain
    reasons = []
    if won < 0.9 * PAIRS:
        reasons.append(f"the change won {won} of {PAIRS} pairs")
    if gain <= s["parent_quartile_distance"]:
        reasons.append(f"median gain {gain:.4g} is not above the parent's quartile distance")
    return {"met": not reasons, **({"reason": "; ".join(reasons)} if reasons else {})}


def machine() -> dict:
    import numpy

    doc = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": numpy.__version__}
    try:  # recorded where installed: older revisions of the program send through requests
        doc["requests"] = importlib.metadata.version("requests")
    except importlib.metadata.PackageNotFoundError:
        pass
    return {**doc, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--traced", nargs="*", default=[], help="workloads to run once traced per side")
    args = ap.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    bench = json.loads(git("show", f"{revs['change']}:BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    last_seed = args.first_seed + PAIRS - 1

    doc: dict = {
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds:g} --trace 0, "
        "in a git archive of each revision",
        "parent_rev": revs["parent"],
        "change_rev": revs["change"],
        "src_trees": {side: git("rev-parse", f"{revs[side]}:src") for side in SIDES},
        "machine": machine(),
        "workloads": {},
    }
    runs = {w: {side: [] for side in SIDES} for w in workloads}

    def write():
        for w in workloads:
            doc["workloads"][w] = {
                "seeds": f"{args.first_seed}-{last_seed}",
                "pairs": min(len(runs[w]["parent"]), len(runs[w]["change"])),
                "order": "even pair indices (from 0) ran the parent first, odd ones the change first",
                "exit_codes": {side: [r["rc"] for r in runs[w][side]] for side in SIDES},
                "failed_operations": {
                    side: f"{sum(r['failed'] for r in runs[w][side])} of {sum(r['attempted'] for r in runs[w][side])}"
                    for side in SIDES
                },
                "metrics": summarize(runs[w], bench["end_to_end"]),
            }
        if args.claim:
            workload, metric = args.claim.split(":")
            summary = doc["workloads"].get(workload, {}).get("metrics", {})
            doc["claim"] = {
                "workload": workload,
                "metric": metric,
                "rule": "change better in at least 9 of 10 pairs and the median gain above the parent's quartile distance",
                **claim(summary, metric),
            }
        out.write_text(json.dumps(doc, indent=2) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: export(revs[side], Path(tmp) / side) for side in SIDES}
        for k in range(PAIRS):
            seed = args.first_seed + k
            for w in workloads:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result = bench_once(checkouts[side], w, seed, seconds, trace=False)
                    runs[w][side].append(result)
                    print(f"pair {k} seed {seed} {w} {side}: rc {result['rc']} {result['metrics']}", file=sys.stderr)
                    write()
        if args.traced:
            seed = last_seed + 1
            doc["traced"] = {}
            for w in args.traced:
                doc["traced"][w] = {"seed": seed}
                for side in SIDES:
                    result = bench_once(checkouts[side], w, seed, seconds, trace=True)
                    doc["traced"][w][side] = {"rc": result["rc"], "metrics": result["metrics"]}
                    print(f"traced {w} {side}: rc {result['rc']}", file=sys.stderr)
                    write()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
