"""Timed A/B of the perfbench workloads: this tree against a base commit.

Run from the root of a checkout::

    python3 .github/scripts/perf_ab.py --base <rev> [--out perf_ab.json]

The base is checked out into a git worktree (``.perf_ab_base/``), and
this tree's ``perfbench/`` replaces the worktree's copy, so both sides
run the same benchmark code on their own ``src/``.  For each workload
in ``BENCHMARK.json`` the script runs ``PAIRS`` pairs of::

    python3 <tree>/perfbench/run.py --workload W --seed 42 \\
        --seconds <run_seconds> --trace 0

one on each side, alternating which side runs first.  Only
``run_seconds`` comes from ``BENCHMARK.json``.

It exits 1 when any run does not end with ``correct: true`` and
``failed: 0``, or when this tree's median of an end-to-end metric is
worse than the base's median by more than the metric's ``bound``.  The
medians table goes to standard output and, when ``GITHUB_STEP_SUMMARY``
is set, to the job summary; every run's result line goes to ``--out``.

Three pairs catch gross regressions only.  They are not evidence for a
gain, which needs many more interleaved pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BASE_DIR = os.path.join(ROOT, ".perf_ab_base")
SEED = 42
PAIRS = 3
SIDES = ("base", "change")


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def remove_base() -> None:
    if os.path.exists(BASE_DIR):
        subprocess.run(["git", "worktree", "remove", "--force", BASE_DIR],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(BASE_DIR, ignore_errors=True)
    git("worktree", "prune")


def make_base(sha: str) -> None:
    """Check ``sha`` out into BASE_DIR with this tree's perfbench/."""
    remove_base()
    git("worktree", "add", "--detach", BASE_DIR, sha)
    bench = os.path.join(BASE_DIR, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))


def run_once(tree: str, workload: str, seconds) -> dict:
    """One perfbench run; its result line, or a record of the failure."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    if (proc.returncode != 0 or not isinstance(doc, dict)
            or "metrics" not in doc):
        tail = (proc.stdout + proc.stderr).splitlines()[-20:]
        print("\n".join(tail), file=sys.stderr)
        return {"correct": False, "failed": None,
                "error": f"exit {proc.returncode}"}
    return doc


def run_ok(doc: dict) -> bool:
    return doc.get("correct") is True and doc.get("failed") == 0


def measure(workloads, seconds) -> dict:
    trees = {"base": BASE_DIR, "change": ROOT}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for w in workloads:
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                doc = run_once(trees[side], w, seconds)
                runs[w][side].append(doc)
                values = " ".join(
                    f"{name}={m['value']:.4g}"
                    for name, m in doc.get("metrics", {}).items())
                print(f"{w} {side} pair {pair + 1}/{PAIRS}: "
                      f"{'ok' if run_ok(doc) else 'FAILED'} {values}",
                      flush=True)
    return runs


def median_of(docs, name):
    values = [d["metrics"][name]["value"] for d in docs
              if name in d.get("metrics", {})]
    return statistics.median(values) if values else None


def judge(runs, end_to_end):
    """Medians rows and the failures that fail the gate."""
    rows, failures = [], []
    for w, sides in runs.items():
        for side in SIDES:
            bad = sum(not run_ok(d) for d in sides[side])
            if bad:
                failures.append(f"{w}: {bad} {side} run(s) not correct "
                                "or with failed operations")
        for metric in end_to_end:
            name = metric["name"]
            base = median_of(sides["base"], name)
            change = median_of(sides["change"], name)
            if base is None or change is None:
                failures.append(f"{w}: no {name} on one side")
                continue
            assert metric["better"] == "lower", metric
            bound = metric["bound"]
            worse = change > base * (1 + bound)
            if worse:
                failures.append(
                    f"{w}: {name} median {change:.4g} {metric['unit']} "
                    f"vs base {base:.4g} (bound {bound:.0%})")
            rows.append({"workload": w, "metric": name,
                         "unit": metric["unit"], "base": base,
                         "change": change, "bound": bound,
                         "worse": worse})
    return rows, failures


def table(rows, failures, sha, seconds) -> str:
    out = [f"### perfbench A/B: base {sha[:12]} vs this tree "
           f"(seed {SEED}, {PAIRS} pairs x {seconds} s)", "",
           "| workload | metric | base median | change median | "
           "change/base | bound | verdict |",
           "|---|---|---:|---:|---:|---:|---|"]
    for r in rows:
        ratio = (f"{r['change'] / r['base'] - 1:+.1%}" if r["base"]
                 else "-")
        out.append(
            f"| {r['workload']} | {r['metric']} ({r['unit']}) | "
            f"{r['base']:.4g} | {r['change']:.4g} | {ratio} | "
            f"{r['bound']:.0%} | {'WORSE' if r['worse'] else 'ok'} |")
    out.append("")
    out.extend(f"- FAIL {f}" for f in failures)
    if not failures:
        out.append("All runs correct; no end-to-end metric past its bound.")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="commit to compare against (e.g. HEAD^)")
    ap.add_argument("--out", default="perf_ab.json",
                    help="JSON file for every run's result line")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    make_base(sha)
    try:
        runs = measure(workloads, seconds)
    finally:
        remove_base()
    rows, failures = judge(runs, bench["end_to_end"])
    report = table(rows, failures, sha, seconds)
    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"base": sha, "seed": SEED, "pairs": PAIRS,
                   "run_seconds": seconds, "medians": rows,
                   "failures": failures, "runs": runs},
                  fh, indent=1, sort_keys=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
