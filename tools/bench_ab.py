"""Paired benchmark of a base revision against the working tree.

    python3 tools/bench_ab.py --base REV --out FILE [--pairs N] [--seconds S]
                              [--seed N] [--trace 0|1] [--workload NAME ...]

Extracts REV with ``git archive`` into a temporary directory, then for
each workload of BENCHMARK.json (or each --workload) runs both sides'
``perfbench/run.py`` N times, alternating which side runs first.  FILE
gets one entry per call, appended to its ``runs`` if it exists: per
workload, the metrics of every run, each side's median and quartiles of
each metric, the pairs the working tree won (ties count for neither),
and both sides' ``src_sha256``.  --trace 1 records the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method) and their
    distance, of one side's runs of one metric."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, declared: list[dict]) -> dict:
    """Per declared metric: each side's quartiles and runs, and the pairs
    the change won.  runs["base"][i] and runs["change"][i] are pair i's
    {metric name: value}; a metric one side lacks in a pair is skipped."""
    out = {}
    for spec in declared:
        name = spec["name"]
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])
                 if name in b and name in c]
        if not pairs:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: {**quartiles(list(values)), "runs": list(values)}
               for side, values in zip(SIDES, zip(*pairs))},
            "pairs": len(pairs),
            "change_won": sum(sign * (c - b) < 0 for b, c in pairs),
        }
    return out


def run_side(root: Path, workload: str, seconds: float, seed: int, trace: int) -> dict:
    """One perfbench run of the checkout at root: its metric values,
    correctness and src_sha256."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    return {"correct": proc.returncode == 0 and result["correct"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "src_sha256": env.get("src_sha256")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write or extend")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); BENCHMARK.json's by default")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base_commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
    entry = {"base": args.base, "base_commit": base_commit, "pairs": args.pairs,
             "seconds": args.seconds, "seed": args.seed, "trace": args.trace,
             "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", base_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        roots = {"base": base, "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            first = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(run_side(roots[side], workload, args.seconds,
                                               args.seed, args.trace))
                print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr, flush=True)
            entry["workloads"][workload] = {
                "first": first,
                "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
                "src_sha256": {s: sorted({r["src_sha256"] for r in runs[s]}) for s in SIDES},
                "metrics": summarize({s: [r["metrics"] for r in runs[s]] for s in SIDES},
                                     declared),
            }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all(all(w["correct"].values()) for w in entry["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
