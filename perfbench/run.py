"""hetnetsim benchmark: host time and memory of the CLI on its workloads.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it measures the package in ``src/`` next to this
directory.  Every sample is a fresh interpreter running one CLI command
in one process (BLAS threads pinned to 1).  A sample counts only if its
result files pass the output gate (gate.py); failures make up
``error_rate``.

--trace 0  prints the end-to-end metrics of BENCHMARK.json from the
           samples that fit in --seconds, with ``setup_s`` from set-up
           probes run between them.  Times are scaled to a fixed host
           speed (see REF_S).
--trace 1  alternates untraced and traced samples and prints the per-layer
           metrics of BENCHMARK.json, taken from spans (spans.py).

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import gate
import spans
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up probes are fresh interpreters stopped once the first layout is
# built.  One warm-up probe fills the file cache and writes the package's
# bytecode; after it, one probe precedes every timed sample, so set-up is
# sampled across the whole run, and probes alone top it up to MIN_PROBES.
MIN_PROBES = 9
CHILD_TIMEOUT_S = 170
# Other tenants of a shared host slow it by up to 60% for seconds to
# minutes, so raw times of one run track the host more than the program.
# Each probe and sample therefore follows a reference child, which times
# sample.reference(), a fixed computation of the same kinds as the
# workloads.  A time t is reported as t * REF_S / ref_s: the time on a
# host where the reference takes REF_S seconds, a typical time of it on a
# 2-vCPU host.
REF_S = 0.25
# The host's vCPUs differ in speed from minute to minute, so every child
# runs on the same one, and a reference and the sample it scales see the
# same CPU.  NPROC is what the run was given, before that pinning.
NPROC = len(os.sched_getaffinity(0))
# One thread per sample; bytecode is cached, as for an installed package,
# whatever the caller's environment says.
_CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def run_child(mode: str, cli_args: list[str], workdir: Path) -> dict:
    """Run sample.py once; its JSON record, with "error" set on failure."""
    cmd = [sys.executable, str(HERE / "sample.py"), mode, str(SRC),
           str(workdir / "spans.npz"), "--", *cli_args]
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_CHILD_ENV,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} sample timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {}
    if proc.returncode != 0 or not isinstance(record, dict) or not record:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} sample exited {proc.returncode}: {' | '.join(tail)}"}
    if mode == "probe":
        if "ready" not in record:
            return {"error": "probe: the command ended before it was ready to simulate"}
        record["setup_s"] = record["ready"] - started
    elif mode != "reference" and record.get("rc") != 0:
        record["error"] = f"{mode} sample: CLI exited {record.get('rc')}"
    return record


def scaled(seconds: float, record: dict) -> float:
    """A time measured in a child, at the host speed REF_S stands for;
    record holds the ref_s of the reference child run just before."""
    return seconds * REF_S / record["ref_s"]


def layer_values(workload, outdir: Path, spans_file: Path, record: dict) -> dict[str, float]:
    """Per-layer numbers of one traced sample."""
    values = {}
    for span, (calls, self_s) in spans.span_totals(spans_file).items():
        values[f"{span}.calls"] = calls
        values[f"{span}.s"] = scaled(self_s, record)
    values["engine.run_scenario.self_s"] = values["engine.run_scenario.s"]
    files = [outdir / name for name in workload.result_files()]
    values["engine.write.files"] = len(files)
    values["engine.write.bytes"] = sum(f.stat().st_size for f in files)
    return values


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload.key}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    cli_args = workload.cli_args(seed, workdir, outdir)

    failures, setup, samples, child_env = [], [], [], None
    failed_helpers = 0

    def reference() -> dict | None:
        nonlocal failed_helpers
        record = run_child("reference", cli_args, workdir)
        if "error" in record:
            failures.append(record["error"])
            failed_helpers += 1
            return None
        return record

    def probe(ref: dict) -> bool:
        nonlocal child_env, failed_helpers
        record = run_child("probe", cli_args, workdir)
        shutil.rmtree(outdir, ignore_errors=True)
        if "error" in record:
            failures.append(record["error"])
            failed_helpers += 1
            return False
        child_env = record["env"]
        setup.append(scaled(record["setup_s"], ref))
        return True

    modes = ("plain", "traced") if trace else ("plain",)
    probing = not trace
    ref = reference()  # warm-up
    if ref is not None and probing and probe(ref):
        setup.clear()  # the warm-up probe does not count
    began = perf_counter()
    rounds = []  # seconds taken by each reference + probe + sample round
    # A round starts only if, at its typical length, it ends no more than
    # half a round past --seconds, so a run lasts about --seconds.
    while not failures and (len(samples) < len(modes) or
                            perf_counter() - began + median(rounds) / 2 <= seconds):
        round_began = perf_counter()
        ref = reference()
        if ref is None or (probing and not probe(ref)):
            break
        mode = modes[len(samples) % len(modes)]
        record = run_child(mode, cli_args, workdir)
        record["ref_s"] = ref["ref_s"]
        if "error" in record:
            problems = [record["error"]]
        else:
            problems = gate.verify(workload, seed, outdir)
            child_env = record["env"]
        if mode == "traced" and not problems:
            record["layers"] = layer_values(workload, outdir, workdir / "spans.npz", record)
        record.update(mode=mode, problems=problems)
        failures += problems
        samples.append(record)
        shutil.rmtree(outdir, ignore_errors=True)
        rounds.append(perf_counter() - round_began)
    while probing and not failures and len(setup) < MIN_PROBES:
        ref = reference()
        if ref is not None:
            probe(ref)

    ok = [s for s in samples if not s["problems"]]
    # A probe or reference child that fails is a failed attempt too.
    attempted = len(samples) + failed_helpers
    return {
        "attempted": attempted,
        "failed": attempted - len(ok),
        "failures": failures,
        "ok": ok,
        "setup": setup,
        "env": child_env,
    }


def end_to_end(workload, run: dict) -> dict[str, float]:
    ok = run["ok"]
    if not ok or not run["setup"]:
        return {}
    wall = median(scaled(s["wall_s"], s) for s in ok)
    return {
        "wall_s": wall,
        "user_slots_per_s": workload.user_slots / wall,
        "setup_s": median(run["setup"]),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in ok),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = [s for s in run["ok"] if s["mode"] == "traced"]
    plain = [s for s in run["ok"] if s["mode"] == "plain"]
    if not traced or not plain:
        return {}
    # median_low reports an observed value, so counts stay whole numbers.
    values = {name: median_low(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["trace_overhead_frac"] = (
        median(scaled(s["wall_s"], s) for s in traced)
        / median(scaled(s["wall_s"], s) for s in plain) - 1.0
    )
    return values


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Fingerprint of the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload, seed: int, child_env: dict | None) -> dict:
    return {
        "workload": workload.key,
        "seed": seed,
        "nproc": NPROC,
        **(child_env or {}),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def report(workload, seed: int, seconds: float, trace: bool, spec: dict) -> bool:
    """Measure one workload and print its metrics; True when correct."""
    run = measure(workload, seed, seconds, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(run) if trace else end_to_end(workload, run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if values}
    correct = bool(metrics) and run["failed"] == 0
    env = environment(workload, seed, run["env"])

    for problem in run["failures"]:
        print(f"{workload.key}: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload.key} {name} {m['value']!r} {m['unit']}")
    print(f"{workload.key} error_rate {run['failed'] / run['attempted']!r} fraction")
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = {**result, "env": env, "setup_s": run["setup"],
              "samples": [{k: v for k, v in s.items() if k != "env"}
                          for s in run["ok"]],
              "failures": run["failures"]}
    (WORK / f"result-{workload.key}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "hetnetsim" / "__init__.py").is_file():
        print(f"error: no hetnetsim package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [report(WORKLOADS[n], args.seed, seconds, bool(args.trace), spec)
          for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
