"""Output gate: a run counts only if its result files are right.

Two checks.  At the default seed every result file must match the SHA-256
recorded in digests.json (the simulated statistics must stay
byte-identical).  At any seed the files must satisfy invariants that the
model guarantees, read back from the written CSVs.

    python3 perfbench/gate.py --record   # rewrite digests.json

Re-record only when a change alters output bytes on purpose, and say why.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    MACRO_ACTIVE_FLOOR_W,
    PICO_SECTORS,
    PresetWorkload,
    RunWorkload,
    SweepWorkload,
)

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Slot power is a float sum over the stations; the floor is met up to rounding.
POWER_RTOL = 1e-12


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_files(workload, outdir: Path) -> dict[str, str]:
    return {name: sha256(outdir / name) for name in workload.result_files()}


def verify(workload, seed: int, outdir: Path) -> list[str]:
    """Every problem found with the outputs in outdir; empty means pass."""
    missing = [n for n in workload.result_files() if not (outdir / n).is_file()]
    if missing:
        return [f"missing result file {n}" for n in missing]
    problems = []
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text()).get(workload.key)
        if expected is None:
            problems.append(f"no stored digests for {workload.key}")
        else:
            for name, digest in digest_files(workload, outdir).items():
                if expected.get(name) != digest:
                    problems.append(f"{name}: SHA-256 differs from digests.json")
    return problems + check_invariants(workload, outdir)


def check_invariants(workload, outdir: Path) -> list[str]:
    """Properties the model guarantees at any seed."""
    try:
        if isinstance(workload, RunWorkload):
            return _run_invariants(workload, outdir)
        if isinstance(workload, SweepWorkload):
            return _threshold_invariants(workload, outdir)
        return _sweep_invariants(workload, outdir)
    except (OSError, ValueError, KeyError, csv.Error, UnicodeDecodeError) as exc:
        return [f"unreadable result file: {exc!r}"]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _run_invariants(w: RunWorkload, outdir: Path) -> list[str]:
    problems = []
    floor = MACRO_ACTIVE_FLOOR_W + w.n_picos * PICO_SECTORS * w.p_sleep_w
    slots = _rows(outdir / "slots.csv")
    if len(slots) != w.slots:
        problems.append(f"slots.csv has {len(slots)} rows, want {w.slots}")
    for row in slots:
        s = row["slot"]
        served = int(row["macro_active_users"]) + int(row["pico_active_users"])
        if served > w.users:
            problems.append(f"slot {s}: {served} served users > {w.users}")
        if not 0 <= int(row["n_active_picos"]) <= w.n_picos:
            problems.append(f"slot {s}: n_active_picos outside [0, {w.n_picos}]")
        cap, power = float(row["capacity_bps"]), float(row["power_w"])
        if power < floor * (1.0 - POWER_RTOL):
            problems.append(f"slot {s}: power_w {power!r} below floor {floor!r}")
        if power > 0 and float(row["ee_bits_per_joule"]) != cap / power:
            problems.append(f"slot {s}: ee_bits_per_joule != capacity_bps / power_w")

    users = _rows(outdir / "users.csv")
    if len(users) != w.users:
        problems.append(f"users.csv has {len(users)} rows, want {w.users}")
    n_hot = sum(u["kind"] == "hotspot" for u in users)
    if n_hot != w.hotspot:
        problems.append(f"users.csv has {n_hot} hotspot users, want {w.hotspot}")
    # A user's mean rate is positive exactly when it was ever active.
    ever_active = sum(float(u["mean_rate_bps"]) > 0.0 for u in users)
    hist = sum(int(r["count"]) for r in _rows(outdir / "histogram.csv"))
    if hist != ever_active:
        problems.append(f"histogram counts sum to {hist}, want {ever_active}")

    topo = json.loads((outdir / "topology.json").read_text())
    if len(topo["picos"]) != w.n_picos:
        problems.append(f"topology.json has {len(topo['picos'])} picos")
    if w.traces:
        for name, per_slot in (("user_trace.csv", w.users),
                               ("pico_trace.csv", w.n_picos)):
            rows = _line_count(outdir / name) - 1
            if rows != per_slot * w.slots:
                problems.append(f"{name} has {rows} rows, want {per_slot * w.slots}")
    return problems


def _threshold_invariants(w: SweepWorkload, outdir: Path) -> list[str]:
    # Pico sleep power is 0 W here too, so the floor is the macro.
    problems = []
    sweep = _rows(outdir / "sweep.csv")
    thresholds = [float(row["threshold"]) for row in sweep]
    if thresholds != [float(t) for t in range(w.points)]:
        problems.append(f"sweep.csv thresholds are {thresholds}, want 0..{w.t_max}")
    for row in sweep:
        if row["topology"] != w.topology:
            problems.append(f"T={row['threshold']}: topology {row['topology']!r}")
        power = float(row["power_mean"])
        if power < MACRO_ACTIVE_FLOOR_W * (1.0 - POWER_RTOL):
            problems.append(f"T={row['threshold']}: power_mean {power!r} "
                            f"below floor {MACRO_ACTIVE_FLOOR_W!r}")
    return problems


def _sweep_invariants(w: PresetWorkload, outdir: Path) -> list[str]:
    # Preset scenarios keep pico sleep power at 0 W, so the floor is the macro.
    problems = []
    sweep = _rows(outdir / "sweep.csv")
    if len(sweep) != w.points:
        problems.append(f"sweep.csv has {len(sweep)} rows, want {w.points}")
    for row in sweep:
        power = float(row["power_mean"])
        if power < MACRO_ACTIVE_FLOOR_W * (1.0 - POWER_RTOL):
            problems.append(f"{row['topology']} T={row['threshold']}: power_mean "
                            f"{power!r} below floor {MACRO_ACTIVE_FLOOR_W!r}")
    counts = _rows(outdir / "pico_count.csv")
    if len(counts) != w.points:
        problems.append(f"pico_count.csv has {len(counts)} rows, want {w.points}")
    for row in counts:
        m = 0 if row["topology"] == "monet" else w.n_picos
        if not 0.0 <= float(row["active_picos_mean"]) <= m:
            problems.append(f"{row['topology']} T={row['threshold']}: "
                            f"active_picos_mean outside [0, {m}]")
    return problems


def _record() -> None:
    """Run every workload, full and tiny, at the default seed and store the
    digests of its result files."""
    import tempfile

    import run
    from workloads import TINY, WORKLOADS

    digests = {}
    for w in [*WORKLOADS.values(), *TINY.values()]:
        if w.key in digests:
            continue
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            workdir = Path(tmp)
            outdir = workdir / "out"
            record = run.run_child("plain", w.cli_args(DEFAULT_SEED, workdir, outdir),
                                   workdir)
            if record.get("rc") != 0:
                raise SystemExit(f"{w.key}: command failed: {record}")
            problems = check_invariants(w, outdir)
            if problems:
                raise SystemExit(f"{w.key}: {problems}")
            digests[w.key] = digest_files(w, outdir)
        print(f"{w.key}: {len(digests[w.key])} files", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/gate.py --record")
    _record()
