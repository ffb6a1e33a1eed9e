"""tools/bench_ab.py's summary of paired runs, on fixed numbers: no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "user_slots_per_s", "unit": "user_slot/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def test_summary_gives_quartiles_and_the_pairs_the_change_won():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0]  # wins 3, ties 1, loses 1
    runs = {"base": [{"wall_s": b, "user_slots_per_s": 1 / b} for b in base],
            "change": [{"wall_s": c, "user_slots_per_s": 1 / c} for c in change]}
    out = bench_ab.summarize(runs, DECLARED)
    assert list(out) == ["wall_s", "user_slots_per_s"]  # setup_s was not measured
    wall = out["wall_s"]
    assert wall["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "runs": base}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "runs": change}
    assert (wall["pairs"], wall["change_won"]) == (5, 3)
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    # higher is better: the same pairs are won
    assert out["user_slots_per_s"]["change_won"] == 3
    assert out["user_slots_per_s"]["base"]["median"] == pytest.approx(1 / 3)


def test_summary_of_one_pair_and_of_pairs_missing_a_metric():
    runs = {"base": [{"wall_s": 2.0}, {}], "change": [{"wall_s": 1.0}, {"wall_s": 9.0}]}
    out = bench_ab.summarize(runs, DECLARED)
    assert out["wall_s"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0,
                                     "runs": [2.0]}
    assert (out["wall_s"]["pairs"], out["wall_s"]["change_won"]) == (1, 1)
    assert bench_ab.summarize({"base": [], "change": []}, DECLARED) == {}
