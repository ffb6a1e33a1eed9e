"""Self-test of the benchmark (about a minute):

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload at its tiny size (the preset at full size),
untraced and traced, and checks that a corrupted result file is caught.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import DEFAULT_SEED, TINY

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _report(workload, trace: bool, capsys) -> tuple[bool, list[str], dict]:
    correct = run.report(workload, DEFAULT_SEED, 0, trace, SPEC)
    lines = capsys.readouterr().out.splitlines()
    return correct, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    w = TINY[name]
    correct, lines, result = _report(w, trace, capsys)
    assert correct, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[1]: line.split()[-1]
               for line in lines if line.startswith(f"{w.key} ")}
    for m in declared:
        assert printed[m["name"]] == m["unit"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert f"{w.key} error_rate 0.0 fraction" in lines


def test_flipped_byte_in_a_result_file_is_an_error(monkeypatch, capsys):
    w = TINY["ts_paper"]
    real_run_child = run.run_child

    def corrupting(mode, cli_args, workdir):
        record = real_run_child(mode, cli_args, workdir)
        if mode == "plain":
            path = Path(cli_args[cli_args.index("--out") + 1]) / "slots.csv"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        return record

    monkeypatch.setattr(run, "run_child", corrupting)
    correct, lines, result = _report(w, False, capsys)
    assert not correct
    assert result["attempted"] == result["failed"] == 1
    assert f"{w.key} error_rate 1.0 fraction" in lines
