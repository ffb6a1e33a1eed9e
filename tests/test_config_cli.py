"""Scenario documents and the command-line surface."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim import cli, engine, presets
from hetnetsim.cli import main
from hetnetsim.config import (
    BOUNDS,
    MAX_SLOTS,
    PICO_POWER,
    ConfigError,
    LayoutConfig,
    PowerConfig,
    Scenario,
    ThresholdPolicy,
    UsersConfig,
    ValidationError,
    WorkSchedule,
    apply_overrides,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)
from hetnetsim.engine import run_scenario
from hetnetsim.presets import PRESETS

README = Path(__file__).resolve().parents[1] / "README.md"


def dotted_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from dotted_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


SCENARIO_PATHS = sorted(dotted_paths(scenario_to_dict(Scenario())))
SECTIONS = ["layout", "users", "work", "policy", "channel", "power",
            "power.macro", "power.pico"]
UNKNOWN_PATHS = ["legacy", "legacy.enabled", "nosuch", "users.totl",
                 "power.hub.sectors", "layout.n_picos.deeper",
                 "power.macro.p_sleep_w"]
# YAML texts: scalars, lists, mappings, null, booleans, non-finite floats,
# negatives, and numbers past 64 bits and past the float range
FUZZ_VALUES = ["0", "1", "3", "28", "-1", "-2.5", "0.5", "12.5", "udc", "coe",
               "monet", "abc", "''", "null", "true", "false", "[]", "[1, 2]",
               "[0, 42, 83]", "[.nan]", "{}", "{total: 5}", ".nan", ".inf",
               "-.inf", "1.0e+300", "-1.0e+300", str(2**63 - 1), str(2**63),
               str(-2**63 - 1), "1" + "0" * 400]


SCHEMA_PATHS = set(SCENARIO_PATHS) | set(SECTIONS)
KEYS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=6) | st.dates(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS | st.integers(), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    """(doc, touched): scenario_to_dict(Scenario()) after one to five
    mutations, each of which drops a key or list item, replaces its value
    with ANY_VALUE, or adds an unknown key to a mapping; touched lists the
    dotted paths of the replaced and added keys."""
    doc = scenario_to_dict(Scenario())
    touched = []
    for _ in range(draw(st.integers(1, 5))):
        # (container, key, dotted path) of every key and list item
        slots, stack = [], [(doc, "")]
        while stack:
            node, prefix = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                path = (f"{prefix}[{key}]" if isinstance(node, list)
                        else f"{prefix}.{key}" if prefix else str(key))
                slots.append((node, key, path))
                if isinstance(value, (dict, list)):
                    stack.append((value, path))
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "add" or not slots:
            mappings = [(doc, "")] + [(node[key], path) for node, key, path in slots
                                      if isinstance(node[key], dict)]
            node, prefix = draw(st.sampled_from(mappings))
            key = draw(KEYS | st.integers())
            node[key] = draw(ANY_VALUE)
            touched.append(f"{prefix}.{key}" if prefix else str(key))
            continue
        node, key, path = draw(st.sampled_from(slots))
        if op == "drop":
            del node[key]
        else:
            node[key] = draw(ANY_VALUE)
            touched.append(path)
    return doc, touched


def fuzzed_overrides(paths):
    """Lists of one to four `--set` assignments of FUZZ_VALUES to paths."""
    return st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(FUZZ_VALUES)),
                    min_size=1, max_size=4)


class TestParsing:
    def test_minimal_document_gets_all_defaults(self):
        s = parse_scenario({"topology": "udc"})
        assert s.users.total == 1000
        assert s.layout.n_picos == 28
        assert s.channel.bandwidth_hz == 20e6
        assert s.power.pico.p_sleep_w == 8.6
        assert s.power.macro.p_max_w == 40.0
        assert (s.policy.t_activate, s.policy.t_deactivate) == (9.0, 4.0)
        assert s.slots == 1 and s.realizations == 1

    def test_yaml_text_is_accepted(self):
        s = parse_scenario("topology: coe\nslots: 5\nusers: {hotspot: 10}\n")
        assert (s.topology, s.slots, s.users.hotspot) == ("coe", 5, 10)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="topolgy"):
            parse_scenario({"topolgy": "udc"})

    def test_unknown_nested_key_reports_the_path(self):
        with pytest.raises(ValidationError, match="users.totla"):
            parse_scenario({"topology": "udc", "users": {"totla": 5}})

    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(ValidationError, match="users.total"):
            parse_scenario({"topology": "udc", "users": {"total": "1000"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValidationError):
            parse_scenario({"topology": "udc", "slots": True})

    def test_unknown_topology(self):
        with pytest.raises(ValidationError, match="topology"):
            parse_scenario({"topology": "hexgrid"})

    def test_null_deactivate_gives_a_single_threshold_policy(self):
        s = parse_scenario({"topology": "udc",
                            "policy": {"t_activate": 7, "t_deactivate": None}})
        assert s.policy.t_deactivate is None
        assert s.policy.t_activate == 7.0

    def test_partial_policy_keeps_the_default_gap(self):
        s = parse_scenario({"topology": "udc", "policy": {"t_activate": 12}})
        assert (s.policy.t_activate, s.policy.t_deactivate) == (12.0, 4.0)

    def test_crossed_thresholds_rejected_with_path(self):
        with pytest.raises(ValidationError, match="policy"):
            parse_scenario({"topology": "udc",
                            "policy": {"t_activate": 4, "t_deactivate": 4}})

    def test_infinite_threshold_parses(self):
        s = parse_scenario("topology: udc\npolicy: {t_activate: .inf}\n")
        assert math.isinf(s.policy.t_activate)

    def test_legacy_section_is_unknown(self):
        with pytest.raises(ValidationError, match="^legacy: unknown key"):
            parse_scenario({"topology": "udc", "legacy": {"enabled": True}})

    def test_macro_sleep_power_is_unknown(self, tmp_path, capsys):
        """The macro never sleeps, so it has no sleep draw to set."""
        with pytest.raises(ValidationError,
                           match=r"^power\.macro\.p_sleep_w: unknown key$"):
            parse_scenario({"topology": "udc", "power": {"macro": {"p_sleep_w": 150.0}}})
        doc = tmp_path / "scenario.yaml"
        doc.write_text("topology: udc\npower: {macro: {p_sleep_w: 150.0}}\n")
        assert main(["dump-topology", "--scenario", str(doc)]) == 1
        assert capsys.readouterr().err == "error: power.macro.p_sleep_w: unknown key\n"

    def test_readme_reference_is_the_default_scenario(self):
        """The README's scenario reference parses to Scenario() and names
        every key of the schema."""
        block = re.search(r"## Scenario reference.*?```yaml\n(.*?)```",
                          README.read_text(), re.S).group(1)
        assert parse_scenario(block) == Scenario()
        documented = set(dotted_paths(yaml.safe_load(block)))
        assert documented == set(SCENARIO_PATHS)

    def test_readme_bounds_table_is_the_bounds(self):
        """The README's bounds table names every key of config.BOUNDS and
        no other."""
        table = re.search(r"\n\| key \| bounds \|.*?\n\n", README.read_text(), re.S).group(0)
        rows = table.strip().splitlines()[2:]
        documented = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert sorted(documented) == sorted(BOUNDS)

    def test_readme_preset_table_is_the_presets(self):
        """The README's preset table names every key of presets.PRESETS
        and no other."""
        table = re.search(r"\n\| name +\| what it produces \|.*?\n\n",
                          README.read_text(), re.S).group(0)
        rows = table.strip().splitlines()[2:]
        documented = [re.fullmatch(r"`([^`]+)`", row.split("|")[1].strip()).group(1)
                      for row in rows]
        assert sorted(documented) == sorted(PRESETS)

    def test_readme_output_files_name_every_file_of_a_traced_run(self, tmp_path):
        """Every file a traced run leaves in its --out is named by a bullet
        of the README's Output files section."""
        section = re.search(r"\n## Output files\n(.*?)\n## ", README.read_text(), re.S).group(1)
        documented = set(re.findall(r"^\* `([^`]+)`", section, re.M))
        doc = tmp_path / "dyn.yaml"
        doc.write_text("topology: coe\nslots: 3\nusers: {total: 40, hotspot: 10}\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(doc), "--out", str(out), *TRACE_FLAGS]) == 0
        left = {p.name for p in out.iterdir()}
        assert "user_trace.csv" in left and left <= documented, left - documented


class TestCrossFieldValidation:
    def test_hotspot_cannot_exceed_population(self):
        with pytest.raises(ValidationError, match="hotspot"):
            parse_scenario({"topology": "udc", "users": {"total": 10, "hotspot": 11}})

    def test_hotspot_needs_picos(self):
        with pytest.raises(ValidationError):
            parse_scenario({"topology": "monet", "users": {"hotspot": 5}})

    def test_timeseries_of_several_realizations_parses_and_runs(self):
        """slots > 1 with realizations > 1 is R time series of S slots: a
        slot column entry for each of the R x S realization-slots."""
        s = parse_scenario({"topology": "udc", "slots": 10, "realizations": 2,
                            "users": {"total": 50, "hotspot": 20}})
        result = run_scenario(s, per_user=True)
        assert result.slot_metrics.power_w.shape == (20,)
        assert result.mean_rate_bps.shape == (50,)

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            parse_scenario({"topology": "udc", "users": {"activity_uniform": 1.5}})

    def test_speed_ordering(self):
        with pytest.raises(ValidationError):
            parse_scenario({"topology": "udc",
                            "users": {"speed_min": 25.0, "speed_max": 20.0}})

    @pytest.mark.parametrize("doc, path", [
        ({"layout": {"macro_radius_m": 0.0}}, "layout.macro_radius_m"),
        ({"layout": {"pico_radius_m": -1.0}}, "layout.pico_radius_m"),
        ({"channel": {"macro_shadow_sigma_db": -0.5}}, "channel.macro_shadow_sigma_db"),
        ({"channel": {"pico_shadow_sigma_db": -0.5}}, "channel.pico_shadow_sigma_db"),
        ({"power": {"macro": {"p0_w": -1.0}}}, "power.macro.p0_w"),
        ({"power": {"pico": {"p0_w": -1.0}}}, "power.pico.p0_w"),
        ({"power": {"pico": {"p_sleep_w": -1.0}}}, "power.pico.p_sleep_w"),
        ({"power": {"macro": {"delta_p": -10.0}}}, "power.macro.delta_p"),
        ({"power": {"pico": {"delta_p": -1.0}}}, "power.pico.delta_p"),
    ])
    def test_range_checks_name_the_key(self, doc, path):
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: must be "):
            parse_scenario({"topology": "udc", **doc})


class TestRoundTrip:
    CASES = [
        {"topology": "udc"},
        {"topology": "coe", "slots": 50, "seed": 17, "users": {"hotspot": 123}},
        {"topology": "monet_udc_users", "users": {"hotspot": 400},
         "policy": {"t_activate": 5, "t_deactivate": None},
         "power": {"pico": {"p_sleep_w": 0.0}}},
    ]

    @pytest.mark.parametrize("doc", CASES)
    def test_parse_serialize_parse_is_identity(self, doc):
        s1 = parse_scenario(doc)
        s2 = parse_scenario(serialize_scenario(s1))
        assert s1 == s2
        assert isinstance(s2, Scenario)

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_any_mutated_document_parses_or_names_a_key(self, mutated):
        """The default document with keys dropped, values replaced by any
        scalar, list or mapping, and unknown keys added either parses or
        raises a ConfigError that starts with a dotted path: a key of the
        schema, a list item, or a path at or under a replaced or added key."""
        doc, touched = mutated
        try:
            s = parse_scenario(doc)
        except ConfigError as exc:
            path, sep, _ = str(exc).partition(": ")
            assert sep, str(exc)
            assert (path in SCHEMA_PATHS or re.fullmatch(r"work\.start_slots\[\d+\]", path)
                    or any(path == t or path.startswith((f"{t}.", f"{t}["))
                           for t in touched)), str(exc)
        else:
            assert isinstance(s, Scenario)

    @settings(max_examples=1000, deadline=None)
    @given(fuzzed_overrides(SCENARIO_PATHS))
    def test_every_accepted_override_set_round_trips(self, assignments):
        doc = apply_overrides({"topology": "udc"},
                              [f"{key}={value}" for key, value in assignments])
        try:
            s = parse_scenario(doc)
        except ValidationError:
            return
        assert parse_scenario(serialize_scenario(s)) == s


class TestOverrides:
    def test_dotted_paths_descend(self):
        data = apply_overrides({"topology": "udc"}, [
            "policy.t_activate=12", "users.hotspot=500",
            "power.pico.p_sleep_w=0",
        ])
        s = parse_scenario(data)
        assert s.policy.t_activate == 12.0
        assert s.users.hotspot == 500
        assert s.power.pico.p_sleep_w == 0.0

    def test_values_are_yaml_typed(self):
        data = apply_overrides({"topology": "udc"},
                               ["policy.t_deactivate=null", "seed=3"])
        s = parse_scenario(data)
        assert s.policy.t_deactivate is None
        assert s.seed == 3

    def test_base_document_is_not_mutated(self):
        base = {"topology": "udc", "users": {"total": 100}}
        apply_overrides(base, ["users.total=5"])
        assert base["users"]["total"] == 100

    def test_missing_equals_sign(self):
        with pytest.raises(ValidationError):
            apply_overrides({}, ["policy.t_activate"])

    def test_typo_is_caught_at_parse_time(self):
        data = apply_overrides({"topology": "udc"}, ["polcy.t_activate=3"])
        with pytest.raises(ValidationError, match="polcy"):
            parse_scenario(data)

    def test_bad_keys_and_values_name_the_override(self):
        with pytest.raises(ValidationError,
                           match=r"^'users\.\.total': dotted key has an empty part$"):
            apply_overrides({}, ["users..total=1"])
        with pytest.raises(ValidationError, match=r"^users\.total: bad override value"):
            apply_overrides({}, ["users.total=[unclosed"])


# --------------------------------------------------------------------------
# command-line entry point (in-process; exit codes are the contract)

SNAPSHOT_DOC = """\
topology: udc
slots: 1
realizations: 4
users: {total: 300, activity_uniform: 1.0}
power:
  pico: {p_sleep_w: 0.0}
"""


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(SNAPSHOT_DOC)
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_the_artifact_set(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario_file), "--out", str(out),
               "--set", "policy.t_activate=13"])
    assert rc == 0
    rows = read_csv(out / "slots.csv")
    assert rows[0] == ["slot", "n_active_picos", "macro_active_users",
                       "pico_active_users", "capacity_bps", "power_w",
                       "ee_bits_per_joule"]
    assert len(rows) == 1 + 4  # one row per realization
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    users = read_csv(out / "users.csv")
    assert users[0][:2] == ["user_id", "kind"]
    assert len(users) == 1 + 300
    hist = read_csv(out / "histogram.csv")
    assert len(hist) == 1 + 100
    assert hist[1][:2] == ["0.0", "10000.0"]
    topo = json.loads((out / "topology.json").read_text())
    assert topo["kind"] == "udc" and len(topo["picos"]) == 28
    stdout = capsys.readouterr().out
    assert "ee_mean=" in stdout
    assert float(rows[1][4]) > 0  # capacity column is parseable and nonzero
    assert not list(out.glob("*.part"))  # renamed into place


def test_run_traces(scenario_file, tmp_path):
    out = tmp_path / "traced"
    doc = tmp_path / "dyn.yaml"
    doc.write_text("topology: coe\nslots: 3\nusers: {total: 40, hotspot: 10}\n")
    rc = main(["run", "--scenario", str(doc), "--out", str(out),
               "--trace-users", "--trace-picos"])
    assert rc == 0
    ut = read_csv(out / "user_trace.csv")
    assert ut[0] == ["slot", "user_id", "x", "y", "active", "serving_cell"]
    assert len(ut) == 1 + 3 * 40
    pt = read_csv(out / "pico_trace.csv")
    assert pt[0] == ["slot", "pico_id", "mode"]
    assert len(pt) == 1 + 3 * 28
    assert {r[2] for r in pt[1:]} <= {"sleep", "boot", "active"}
    assert not list(out.glob("*.part"))  # renamed into place


TRACE_FLAGS = ["--trace-users", "--trace-picos"]


@pytest.mark.parametrize("sets, code", [
    (["users.total=0"], 1),
    (["layout.n_picos=200", "layout.max_place_attempts=5"], 1),
])
def test_a_traced_run_opens_its_files_after_the_layout(tmp_path, sets, code):
    """A traced run that fails validation or its layout creates no output
    directory: the trace files open only once the layout is built."""
    doc = tmp_path / "dyn.yaml"
    doc.write_text("topology: udc\nslots: 3\nusers: {total: 40}\n")
    out = tmp_path / "out"
    args = ["run", "--scenario", str(doc), "--out", str(out), *TRACE_FLAGS]
    for item in sets:
        args += ["--set", item]
    assert main(args) == code
    assert not out.exists()


@pytest.mark.parametrize("fail_at", [0, 3])
@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_traced_run_leaves_no_trace_file(tmp_path, monkeypatch, capsys,
                                                  fail_at, existing):
    """A run whose mobility step raises at slot k, after its trace side
    files were opened and slots 0 .. k - 1 written (in blocks of one slot
    of its 40 users), exits 2 and removes both side files, then the
    directories it made for them; a directory that was there before
    stays, with what else it holds."""
    doc = tmp_path / "dyn.yaml"
    doc.write_text("topology: coe\nslots: 6\nusers: {total: 40, hotspot: 10}\n")
    out = tmp_path / "made" / "traced"
    if existing:
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
    step = engine.step_population

    def failing_step(pop, slot, *args):
        if slot == fail_at:
            assert (out / "user_trace.csv.part").exists() == (slot > 0)
            assert not (out / "user_trace.csv").exists()
            raise RuntimeError(f"failed at slot {slot}")
        step(pop, slot, *args)

    monkeypatch.setattr(engine, "step_population", failing_step)
    monkeypatch.setattr(engine, "TRACE_BLOCK_ROW_USERS", 40)
    assert main(["run", "--scenario", str(doc), "--out", str(out), *TRACE_FLAGS]) == 2
    assert capsys.readouterr().err == f"runtime error: failed at slot {fail_at}\n"
    if existing:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("failure", ["layout", "slot 3", "users.csv"])
def test_a_failed_traced_run_leaves_earlier_files_as_found(tmp_path, monkeypatch,
                                                           capsys, failure):
    """In an --out that holds an earlier traced run's files, a traced run
    that fails its layout exits 1 and leaves them byte for byte; so does
    one that fails at slot 3, after writing slots 0 .. 2 of its traces to
    their side files (in blocks of one slot of its 40 users), and one at
    another seed that fails writing users.csv, after its traces and
    slots.csv are written: both exit 2 and leave no side file."""
    doc = tmp_path / "dyn.yaml"
    doc.write_text("topology: udc\nslots: 6\nusers: {total: 40, hotspot: 10}\n")
    out = tmp_path / "out"
    args = ["run", "--scenario", str(doc), "--out", str(out), *TRACE_FLAGS]
    assert main(args) == 0

    def files():
        return {p.name: p.read_bytes() for p in out.iterdir()}

    earlier = files()
    assert len(earlier) == 6
    if failure == "layout":
        assert main([*args, "--set", "layout.n_picos=60",
                     "--set", "layout.max_place_attempts=5"]) == 1
        assert capsys.readouterr().err.startswith("error: layout: ")
        assert files() == earlier
        return
    message = f"failed at {failure}"
    if failure == "users.csv":
        def failing_write(result, path):
            raise OSError(message)

        monkeypatch.setattr(cli, "write_users_csv", failing_write)
        args += ["--set", "seed=2"]
    else:
        step = engine.step_population

        def failing_step(pop, slot, *args):
            if slot == 3:
                assert len((out / "user_trace.csv.part").read_text().splitlines()) == 1 + 3 * 40
                raise RuntimeError(message)
            step(pop, slot, *args)

        monkeypatch.setattr(engine, "step_population", failing_step)
        monkeypatch.setattr(engine, "TRACE_BLOCK_ROW_USERS", 40)
    assert main(args) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert files() == earlier
    assert not list(out.glob("*.part"))


@pytest.mark.parametrize("fail", [False, True])
def test_a_run_touches_only_the_side_files_of_its_own_traces(tmp_path, monkeypatch, fail):
    """With --trace-users alone, a stale pico_trace.csv.part in --out is
    neither renamed nor removed, whether the run succeeds (and renames its
    own side file into place) or fails at slot 3."""
    doc = tmp_path / "dyn.yaml"
    doc.write_text("topology: udc\nslots: 6\nusers: {total: 40, hotspot: 10}\n")
    out = tmp_path / "out"
    out.mkdir()
    stale = out / "pico_trace.csv.part"
    stale.write_text("stale\n")
    step = engine.step_population

    def failing_step(pop, slot, *args):
        if slot == 3:
            raise RuntimeError("failed at slot 3")
        step(pop, slot, *args)

    if fail:
        monkeypatch.setattr(engine, "step_population", failing_step)
    code = main(["run", "--scenario", str(doc), "--out", str(out), "--trace-users"])
    assert code == (2 if fail else 0)
    assert stale.read_text() == "stale\n"
    assert not (out / "pico_trace.csv").exists()
    assert not (out / "user_trace.csv.part").exists()
    assert (out / "user_trace.csv").exists() != fail


# a time-series preset on a shrunken grid: two layouts x two sleep powers
# of 4 slots, with pico views
TINY_TIMESERIES = (
    "4-slot traces", functools.partial(presets._timeseries, pico_views=True),
    {"topologies": ["udc", "monet_udc_users"], "p_sleep_w": [0.0, 8.6], "hotspot": 20,
     "slots": 4, "policy": {"t_activate": 5}})


@pytest.mark.parametrize("case, writer, fail_at", [
    ("sleep_power_sweep", "write_sweep_csv", 3),
    ("tiny_timeseries", "write_users_csv", 2),
    ("sweep", "write_sweep_csv", 1),
])
def test_a_failed_preset_or_sweep_leaves_earlier_files_as_found(
        scenario_file, tmp_path, monkeypatch, capsys, case, writer, fail_at):
    """In an --out that holds a seed-1 run's files, the same command at
    seed 2 whose writer raises OSError exits 2 and leaves every file byte
    for byte, with no side file: sleep_power_sweep failing at its third
    sweep CSV, a time-series preset whose second users.csv is written in
    full before its writer raises, and a sweep whose sweep.csv is.  Into
    a fresh nested --out, the failure leaves no directory behind.  The
    seed-1 manifest lists every file beside it."""
    monkeypatch.setitem(presets.PRESETS, "tiny_timeseries", TINY_TIMESERIES)

    def args(seed, out):
        if case == "sweep":
            return ["sweep", "--scenario", str(scenario_file), "--set", f"seed={seed}",
                    "--set", "policy.t_deactivate=null", "--from", "0", "--to", "2",
                    "--out", str(out)]
        return ["preset", case, "--seed", str(seed), "--out", str(out)]

    out = tmp_path / "out"
    assert main(args(1, out)) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    if case != "sweep":
        manifest = json.loads(earlier["manifest.json"])
        assert manifest["seed"] == 1
        assert manifest["files"] == sorted(set(earlier) - {"manifest.json"})
    write = getattr(presets, writer)
    calls = []

    def failing_write(*args):
        calls.append(args)
        if len(calls) < fail_at or case != "sleep_power_sweep":
            write(*args)
        if len(calls) == fail_at:
            raise OSError(f"failed at call {fail_at}")

    monkeypatch.setattr(presets, writer, failing_write)
    for target in (out, tmp_path / "new" / "out"):
        calls.clear()
        assert main(args(2, target)) == 2
        assert capsys.readouterr().err == f"runtime error: failed at call {fail_at}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    assert not list(out.glob("*.part"))
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("exc, message", [(MemoryError(), "MemoryError"),
                                          (RuntimeError(""), "RuntimeError"),
                                          (OSError("disk full"), "disk full")])
def test_a_runtime_error_without_a_message_is_named(tmp_path, monkeypatch, capsys, exc,
                                                    message):
    """A run that fails with an exception that has no message exits 2 and
    names the exception's type; a message, when there is one, is printed
    as it is."""
    doc = tmp_path / "s.yaml"
    doc.write_text("topology: udc\nusers: {total: 20}\n")

    def failing_run(*args):
        raise exc

    monkeypatch.setattr(cli, "run_scenario", failing_run)
    assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"


def test_run_without_power_writes_zero_efficiency(tmp_path, capsys):
    """No draw at all (a macro with no fixed part and no users, picos that
    sleep for free) is a valid run: EE is 0 b/J, not an error."""
    doc = tmp_path / "unpowered.yaml"
    doc.write_text(
        "topology: udc\nslots: 4\n"
        "users: {total: 50, activity_uniform: 0.0, activity_hotspot: 0.0}\n"
        "power: {macro: {p0_w: 0}, pico: {p_sleep_w: 0}}\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(doc), "--out", str(out)]) == 0
    rows = read_csv(out / "slots.csv")[1:]
    assert len(rows) == 4
    assert {(r[5], r[6]) for r in rows} == {("0.0", "0.0")}
    assert "ee_mean=0.0 " in capsys.readouterr().out


def test_validation_failures_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: udc\nusers: {unknown_knob: 3}\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml")]) == 1


def test_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    doc = tmp_path / "latin.yaml"
    doc.write_bytes(b"topology: udc\nusers: {\xff: 1}\n")
    assert main(["run", "--scenario", str(doc)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario file {doc}: ")


def test_malformed_yaml_exits_1(tmp_path):
    doc = tmp_path / "mangled.yaml"
    doc.write_text("topology: [unclosed\n")
    assert main(["run", "--scenario", str(doc)]) == 1


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # --scenario is required
    capsys.readouterr()


def test_sweep_emits_one_row_per_value(scenario_file, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", str(scenario_file),
               "--from", "0", "--to", "2", "--out", str(out),
               "--set", "policy.t_deactivate=null"])
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["threshold", "topology", "ee_mean", "ee_std",
                       "capacity_mean", "power_mean"]
    assert [r[0] for r in rows[1:]] == ["0.0", "1.0", "2.0"]
    assert all(r[1] == "udc" for r in rows[1:])


def test_sweep_rejects_bad_ranges(scenario_file, tmp_path, capsys):
    assert main(["sweep", "--scenario", str(scenario_file),
                 "--from", "5", "--to", "1", "--out", str(tmp_path / "x")]) == 1
    assert main(["sweep", "--scenario", str(scenario_file),
                 "--from", "nan", "--to", "1", "--out", str(tmp_path / "x")]) == 1
    # above 2**53 a step of 1 is lost to rounding, so the range never ends;
    # past MAX_SWEEP_POINTS a range would build more documents than fit
    for args in (["--param", "seed", "--from", "9007199254740992", "--to", "9007199254740994"],
                 ["--param", "seed", "--from", "0", "--to", "1e17"],
                 ["--param", "seed", "--from", "0", "--to", "1e15"],
                 ["--from", "0", "--to", "1", "--step", "1e-9"]):
        t0 = time.perf_counter()
        assert main(["sweep", "--scenario", str(scenario_file), *args,
                     "--out", str(tmp_path / "x")]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "--step" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_preset_list_and_unknown_name(tmp_path, capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out
    assert "threshold_sweep" in out and "capacity_table" in out
    assert main(["preset", "no_such_family", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_grid_survives_json(name):
    """A preset's driver reads every scenario document and file name off
    its grid, and manifest.json records that grid: JSON holds it exactly
    (no tuple, no non-string key, no NaN), so the manifest is what ran."""
    grid = PRESETS[name][2]
    assert json.loads(json.dumps(grid)) == grid


def test_capacity_table_is_the_threshold_sweep_at_its_thresholds(tmp_path, capsys):
    """The paper's capacity table is threshold_sweep's rows at T = 0, 8
    and 13, line for line and in the same order; each manifest records
    its preset's grid."""
    for name in ("capacity_table", "threshold_sweep"):
        assert main(["preset", name, "--seed", "1", "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["grid"] == PRESETS[name][2]
        assert manifest["files"] == sorted(p.name for p in (tmp_path / name).iterdir()
                                           if p.name != "manifest.json")
    table = (tmp_path / "capacity_table" / "sweep.csv").read_text().splitlines()
    sweep = (tmp_path / "threshold_sweep" / "sweep.csv").read_text().splitlines()
    assert len(table) == 1 + 3 * 3
    assert table == sweep[:1] + [line for line in sweep[1:]
                                 if line.split(",")[0] in ("0", "8", "13")]


@pytest.mark.parametrize("args", [
    ["run", "--set", "seed=-1"],
    ["sweep", "--set", "seed=-1", "--from", "0", "--to", "1"],
    ["preset", "capacity_table", "--seed", "-1"],
    ["preset", "capacity_table", "--seed", "18446744073709551616"],
    ["dump-topology", "--set", "seed=-1"],
], ids=["run", "sweep", "preset-negative", "preset-2**64", "dump-topology"])
def test_rejected_values_leave_no_output(scenario_file, tmp_path, capsys, args):
    """A command given a value it rejects exits 1 and makes neither its
    --out path nor a missing parent of it."""
    if args[0] != "preset":
        args = [*args, "--scenario", str(scenario_file)]
    assert main([*args, "--out", str(tmp_path / "new" / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("key", ["", ".seed", "policy..t_activate", "policy."])
@pytest.mark.parametrize("flag", ["--set", "--param"])
def test_a_key_with_an_empty_part_is_named(scenario_file, tmp_path, capsys, flag, key):
    """--set and --param share set_path's check of a dotted key: a key
    with an empty part exits 1 with one line that quotes the key, and
    writes nothing."""
    out = tmp_path / "new" / "out"
    assert main(["sweep", "--scenario", str(scenario_file), flag,
                 f"{key}=1" if flag == "--set" else key,
                 "--from", "0", "--to", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key!r}: dotted key has an empty part\n"
    assert not (tmp_path / "new").exists()


def test_slots_times_realizations_is_bounded(scenario_file, tmp_path, capsys):
    """slots x realizations past MAX_SLOTS, each within its own bound,
    exits 1 with the path realizations, before the engine would ask for
    10^12 entries of every slot column, and makes no output directory."""
    out = tmp_path / "new" / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--set", f"slots={MAX_SLOTS}", "--set", f"realizations={MAX_SLOTS}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: realizations: slots x realizations must be at most ")
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_dump_topology_makes_the_parent_of_its_file(scenario_file, tmp_path, capsys):
    out = tmp_path / "a" / "b.json"
    assert main(["dump-topology", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "udc"
    assert [p.name for p in out.parent.iterdir()] == ["b.json"]  # renamed into place


def test_dump_topology_to_stdout(scenario_file, capsys):
    assert main(["dump-topology", "--scenario", str(scenario_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "udc"
    assert doc["macro"] == {"x": 500.0, "y": 500.0, "r": 500.0}


def test_dump_topology_donor_layouts_share_geometry(tmp_path, capsys):
    a = tmp_path / "a.yaml"
    a.write_text("topology: udc\n")
    b = tmp_path / "b.yaml"
    b.write_text("topology: monet_udc_users\n")
    main(["dump-topology", "--scenario", str(a)])
    doc_a = capsys.readouterr().out
    main(["dump-topology", "--scenario", str(b)])
    doc_b = capsys.readouterr().out
    assert json.loads(doc_a)["picos"] == json.loads(doc_b)["picos"]


@pytest.mark.parametrize("command", ["run", "sweep", "dump-topology"])
@pytest.mark.parametrize("layout, sets, reason", [
    ("coe", ["layout.n_picos=40"], "do not fit on the ring"),
    ("udc", ["layout.n_picos=200", "layout.max_place_attempts=5"],
     "cover more area than the macro disc"),
    ("udc", ["layout.n_picos=90", "layout.max_place_attempts=5"],
     "after 5 attempts"),
])
def test_layouts_that_cannot_be_built_exit_1(tmp_path, capsys, command, layout,
                                             sets, reason):
    doc = tmp_path / "layout.yaml"
    doc.write_text(f"topology: {layout}\nusers: {{total: 50}}\n")
    args = [command, "--scenario", str(doc), "--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--from", "9", "--to", "9"]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: layout: ") and reason in err


@pytest.mark.parametrize("doc, item", [
    ("topology: udc\n", "channel.bandwidth_hz=.inf"),
    ("topology: udc\n", "policy.t_deactivate=.nan"),
    ("topology: udc\nslots: 3\nusers: {total: 50}\n", "users.speed_max=.inf"),
])
def test_non_finite_numbers_are_rejected_with_their_path(tmp_path, capsys, doc, item):
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--set", item]) == 1
    key = item.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {key}: must be finite")


@pytest.mark.parametrize("doc, path", [
    ("topology: udc\nboot_slots: -1\n", "boot_slots"),
    ("topology: udc\nslots: 1000000000000\n", "slots"),
    ("topology: udc\nrealizations: 1000000000000\n", "realizations"),
    ("topology: udc\nusers: {total: 0}\n", "users.total"),
    ("topology: udc\nusers: {total: 1000000000000}\n", "users.total"),
    ("topology: udc\nusers: {total: 10, hotspot: 11}\n", "users.hotspot"),
    ("topology: monet\nusers: {hotspot: 5}\n", "users.hotspot"),
    ("topology: udc\nlayout: {n_picos: 0}\nusers: {hotspot: 5}\n", "users.hotspot"),
    ("topology: udc\nlayout: {n_picos: 100000}\n", "layout.n_picos"),
    ("topology: udc\nlayout: {n_picos: 4611686018427387904, pico_radius_m: 1.0e-7}\n",
     "layout.n_picos"),
    ("topology: udc\nlayout: {max_place_attempts: 1000000000000}\n",
     "layout.max_place_attempts"),
    ("topology: udc\npolicy: {t_activate: -.inf, t_deactivate: null}\n",
     "policy.t_activate"),
    ("topology: udc\npolicy: {t_activate: -1, t_deactivate: null}\n",
     "policy.t_activate"),
    # ring picos so small that their centres round onto each other
    ("topology: coe\nlayout: {pico_radius_m: 1.0e-300}\n", "layout"),
    ("topology: coe\nlayout: {pico_radius_m: 1.0e-10}\n", "layout"),
    ("topology: udc\nwork: {duration: 0}\n", "work.duration"),
    ("topology: udc\nwork: {start_slots: [0, 5], duration: 9223372036854775803}\n",
     "work.duration"),
    ("topology: udc\nwork: {start_slots: []}\n", "work.start_slots"),
    ("topology: udc\nwork: {start_slots: [-1, 5]}\n", "work.start_slots"),
    ("topology: udc\nwork: {start_slots: [5, 5]}\n", "work.start_slots"),
], ids=["boot_slots", "slots_1e12", "realizations_1e12", "zero_users", "users_1e12", "hotspot_over_total",
        "hotspot_on_monet", "hotspot_without_picos", "n_picos_1e5", "n_picos_2e62",
        "max_place_attempts_1e12",
        "t_activate_minus_inf", "t_activate_negative", "pico_radius_1e-300",
        "pico_radius_1e-10", "work_duration_0", "work_end_past_int64",
        "work_no_start_slots", "work_negative_start_slot", "work_repeated_start_slot"])
def test_rejected_documents_exit_1_with_their_path(tmp_path, capsys, doc, path):
    """Documents that validation rejects exit 1 before anything runs, and
    the message names the offending key: engine code relies on these rules
    (one user at least, a pico for every hotspot user, boot_slots >= 0),
    layouts past MAX_PICOS or MAX_PLACE_ATTEMPTS would not finish in
    reasonable time, and populations past
    MAX_USERS, or slot columns past MAX_SLOTS, would not fit in memory."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(doc)
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sections, path", [
    ({"users": UsersConfig(total=0)}, "users.total"),
    ({"users": UsersConfig(hotspot=5), "work": WorkSchedule(start_slots=())},
     "work.start_slots"),
    ({"power": PowerConfig(pico=dataclasses.replace(PICO_POWER, p_sleep_w=math.inf))},
     "power.pico.p_sleep_w"),
    ({"boot_slots": 2**70}, "boot_slots"),
    ({"users": UsersConfig(activity_uniform=True)}, "users.activity_uniform"),
    ({"work": WorkSchedule(start_slots=(0.5,))}, "work.start_slots[0]"),
    ({"layout": LayoutConfig(pico_radius_m=math.nan)}, "layout.pico_radius_m"),
    ({"policy": ThresholdPolicy(9.0, math.nan)}, "policy.t_deactivate"),
    ({"users": UsersConfig(speed_max=math.inf)}, "users.speed_max"),
])
def test_scenario_built_in_python_is_checked(sections, path):
    """A Scenario built without parse_scenario is checked as it is built,
    types, widths and finiteness included, so run_scenario never sees a
    value validation rejects."""
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: "):
        run_scenario(Scenario(topology="udc", slots=3, **sections))


# every FUZZ_VALUES text as YAML reads it, and an int past the float range
LEAF_VALUES = [yaml.safe_load(text) for text in FUZZ_VALUES] + [10**400]


def with_leaf(node, names, value):
    """node, a config dataclass, with the field at the path names set to
    value; each dataclass on the way is rebuilt, a Scenario checked."""
    first, *rest = names
    field = with_leaf(getattr(node, first), rest, value) if rest else value
    return dataclasses.replace(node, **{first: field})


def built_or_path(build):
    """What build() returns, or the path of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return exc.path


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SCENARIO_PATHS), st.sampled_from(LEAF_VALUES))
def test_python_built_and_parsed_scenarios_agree(path, value):
    """One leaf set in Python and the same leaf in a document either both
    raise ValidationError at the same path or both give equal Scenarios:
    the parser only turns a list into a tuple and an int of a float field
    into the nearest float."""
    names = path.split(".")
    doc = value
    for name in reversed(names):
        doc = {name: doc}
    python_value = tuple(value) if isinstance(value, list) else value
    built = built_or_path(lambda: with_leaf(Scenario(), names, python_value))
    parsed = built_or_path(lambda: parse_scenario(doc))
    if isinstance(built, Scenario) and isinstance(parsed, Scenario):
        if type(value) is int and isinstance(functools.reduce(getattr, names, Scenario()), float):
            built = with_leaf(Scenario(), names, float(value))
        assert parsed == built
    else:
        assert built == parsed


def test_fresh_default_sections_pass_the_check():
    """Copies of every default section, which the check cannot skip as
    the default objects, pass it: every default lies within its bounds."""
    default = Scenario()
    sections = {f.name: dataclasses.replace(getattr(default, f.name))
                for f in dataclasses.fields(Scenario)
                if dataclasses.is_dataclass(getattr(default, f.name))}
    sections["power"] = PowerConfig(dataclasses.replace(default.power.macro),
                                    dataclasses.replace(default.power.pico))
    assert not any(section is getattr(default, name) for name, section in sections.items())
    assert Scenario(**sections) == default


def test_largest_work_duration_keeps_every_wave_at_work(tmp_path):
    """The largest duration validation accepts, 2**63 - 1 minus the last
    start slot, keeps both waves of hotspot users at work through the run,
    as a duration of 10**6 slots does."""
    doc = tmp_path / "scenario.yaml"
    doc.write_text("topology: udc\nslots: 60\nusers: {total: 200, hotspot: 100}\n"
                   "work: {start_slots: [0, 5]}\n")
    slots = []
    for duration in (2**63 - 1 - 5, 10**6):
        out = tmp_path / str(duration)
        assert main(["run", "--scenario", str(doc), "--out", str(out),
                     "--set", f"work.duration={duration}"]) == 0
        slots.append((out / "slots.csv").read_bytes())
    assert slots[0] == slots[1]


EXTREME_LINK_BUDGETS = [
    # capacity and EE would be inf
    ("channel.bandwidth_hz", "1.0e-300"),
    ("channel.temperature_k", "1.0e-300"),
    ("channel.macro_tx_dbm", "1.0e+300"),
    ("channel.pico_tx_dbm", "1.0e+300"),
    ("channel.macro_antenna_gain_dbi", "1.0e+300"),
    ("channel.macro_shadow_sigma_db", "1.0e+300"),
    # capacity would be 0
    ("layout.macro_radius_m", "1.0e+300"),
    ("channel.macro_tx_dbm", "-1.0e+300"),
    ("channel.pico_tx_dbm", "-1.0e+300"),
    ("channel.min_distance_m", "1.0e+300"),
]


@pytest.mark.parametrize("key, value", EXTREME_LINK_BUDGETS)
def test_extreme_link_budget_values_exit_1_with_their_path(tmp_path, capsys, key, value):
    """Finite values far past a physical range would run and write inf or
    0 b/s; validation stops them with the key's path."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("topology: udc\nslots: 3\nusers: {total: 50}\n")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                 "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: must be in ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    *((key, bound) for key, (low, high, _) in BOUNDS.items() if key.startswith("channel.")
      for bound in (low, high)),
    ("layout.macro_radius_m", BOUNDS["layout.macro_radius_m"][1]),
])
def test_range_edges_give_finite_positive_capacity(key, value):
    """A key at either end of its range, the others at their defaults,
    still gives every slot a finite, positive capacity and EE."""
    section, name = key.split(".")
    result = run_scenario(parse_scenario(
        {"topology": "udc", "slots": 3, "users": {"total": 50}, section: {name: value}}))
    for column in (result.slot_metrics.capacity_bps, result.slot_metrics.ee_bits_per_joule):
        assert np.isfinite(column).all() and (column > 0).all()


def test_sweep_reaches_small_floats(scenario_file, tmp_path):
    """Points too small for YAML 1.1 to read back as numbers from their
    repr (1e-05 is a string there) are set as numbers."""
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--param", "power.pico.p_sleep_w", "--from", "0.00001",
                 "--to", "0.00002", "--step", "0.00001"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["1e-05", "2e-05"]
    assert rows[1][5] != rows[2][5]  # each point its own sleep power


@pytest.mark.parametrize("start, stop, step, labels", [
    ("1e-12", "3e-12", "1e-12", ["1e-12", "2e-12", "3e-12"]),
    ("0", "1", "0.1", [f"{i / 10}" for i in range(11)]),
], ids=["picowatts", "tenths"])
def test_sweep_points_follow_the_step(scenario_file, tmp_path, start, stop, step, labels):
    """Point i is --from + i * --step, up to --to, labelled at the step's
    precision however small the step: a sweep of 1e-12 steps once ran
    1,002 points with 11 distinct labels."""
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--param", "power.pico.p_sleep_w", "--from", start, "--to", stop,
                 "--step", step]) == 0
    assert [r[0] for r in read_csv(out / "sweep.csv")[1:]] == labels


@pytest.mark.parametrize("path, override, document", [
    ("seed", "seed=1" + "0" * 5000, None),
    ("seed", None, "topology: udc\nseed: 1" + "0" * 4000 + "\n"),
    ("topology", "topology=" + "x" * 5000, None),
], ids=["set-digits", "file-digits", "set-topology"])
def test_echoed_values_are_shortened(tmp_path, capsys, path, override, document):
    """An error message line keeps config.ConfigError.ECHO_CHARS characters from
    either end, however long the value it echoes, and still names its
    dotted path; each of these printed 4 to 5 KB."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(document or "topology: udc\n")
    args = ["dump-topology", "--scenario", str(scenario)]
    if override:
        args += ["--set", override]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and len(err.encode()) < 300, err


def test_integers_past_the_digit_limit_exit_1(tmp_path, capsys):
    """An integer of more than 4,300 digits, which PyYAML cannot convert
    under CPython's limit on integer strings, exits 1: in a scenario file
    as a malformed document, in a --set value with its key."""
    huge = "1" + "0" * 5000
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(f"topology: udc\nseed: {huge}\n")
    assert main(["dump-topology", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed scenario document: ")
    scenario.write_text("topology: udc\n")
    assert main(["dump-topology", "--scenario", str(scenario),
                 "--set", f"seed={huge}"]) == 1
    assert capsys.readouterr().err.startswith("error: seed: bad override value ")


def test_sweep_takes_an_integer_field(scenario_file, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--param", "users.hotspot", "--from", "0", "--to", "100",
                 "--step", "50"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["0.0", "50.0", "100.0"]
    assert len({r[2] for r in rows[1:]}) == 3  # each point its own users


# --------------------------------------------------------------------------
# fuzzed overrides: any --set ends in exit 0, or in exit 1 naming a path


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.yaml"
    path.write_text("topology: udc\n")
    return path


@settings(max_examples=200, deadline=None)
@given(fuzzed_overrides(SCENARIO_PATHS + SECTIONS + UNKNOWN_PATHS))
def test_fuzzed_overrides_exit_0_or_1_with_a_path(fuzz_base, assignments):
    args = ["dump-topology", "--scenario", str(fuzz_base)]
    for key, value in assignments:
        args += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    err = err.getvalue()
    assert rc in (0, 1), err
    assert "Traceback" not in err and "runtime error" not in err
    if rc == 1:
        assert err.startswith("error: "), err
        # a scenario path, or a dotted path on the way to or below a key
        # that was set (a typo, or a mapping value's own keys)
        path = err[len("error: "):].split(":")[0].split("[")[0]
        assert path in SCENARIO_PATHS or path in SECTIONS or any(
            f"{key}.".startswith(f"{path}.") or path.startswith(f"{key}.")
            for key, _ in assignments
        ), err
