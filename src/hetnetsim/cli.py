"""Command-line front end.

    hetnetsim run --scenario F [--set k=v]... [--out DIR] [--trace-users] [--trace-picos]
    hetnetsim sweep --scenario F [--param policy.t_activate] --from A --to B [--step S]
                    [--set k=v]... [--out DIR]
    hetnetsim preset NAME [--out DIR] [--seed N]   /   preset --list
    hetnetsim dump-topology --scenario F [--set k=v]... [--out FILE]

Exit codes: 0 success, 1 configuration/validation problem (a layout that
cannot be built included), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path

from .config import (
    ConfigError,
    apply_overrides,
    parse_scenario,
    read_scenario_document,
    set_path,
)
from .engine import (
    TraceSinks,
    build_geometry,
    run_scenario,
    staged,
    write_file,
    write_histogram_csv,
    write_pico_trace_csv,
    write_slot_csv,
    write_user_trace_csv,
    write_users_csv,
)
from .presets import DEFAULT_SEED, PRESETS, run_preset, run_sweeps
from .topology import TopologyError


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the validation code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _document_from_args(args) -> dict:
    """The scenario file of args with its --set overrides applied."""
    return apply_overrides(read_scenario_document(args.scenario), args.set or [])


def _cmd_run(args) -> int:
    """Run one scenario and write its files, the requested traces as the
    run goes, into --out through engine.staged."""
    scenario = parse_scenario(_document_from_args(args))
    with staged(args.out) as part:
        trace = TraceSinks(
            users=(partial(write_user_trace_csv, part("user_trace.csv"))
                   if args.trace_users else None),
            picos=(partial(write_pico_trace_csv, part("pico_trace.csv"))
                   if args.trace_picos else None))
        result = run_scenario(scenario, True, trace)
        write_slot_csv(result, part("slots.csv"))
        write_users_csv(result, part("users.csv"))
        write_histogram_csv(result, part("histogram.csv"))
        write_file(part("topology.json"), [result.topology.to_json() + "\n"])
    print(
        f"ee_mean={result.ee_mean!r} capacity_mean={result.capacity_mean!r} "
        f"power_mean={result.power_mean!r}"
    )
    print(f"wrote {Path(args.out)}")
    return 0


# the most points a sweep runs: each is a document and a result in memory
MAX_SWEEP_POINTS = 10_000


def _decimals(x: float) -> int:
    """Decimal places of repr(x): 2 for 0.25, 12 for 1e-12, -16 for 1e+16."""
    mantissa, _, exponent = repr(x).partition("e")
    return len(mantissa.partition(".")[2]) - int(exponent or 0)


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    """The points start + i * step up to stop, rounded to the finer decimal
    precision of start and step (0.3, not 0.30000000000000004)."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("--from, --to and --step must be finite")
    if step <= 0:
        raise ConfigError("--step must be positive")
    if stop < start:
        raise ConfigError("--to must be >= --from")
    # a float's spacing grows with its size: a step lost to rounding at
    # either end would give the same point over and over
    if start + step == start or stop + step == stop:
        raise ConfigError(f"--step {step!r} is too small to advance from --from or --to")
    # a point within a billionth of a step past --to still counts; the
    # span may overflow to inf, which fails the comparison
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(f"--step {step!r} gives more than {MAX_SWEEP_POINTS} points")
    digits = max(_decimals(start), _decimals(step))
    return [round(start + i * step, digits) for i in range(math.floor(steps) + 1)]


def _cmd_sweep(args) -> int:
    base = _document_from_args(args)
    values = _sweep_values(args.sweep_from, args.sweep_to, args.step)
    # each point's number is set as a number, not parsed back from text;
    # integral points go in as ints, so integer fields can be swept too;
    # a float field reads 3 as 3.0, and sweep.csv still writes the floats
    with staged(args.out) as part:
        run_sweeps(part, {"sweep.csv": [
            (v, set_path(base, args.param, int(v) if v.is_integer() else v)) for v in values]})
    print(f"wrote {Path(args.out) / 'sweep.csv'} ({len(values)} points)")
    return 0


def _cmd_preset(args) -> int:
    if args.list or args.name is None:
        if args.name is None and not args.list:
            print("available presets:", file=sys.stderr)
        for name in sorted(PRESETS):
            print(f"{name}: {PRESETS[name][0]}")
        return 0 if args.list else 1
    manifest = run_preset(args.name, args.out, args.seed)
    print(f"wrote {manifest}")
    return 0


def _cmd_dump_topology(args) -> int:
    scenario = parse_scenario(_document_from_args(args))
    doc = build_geometry(scenario).to_json()
    if args.out == "-":
        print(doc)
    else:
        out = Path(args.out)
        with staged(out.parent) as part:
            write_file(part(out.name), [doc + "\n"])
        print(f"wrote {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="hetnetsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, traces=False, out="out", out_help="output directory"):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a scenario key (repeatable)",
        )
        p.add_argument("--out", default=out, help=out_help)
        if traces:
            p.add_argument("--trace-users", action="store_true")
            p.add_argument("--trace-picos", action="store_true")

    p_run = sub.add_parser("run", help="run one scenario")
    add_common(p_run, traces=True)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--param", default="policy.t_activate", help="dotted config path to sweep"
    )
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--step", type=float, default=1.0)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="run a canned experiment family")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list presets")
    p_preset.add_argument("--out", default="out", help="output directory")
    p_preset.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_preset.set_defaults(fn=_cmd_preset)

    p_dump = sub.add_parser("dump-topology", help="emit the layout as JSON")
    add_common(p_dump, out="-", out_help="output file, - for stdout")
    p_dump.set_defaults(fn=_cmd_dump_topology)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TopologyError as exc:
        print(f"error: layout: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        # an exception without a message, as MemoryError() has, is named
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
