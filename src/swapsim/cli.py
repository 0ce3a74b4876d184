"""Command-line entry point.

Subcommands: simulate (quantum trial runs plus the diagnostic battery),
toy (classical collider constructions), rps (rock-paper-scissors selection
demo), geometry (interval classification and boosted orderings), and
teleport (the controlled-collider channel demo).

``OPTIONS`` declares each option once (text parser, default, choices, help)
and ``COMMANDS`` each subcommand's options; every flag is built from them.
Option values resolve as: explicit flag, then config-file entry (through the
flag's parser and choices), then the SWAPSIM_SEED environment variable (seed
only), then the built-in default. A config-file key that names no option of
the subcommand is a usage error, and so are a seed outside [0, 2**64), a
trial count below 1 and a missing or empty --out for simulate, toy and rps.
Exit codes: 0 success, 2 usage error, 3 I/O failure (an output that cannot be
written, or a --config file that is missing or cannot be read).

``main`` parses with one parser per process, built with all five subcommands
on first use. A ``geometry`` order line is labelled with its velocity as
text that reads back as that float; where its boosted times overflow, the
events' order keys t/2 - v*x/2 are printed in their place.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import analysis, engine, geometry, io, toys


def _parse_angles(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated angles, got {text!r}"
        )
    return (float(parts[0]), float(parts[1]))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


class Option(NamedTuple):
    """One option: the parser of its flag's and its config-file entry's text,
    its built-in default, its choices and its help line."""

    parse: Callable[[str], object]
    default: object = None
    choices: tuple | None = None
    help: str | None = None


OPTIONS = {
    "trials": Option(int, 10000, help="number of trials"),
    "seed": Option(int, 0, help="master RNG seed"),
    "config": Option(str, help="flat key = value config file"),
    # An empty prefix reads as no --out at all.
    "out": Option(lambda text: text or None, help="output path prefix"),
    "angles-a": Option(_parse_angles, engine.DEFAULT_ANGLES_A),
    "angles-b": Option(_parse_angles, engine.DEFAULT_ANGLES_B),
    "geometry": Option(str, "spacelike", engine.GEOMETRY_NAMES),
    "herald": Option(str, "psi-minus", tuple(sorted(engine.HERALD_PREDICATES))),
    # A bare flag on the command line; a config file gives it as text.
    "exact": Option(_parse_bool, False, help="add exact-mode diagnostics"),
    "disable-c": Option(_parse_bool, False, help="true to skip the central measurement"),
    "partial-bsm": Option(
        _parse_bool, False, help="true for a photonic-style partial Bell-state analyzer"
    ),
    "variant": Option(str, "collider", ("collider", "source")),
    "controlled": Option(_parse_bool, True),
    "preset": Option(str, "spacelike", engine.GEOMETRY_NAMES),
    "coords": Option(
        str, help="custom layout, e.g. 'A=1,-1;B=1,1;C=1,0;SourceLeft=0,-1;SourceRight=0,1'"
    ),
    "boost": Option(str, help="comma-separated frame velocities"),
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored. A key
    set twice is an error, not a silent override."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"config-file key {key!r} is set more than once")
        values[key] = val.strip()
    return values


def resolve_options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill each option the flags left unset, in the order the module
    docstring gives, then check the seed, the trial count and --out."""
    names = COMMANDS[args.command][2]
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_cfg = load_config_file(args.config)
        except ValueError as exc:
            parser.error(str(exc))
        known = sorted(set(names) - {"config"})
        for key in file_cfg:
            if key not in known:
                parser.error(
                    f"unknown config-file key {key!r} for {args.command}; "
                    f"expected one of {known}"
                )
    for name in names:
        option = OPTIONS[name]
        attr = name.replace("-", "_")
        value = getattr(args, attr)
        if value is None and name in file_cfg:
            try:
                value = option.parse(file_cfg[name])
                if option.choices is not None and value not in option.choices:
                    choices = ", ".join(map(repr, option.choices))
                    raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                parser.error(f"config file value for {name!r}: {exc}")
        env = os.environ.get("SWAPSIM_SEED") if name == "seed" else None
        if value is None and env:
            try:
                value = int(env)
            except ValueError:
                parser.error(f"SWAPSIM_SEED must be an integer, got {env!r}")
        setattr(args, attr, option.default if value is None else value)
    if "seed" in names:
        try:
            args.trials = engine.check_trials(args.trials)
            args.seed = engine.check_seed(args.seed)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command in ("simulate", "toy", "rps") and args.out is None:
        parser.error(f"{args.command} requires --out")


def _selection(name: str, kept: analysis.CountTable, total: int) -> dict:
    """A selection's report entries: its count and fraction of ``total``
    under ``name``, its correlators, and their CHSH (None if a pair is empty)."""
    table = analysis.correlators(kept)
    try:
        chsh = analysis.chsh(table).as_json()
    except ValueError:
        chsh = None
    return {
        name: {"count": len(kept), "fraction": len(kept) / total},
        "correlators": table.as_json(),
        "chsh": chsh,
    }


def _tally(data: engine.Trials, header: list[str]) -> tuple[io.RowCode, analysis.CountTable]:
    """A run's one row code under a writer's header, and its count table."""
    rows = io.row_code(data, header)
    return rows, analysis.count_table(data, rows.names, rows.code)


def _write(out: str, files: list[tuple]) -> int:
    """Write each (suffix, writer, *arguments) of ``files`` to ``out`` +
    suffix, in order, then name the files written."""
    for suffix, write, *arguments in files:
        write(f"{out}{suffix}", *arguments)
    print("wrote " + ", ".join(f"{out}{suffix}" for suffix, *_ in files))
    return 0


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        config = engine.ExperimentConfig(
            geometry=args.geometry,
            n_trials=args.trials,
            seed=args.seed,
            angles_a=args.angles_a,
            angles_b=args.angles_b,
            herald=args.herald,
            c_enabled=not args.disable_c,
            bsm_partial=args.partial_bsm,
        )
    except ValueError as exc:
        parser.error(str(exc))

    ensemble = engine.run_trials(config)
    rows, table = _tally(ensemble, io.ENSEMBLE_HEADER)
    event_ready = engine.post_select(table)
    meta = engine.config_meta(config)
    meta.update({"command": "simulate", "exact": args.exact, "out": args.out})
    ci_tests = analysis.no_signaling_tests(table) + analysis.local_causality_tests(
        event_ready, post_selected=True
    )
    report = {
        "meta": meta,
        **_selection("heralded", event_ready, len(table)),
        "ci_tests": [t.as_json() for t in ci_tests],
    }
    if args.exact:
        report["exact"] = analysis.exact_report(config)
    return _write(args.out, [
        (".csv", io.write_ensemble_csv, ensemble, rows),
        (".json", io.write_json, io.ensemble_json_payload(ensemble, meta, rows)),
        (".report.json", io.write_json, report),
    ])


def cmd_toy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    runner = toys.run_toy_collider if args.variant == "collider" else toys.run_toy_source_variant
    rule = toys.singlet_weight_rule()
    data = runner(args.trials, args.seed, rule)
    rows, table = _tally(data, io.TOY_HEADER)
    kept = toys.accepted(table)

    meta = {
        "command": "toy",
        "variant": args.variant,
        "trials": args.trials,
        "seed": args.seed,
        "rule": rule.name,
        "out": args.out,
    }
    ci_tests = analysis.local_causality_tests(
        kept, post_selected=True, include_lambda=(args.variant == "source")
    ) + analysis.local_causality_tests(table, post_selected=False)
    if args.variant == "source":
        ci_tests.append(analysis.statistical_independence_test(kept, post_selected=True))
        ci_tests.append(analysis.statistical_independence_test(table, post_selected=False))
    report = {
        "meta": meta,
        **_selection("accepted", kept, len(table)),
        "marginals": {
            f"P({name}=+1)": int(table.count[table[name] == 1].sum()) / len(table)
            for name in ("A", "B")
        },
        "ci_tests": [t.as_json() for t in ci_tests],
    }
    return _write(args.out, [
        (".csv", io.write_toy_csv, data, rows),
        (".report.json", io.write_json, report),
    ])


def cmd_rps(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    data = toys.run_rps(args.trials, args.seed)
    rows, table = _tally(data, io.RPS_HEADER)
    tests = [
        analysis.test_conditional_independence(
            table, "alice", (), ("bob",), hypothesis="rps-unconditional"
        )
    ]
    for code, verdict in enumerate(toys.RPS_VERDICTS):
        tests.append(
            analysis.test_conditional_independence(
                table.select(table["verdict"] == code), "alice", (), ("bob",),
                hypothesis=f"rps-given-{verdict.value}",
            )
        )
    report = {
        "meta": {"command": "rps", "trials": args.trials, "seed": args.seed, "out": args.out},
        "ci_tests": [t.as_json() for t in tests],
    }
    return _write(args.out, [
        (".csv", io.write_rps_csv, data, rows),
        (".report.json", io.write_json, report),
    ])


def _parse_coords(text: str) -> geometry.GeometryPreset:
    by_value = {label.value: label for label in geometry.EventLabel}
    coords = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, pair = chunk.partition("=")
        label = by_value.get(name.strip())
        if label is None:
            raise ValueError(f"unknown event label {name.strip()!r}")
        if label in coords:
            raise ValueError(f"event label {label.value!r} is given more than once")
        t_str, _, x_str = pair.partition(",")
        try:
            coords[label] = (float(t_str), float(x_str))
        except ValueError as exc:
            raise ValueError(f"bad --coords entry {chunk!r}: {exc}") from None
    return geometry.custom_preset(coords)


def cmd_geometry(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        preset = geometry.preset_by_name(args.preset)
        if args.coords:
            preset = _parse_coords(args.coords)
            geometry.validate_preset(preset)
    except ValueError as exc:
        parser.error(str(exc))

    fields = [] if args.boost is None else args.boost.split(",")
    if not all(v.strip() for v in fields):
        parser.error(f"bad --boost value {args.boost!r}: empty field")
    # geometry.boosted_time_order checks |v| < 1; all orders come before any output.
    try:
        boosts = [0.0] + [v for v in map(float, fields) if v != 0.0]
        orders = [(v, geometry.boosted_time_order(preset, v)) for v in boosts]
    except ValueError as exc:
        parser.error(f"bad --boost value {args.boost!r}: {exc}")

    print(f"preset: {preset.name}")
    print(f"classification: {geometry.classify_geometry(preset).value}")
    print("pair relations (second event relative to first):")
    labels = list(geometry.EventLabel)
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            rel = geometry.classify(preset.event(first), preset.event(second))
            print(f"  {first.value} -> {second.value}: {rel.value}")
    for v, order in orders:
        events = [preset.event(label) for label in order]
        times = [geometry.boosted_time(event, v) for event in events]
        shown = ""
        if not all(map(math.isfinite, times)):
            # A boosted time overflowed; the order keys cannot.
            times = [event.t / 2 - v * event.x / 2 for event in events]
            shown = "keys t/2 - v*x/2: "
        shown += ", ".join(f"{label.value}={t:.6g}" for label, t in zip(order, times))
        # {v:g} keeps six digits; where it does not read back as v, repr does.
        speed = f"{v:g}" if float(f"{v:g}") == v else repr(v)
        print(f"order at v={speed}: {' < '.join(label.value for label in order)}  ({shown})")
    return 0


def cmd_teleport(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report_obj = analysis.teleport_channel_demo(args.controlled, args.trials, args.seed)
    payload = {
        "meta": {
            "command": "teleport",
            "controlled": args.controlled,
            "trials": args.trials,
            "seed": args.seed,
        },
        "teleport": report_obj.as_json(),
        "n_kept": report_obj.n_kept,
        "channel": [
            {"input": x, "output": y, "p": report_obj.channel[(x, y)]}
            for x in (0, 1)
            for y in (0, 1)
        ],
    }
    if args.out is not None:
        return _write(args.out, [(".report.json", io.write_json, payload)])
    sys.stdout.write(io.dumps_canonical(payload))
    return 0


_COMMON = ("trials", "seed", "config", "out")

# Each subcommand's help line, function and options, in help order.
COMMANDS = {
    "simulate": ("run the entanglement-swapping experiment", cmd_simulate, _COMMON + (
        "angles-a", "angles-b", "geometry", "herald", "exact", "disable-c", "partial-bsm")),
    "toy": ("run a classical collider toy model", cmd_toy, _COMMON + ("variant",)),
    "rps": ("run the rock-paper-scissors demo", cmd_rps, _COMMON),
    "geometry": ("classify a layout and print boosted orders", cmd_geometry,
                 ("preset", "coords", "boost")),
    "teleport": ("teleportation channel demo", cmd_teleport, _COMMON + ("controlled",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Entanglement-swapping Bell test simulator and causal diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help_line, func, names) in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_line)
        for name in names:
            option = OPTIONS[name]
            if name == "exact":
                p.add_argument("--exact", action="store_true", default=None, help=option.help)
            else:
                p.add_argument(
                    f"--{name}", type=option.parse, choices=option.choices, help=option.help
                )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_options(args, parser)
        return args.func(args, parser)
    except OSError as exc:
        print(f"swapsim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
