"""Command-line entry point.

Subcommands: simulate (quantum trial runs plus the diagnostic battery),
toy (classical collider constructions), rps (rock-paper-scissors selection
demo), geometry (interval classification and boosted orderings), and
teleport (the controlled-collider channel demo).

Option values resolve as: explicit flag, then config-file entry, then the
SWAPSIM_SEED environment variable (seed only), then the built-in default.
A config-file key that names no option of the subcommand is a usage error,
and so is a seed outside [0, 2**64).
Exit codes: 0 success, 2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis, engine, geometry, io, toys

BUILTIN_DEFAULTS = {
    "geometry": "spacelike",
    "trials": 10000,
    "seed": 0,
    "angles_a": engine.DEFAULT_ANGLES_A,
    "angles_b": engine.DEFAULT_ANGLES_B,
    "herald": "psi-minus",
    "variant": "collider",
    "controlled": True,
}


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


# Namespace entries that are not options a config file may set.
_NOT_CONFIGURABLE = {"command", "func", "config"}


class _Resolver:
    """Flag > config file > environment > builtin default."""

    def __init__(self, args: argparse.Namespace, parser: argparse.ArgumentParser):
        self.args = args
        self.parser = parser
        self.file_cfg: dict[str, str] = {}
        if getattr(args, "config", None):
            try:
                self.file_cfg = load_config_file(args.config)
            except ValueError as exc:
                parser.error(str(exc))
            known = {name.replace("_", "-") for name in vars(args)} - _NOT_CONFIGURABLE
            for key in self.file_cfg:
                if key not in known:
                    parser.error(
                        f"unknown config-file key {key!r} for {args.command}; "
                        f"expected one of {sorted(known)}"
                    )

    def get(self, attr: str, cast, default):
        flag_val = getattr(self.args, attr, None)
        if flag_val is not None:
            return flag_val
        file_key = attr.replace("_", "-")
        if file_key in self.file_cfg:
            try:
                return cast(self.file_cfg[file_key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                self.parser.error(f"config file value for {file_key!r}: {exc}")
        return default

    def seed(self) -> int:
        value = self.get("seed", int, None)
        if value is None:
            env = os.environ.get("SWAPSIM_SEED")
            if not env:
                return BUILTIN_DEFAULTS["seed"]
            try:
                value = int(env)
            except ValueError:
                self.parser.error(f"SWAPSIM_SEED must be an integer, got {env!r}")
        try:
            return engine.check_seed(value)
        except ValueError as exc:
            self.parser.error(str(exc))


def _positive_trials(res: _Resolver) -> int:
    trials = res.get("trials", int, BUILTIN_DEFAULTS["trials"])
    if trials < 1:
        res.parser.error(f"--trials must be >= 1, got {trials}")
    return trials


def _experiment_config(res: _Resolver) -> engine.ExperimentConfig:
    try:
        return engine.ExperimentConfig(
            geometry=res.get("geometry", str, BUILTIN_DEFAULTS["geometry"]),
            n_trials=res.get("trials", int, BUILTIN_DEFAULTS["trials"]),
            seed=res.seed(),
            angles_a=res.get("angles_a", _parse_angles, BUILTIN_DEFAULTS["angles_a"]),
            angles_b=res.get("angles_b", _parse_angles, BUILTIN_DEFAULTS["angles_b"]),
            herald=res.get("herald", str, BUILTIN_DEFAULTS["herald"]),
            c_enabled=not res.get("disable_c", _parse_bool, False),
            bsm_partial=res.get("partial_bsm", _parse_bool, False),
        )
    except ValueError as exc:
        res.parser.error(str(exc))


def _correlator_cells(table: analysis.CorrelatorTable) -> list[dict]:
    return [
        {"a": a, "b": b, "E": table.values[(a, b)], "count": table.counts[(a, b)]}
        for (a, b) in analysis.SETTING_PAIRS
    ]


def _chsh_or_none(table: analysis.CorrelatorTable) -> dict | None:
    try:
        return analysis.chsh(table).as_json()
    except ValueError:
        return None


def _exact_section(config: engine.ExperimentConfig) -> dict:
    """Exact diagnostics; entries undefined for the config are None: the
    heralded correlators and CHSH when the herald has zero probability, and
    fragility when the central measurement is disabled. They read two exact
    tables, the config's and the one with C flipped, and the config's
    herald selection."""
    rows, kept = engine._exact_rows(config, config.c_enabled)
    flipped, _kept = engine._exact_rows(config, not config.c_enabled)
    section: dict = {"correlators": None, "chsh": None}
    try:
        exact_table = analysis._heralded_correlators(rows, kept)
    except ValueError:  # conditioning on a zero-probability herald
        pass
    else:
        section["correlators"] = _correlator_cells(exact_table)
        section["chsh"] = analysis.chsh(exact_table).as_json()
    section["nda"] = analysis._no_difference(rows, flipped).as_json()
    section["fragility"] = (
        analysis._fragility(rows, kept).as_json() if config.c_enabled else None
    )
    return section


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    res = _Resolver(args, parser)
    config = _experiment_config(res)
    exact = res.get("exact", _parse_bool, False)
    out = res.get("out", str, None)
    if out is None:
        parser.error("simulate requires --out")

    ensemble = engine.run_trials(config)
    event_ready = engine.post_select(ensemble)
    meta = engine.config_meta(config)
    meta.update({"command": "simulate", "exact": exact, "out": out})

    ec_correlators = analysis.correlators(event_ready)
    report: dict = {
        "meta": meta,
        "heralded": {
            "count": len(event_ready),
            "fraction": len(event_ready) / len(ensemble),
        },
        "correlators": _correlator_cells(ec_correlators),
        "chsh": _chsh_or_none(ec_correlators),
        "ci_tests": [
            t.as_json()
            for t in (
                analysis.no_signaling_tests(ensemble)
                + analysis.local_causality_tests(event_ready, post_selected=True)
            )
        ],
    }
    if exact:
        report["exact"] = _exact_section(config)

    io.write_ensemble_csv(f"{out}.csv", ensemble)
    io.write_json(f"{out}.json", io.ensemble_json_payload(ensemble, meta))
    io.write_json(f"{out}.report.json", report)
    print(f"wrote {out}.csv, {out}.json, {out}.report.json")
    return 0


def cmd_toy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    res = _Resolver(args, parser)
    variant = res.get("variant", str, BUILTIN_DEFAULTS["variant"])
    if variant not in ("collider", "source"):
        parser.error(f"--variant must be collider or source, got {variant!r}")
    trials = _positive_trials(res)
    seed = res.seed()
    out = res.get("out", str, None)
    if out is None:
        parser.error("toy requires --out")

    runner = toys.run_toy_collider if variant == "collider" else toys.run_toy_source_variant
    rule = toys.singlet_weight_rule()
    data = runner(trials, seed, rule)
    kept = toys.accepted(data)

    meta = {
        "command": "toy",
        "variant": variant,
        "trials": trials,
        "seed": seed,
        "rule": rule.name,
        "out": out,
    }
    acc_corr = analysis.correlators(kept)
    ci_tests = analysis.local_causality_tests(
        kept, post_selected=True, include_lambda=(variant == "source")
    ) + analysis.local_causality_tests(data, post_selected=False)
    if variant == "source":
        ci_tests.append(analysis.statistical_independence_test(kept, post_selected=True))
        ci_tests.append(analysis.statistical_independence_test(data, post_selected=False))
    report = {
        "meta": meta,
        "accepted": {"count": len(kept), "fraction": len(kept) / len(data)},
        "marginals": {
            "P(A=+1)": int((data["A"] == 1).sum()) / len(data),
            "P(B=+1)": int((data["B"] == 1).sum()) / len(data),
        },
        "correlators": _correlator_cells(acc_corr),
        "chsh": _chsh_or_none(acc_corr),
        "ci_tests": [t.as_json() for t in ci_tests],
    }

    io.write_toy_csv(f"{out}.csv", data)
    io.write_json(f"{out}.report.json", report)
    print(f"wrote {out}.csv, {out}.report.json")
    return 0


def cmd_rps(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    res = _Resolver(args, parser)
    trials = _positive_trials(res)
    seed = res.seed()
    out = res.get("out", str, None)
    if out is None:
        parser.error("rps requires --out")

    data = toys.run_rps(trials, seed)
    tests = [
        analysis.test_conditional_independence(
            data, "alice", (), ("bob",), hypothesis="rps-unconditional"
        )
    ]
    for code, verdict in enumerate(toys.RPS_VERDICTS):
        tests.append(
            analysis.test_conditional_independence(
                data.select(data["verdict"] == code), "alice", (), ("bob",),
                hypothesis=f"rps-given-{verdict.value}",
            )
        )
    report = {
        "meta": {"command": "rps", "trials": trials, "seed": seed, "out": out},
        "ci_tests": [t.as_json() for t in tests],
    }
    io.write_rps_csv(f"{out}.csv", data)
    io.write_json(f"{out}.report.json", report)
    print(f"wrote {out}.csv, {out}.report.json")
    return 0


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
        coords[label] = (float(t_str), float(x_str))
    return geometry.custom_preset(coords)


def cmd_geometry(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.coords:
        try:
            preset = _parse_coords(args.coords)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        try:
            preset = geometry.preset_by_name(args.preset or BUILTIN_DEFAULTS["geometry"])
        except ValueError as exc:
            parser.error(str(exc))

    boosts = [0.0]
    if args.boost is not None:
        fields = args.boost.split(",")
        if not all(v.strip() for v in fields):
            parser.error(f"bad --boost value {args.boost!r}: empty field")
        try:
            extra = [float(v) for v in fields]
        except ValueError:
            parser.error(f"bad --boost value {args.boost!r}")
        for v in extra:
            if not abs(v) < 1.0:
                parser.error(f"boost velocity must satisfy |v| < 1, got {v}")
        boosts += [v for v in extra if v != 0.0]

    print(f"preset: {preset.name}")
    print(f"classification: {geometry.classify_geometry(preset).value}")
    print("pair relations (second event relative to first):")
    labels = list(geometry.EventLabel)
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            rel = geometry.classify(preset.event(first), preset.event(second))
            print(f"  {first.value} -> {second.value}: {rel.value}")
    for v in boosts:
        order = geometry.boosted_time_order(preset, v)
        times = ", ".join(
            f"{label.value}={geometry.boosted_time(preset.event(label), v):.6g}"
            for label in order
        )
        print(f"order at v={v:g}: {' < '.join(label.value for label in order)}  ({times})")
    return 0


def cmd_teleport(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    res = _Resolver(args, parser)
    controlled = res.get("controlled", _parse_bool, BUILTIN_DEFAULTS["controlled"])
    trials = _positive_trials(res)
    seed = res.seed()
    out = res.get("out", str, None)

    report_obj = analysis.teleport_channel_demo(controlled, trials, seed)
    payload = {
        "meta": {
            "command": "teleport",
            "controlled": controlled,
            "trials": trials,
            "seed": seed,
        },
        "teleport": report_obj.as_json(),
        "n_kept": report_obj.n_kept,
        "channel": [
            {"input": x, "output": y, "p": report_obj.channel[(x, y)]}
            for x in (0, 1)
            for y in (0, 1)
        ],
    }
    if out:
        io.write_json(f"{out}.report.json", payload)
        print(f"wrote {out}.report.json")
    else:
        sys.stdout.write(io.dumps_canonical(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Entanglement-swapping Bell test simulator and causal diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, angles: bool = False) -> None:
        p.add_argument("--trials", type=int, default=None, help="number of trials")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output path prefix")
        if angles:
            p.add_argument("--angles-a", type=_parse_angles, default=None, dest="angles_a")
            p.add_argument("--angles-b", type=_parse_angles, default=None, dest="angles_b")

    p_sim = sub.add_parser("simulate", help="run the entanglement-swapping experiment")
    add_common(p_sim, angles=True)
    p_sim.add_argument("--geometry", choices=engine.GEOMETRY_NAMES, default=None)
    p_sim.add_argument("--herald", choices=sorted(engine.HERALD_PREDICATES), default=None)
    p_sim.add_argument(
        "--exact", action="store_true", default=None, help="add exact-mode diagnostics"
    )
    p_sim.add_argument(
        "--disable-c", type=_parse_bool, default=None, dest="disable_c",
        help="true to skip the central measurement",
    )
    p_sim.add_argument(
        "--partial-bsm", type=_parse_bool, default=None, dest="partial_bsm",
        help="true for a photonic-style partial Bell-state analyzer",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_toy = sub.add_parser("toy", help="run a classical collider toy model")
    add_common(p_toy)
    p_toy.add_argument("--variant", choices=("collider", "source"), default=None)
    p_toy.set_defaults(func=cmd_toy)

    p_rps = sub.add_parser("rps", help="run the rock-paper-scissors demo")
    add_common(p_rps)
    p_rps.set_defaults(func=cmd_rps)

    p_geo = sub.add_parser("geometry", help="classify a layout and print boosted orders")
    p_geo.add_argument("--preset", choices=engine.GEOMETRY_NAMES, default=None)
    p_geo.add_argument(
        "--coords", default=None,
        help="custom layout, e.g. 'A=1,-1;B=1,1;C=1,0;SourceLeft=0,-1;SourceRight=0,1'",
    )
    p_geo.add_argument("--boost", default=None, help="comma-separated frame velocities")
    p_geo.set_defaults(func=cmd_geometry)

    p_tel = sub.add_parser("teleport", help="teleportation channel demo")
    add_common(p_tel)
    p_tel.add_argument("--controlled", type=_parse_bool, default=None)
    p_tel.set_defaults(func=cmd_teleport)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except OSError as exc:
        print(f"swapsim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
