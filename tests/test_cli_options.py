"""The CLI's option table: the flags it builds, how each option resolves,
the empty --out rule, and the one parser each process parses with."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swapsim import cli

COMMON = {"-h", "--help", "--trials", "--seed", "--config", "--out"}
OPTION_STRINGS = {
    "simulate": COMMON | {"--angles-a", "--angles-b", "--geometry", "--herald", "--exact",
                          "--disable-c", "--partial-bsm"},
    "toy": COMMON | {"--variant"},
    "rps": COMMON,
    "geometry": {"-h", "--help", "--preset", "--coords", "--boost"},
    "teleport": COMMON | {"--controlled"},
}

DEFAULTS = {"trials": 10000, "seed": 0, "config": None}
RESOLVED_DEFAULTS = {
    "simulate": {**DEFAULTS, "out": "o", "angles_a": (0.0, math.pi / 2.0),
                 "angles_b": (5.0 * math.pi / 4.0, 3.0 * math.pi / 4.0),
                 "geometry": "spacelike", "herald": "psi-minus", "exact": False,
                 "disable_c": False, "partial_bsm": False},
    "toy": {**DEFAULTS, "out": "o", "variant": "collider"},
    "rps": {**DEFAULTS, "out": "o"},
    "geometry": {"preset": "spacelike", "coords": None, "boost": None},
    "teleport": {**DEFAULTS, "out": None, "controlled": True},
}

# Each config key: its subcommand, the text of a value, the value it reads
# as, and the text of another value.
CONFIG_KEYS = [
    ("simulate", "trials", "7", 7, "9"),
    ("simulate", "seed", "5", 5, "6"),
    ("simulate", "out", "run", "run", "other"),
    ("simulate", "angles-a", "0.5,1.5", (0.5, 1.5), "0,0"),
    ("simulate", "angles-b", "1,-2", (1.0, -2.0), "0,0"),
    ("simulate", "geometry", "early", "early", "delayed"),
    ("simulate", "herald", "any-psi", "any-psi", "phi-plus"),
    ("simulate", "exact", "true", True, "false"),
    ("simulate", "disable-c", "true", True, "false"),
    ("simulate", "partial-bsm", "yes", True, "no"),
    ("toy", "variant", "source", "source", "collider"),
    ("teleport", "controlled", "false", False, "true"),
]


def resolved(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    cli.resolve_options(args, parser)
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


def subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_accepts_its_option_strings():
    commands = subparsers(cli.build_parser())
    assert set(commands) == set(OPTION_STRINGS)
    for name, sub in commands.items():
        assert {s for a in sub._actions for s in a.option_strings} == OPTION_STRINGS[name]


@pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
def test_no_flags_resolve_to_builtin_defaults(monkeypatch, command):
    monkeypatch.delenv("SWAPSIM_SEED", raising=False)
    out = ["--out", "o"] if command in ("simulate", "toy", "rps") else []
    assert resolved([command, *out]) == RESOLVED_DEFAULTS[command]


def flag(key, text):
    if key == "exact":
        return ["--exact"] if text == "true" else []
    return [f"--{key}", text]


@pytest.mark.parametrize("command,key,text,value,other", CONFIG_KEYS,
                         ids=[key for _, key, *_ in CONFIG_KEYS])
def test_config_key_reads_as_its_flag_and_the_flag_wins(
        tmp_path, monkeypatch, command, key, text, value, other):
    monkeypatch.delenv("SWAPSIM_SEED", raising=False)
    attr = key.replace("-", "_")
    base = [command] + ([] if key == "out" or command == "teleport" else ["--out", "o"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert resolved(base + flag(key, text))[attr] == value
    assert resolved(base + ["--config", str(cfg)])[attr] == value
    cfg.write_text(f"{key} = {other}\n")
    assert resolved(base + ["--config", str(cfg)])[attr] != value
    assert resolved(base + ["--config", str(cfg)] + flag(key, text))[attr] == value


def test_config_keys_cover_every_configurable_option():
    keys = {key for _, key, *_ in CONFIG_KEYS}
    assert len(keys) == 12
    assert keys == {name for _, _, names in cli.COMMANDS.values()
                    if "config" in names for name in names} - {"config"}


@pytest.mark.parametrize("command,key", [
    ("simulate", "geometry"), ("simulate", "herald"), ("toy", "variant"),
])
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = nowhere\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"config file value for {key!r}" in err and "'nowhere'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("argv", [[], *([c] for c in sorted(OPTION_STRINGS))])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: swapsim", *argv]))


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", ["simulate", "toy", "rps", "teleport"])
def test_empty_out_counts_as_none(tmp_path, monkeypatch, capsys, command, by_config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out =\n")
    argv = [command, "--trials", "20", "--seed", "1"]
    argv += ["--config", "run.cfg"] if by_config else ["--out", ""]
    if command == "teleport":
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["command"] == "teleport"
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"{command} requires --out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_empty_out_flag_leaves_the_config_out(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out = run\n")
    assert resolved(["rps", "--config", str(cfg), "--out", ""])["out"] == "run"


@pytest.mark.parametrize("boost", ["1.5", "0.5,-1", "nan", "0.2,inf"])
def test_geometry_boost_outside_light_cone_prints_nothing(capsys, boost):
    with pytest.raises(SystemExit) as exc:
        cli.main(["geometry", "--preset", "early", "--boost", boost])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--boost value {boost!r}" in captured.err and "|v| must be < 1" in captured.err


def outcome(capsys, call):
    """Exit code, stdout and stderr of ``call()``."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_build(argv):
    parser = cli.build_parser()
    cli.resolve_options(parser.parse_args(argv), parser)


# Every argv ends in --help or a usage error before any output is written.
PINNED_ARGVS = [
    *([c, "--help"] for c in cli.COMMANDS),
    ["simulate", "--geometry", "nowhere", "--out", "o"],
    ["toy", "--trials", "x", "--out", "o"],
    ["toy", "--trials", "0", "--out", "o"],
    ["rps", "--seed", "-1", "--out", "o"],
    ["simulate", "--config", "bogus.cfg", "--out", "o"],
    ["simulate", "--trials", "10"],
    [],
    ["bogus"],
    ["-h"],
    ["-h", "simulate"],
]


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_main_prints_what_the_full_parser_prints(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SWAPSIM_SEED", raising=False)
    (tmp_path / "bogus.cfg").write_text("bogus = 1\n")
    expected = outcome(capsys, lambda: full_build(list(argv)))
    assert expected[0] in (0, 2)
    assert outcome(capsys, lambda: cli.main(list(argv))) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bogus.cfg"]


@pytest.mark.parametrize("argv,message", [
    ([], "error: the following arguments are required: command\n"),
    (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from "),
])
def test_no_known_command_names_the_positional(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["swapsim", "geometry", "--preset", "early"])
    assert cli.main() == 0
    assert "classification: ED" in capsys.readouterr().out


# One process's calls: a usage error, help, a config file, SWAPSIM_SEED,
# teleport to stdout and geometry; each (argv, SWAPSIM_SEED or None).
SEQUENCE = [
    (["simulate", "--geometry", "nowhere", "--out", "o"], None),
    (["toy", "--help"], None),
    (["simulate", "--config", "run.cfg", "--out", "sim"], None),
    (["rps", "--trials", "300", "--out", "rps"], "7"),
    (["teleport", "--trials", "300", "--seed", "2"], None),
    (["geometry", "--preset", "early"], None),
]


def _fresh_run(argv, seed_env, cwd):
    """Exit code, stdout and stderr of ``python -m swapsim.cli argv`` in cwd."""
    env = {k: v for k, v in os.environ.items() if k != "SWAPSIM_SEED"}
    env.update(COLUMNS="80", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if seed_env is not None:
        env["SWAPSIM_SEED"] = seed_env
    done = subprocess.run([sys.executable, "-m", "swapsim.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_one_process_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # Each call in one process prints and writes what a fresh interpreter
    # does, and the sequence builds the parser once.
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for directory in (here, fresh):
        directory.mkdir()
        (directory / "run.cfg").write_text("trials = 200\nseed = 3\ngeometry = early\n")
    monkeypatch.chdir(here)
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    codes = []
    cli.build_parser.cache_clear()
    for argv, seed_env in SEQUENCE:
        if seed_env is None:
            monkeypatch.delenv("SWAPSIM_SEED", raising=False)
        else:
            monkeypatch.setenv("SWAPSIM_SEED", seed_env)
        got = outcome(capsys, lambda: cli.main(list(argv)))
        assert got == _fresh_run(argv, seed_env, fresh), argv
        codes.append(got[0])
        assert _files(here) == _files(fresh), argv
    assert codes == [2, 0, 0, 0, 0, 0]
    assert built == ["swapsim"] + [f"swapsim {name}" for name in cli.COMMANDS]
    assert sorted(_files(here)) == sorted(
        ["run.cfg", "sim.csv", "sim.json", "sim.report.json", "rps.csv", "rps.report.json"])

