"""CLI and artifact round-trip tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from swapsim import analysis, cli, engine, io
from swapsim.engine import (
    OUTCOMES,
    ExperimentConfig,
    Trials,
    config_meta,
    run_trials,
)
from swapsim.qcore import BellOutcome
from swapsim.toys import run_rps, run_toy_source_variant


def assert_written_as_oracle(folder: Path, ens: Trials) -> None:
    """write_ensemble_csv writes the bytes of the column writer that joins
    each line field by field."""
    io.write_ensemble_csv(folder / "ens.csv", ens)
    scalar_oracle.write_csv(folder / "oracle.csv", io.ENSEMBLE_HEADER, ens)
    assert (folder / "ens.csv").read_bytes() == (folder / "oracle.csv").read_bytes()


class TestTokens:
    def test_round_trip(self, tmp_path):
        # Every C outcome code, -1 (C off) included, is written as its token.
        codes = list(range(-1, len(OUTCOMES)))
        n = len(codes)
        ens = Trials({"trial_id": range(n), "a": [0] * n, "b": [1] * n, "A": [1] * n,
                      "B": [-1] * n, "c_outcome": codes, "heralded": [False] * n})
        assert_written_as_oracle(tmp_path, ens)

    def test_token_values(self):
        assert io.outcome_token(BellOutcome.PSI_MINUS) == "psi-"
        assert io.outcome_token(BellOutcome.NO_HERALD) == "none"
        assert io.outcome_token(None) == "absent"


class TestEnsembleCsv:
    def test_round_trip(self, tmp_path):
        assert_written_as_oracle(tmp_path, run_trials(ExperimentConfig(n_trials=200, seed=6)))

    def test_header(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=3, seed=6))
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, ens)
        first = path.read_text().splitlines()[0]
        assert first == "trial_id,a,b,A,B,c_outcome,heralded"

    def test_absent_token_when_c_disabled(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=3, seed=6, c_enabled=False))
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, ens)
        assert ",absent,false" in path.read_text()

    @pytest.mark.parametrize("name,value", [("A", 0), ("a", 2), ("c_outcome", -2)])
    def test_value_without_token_rejected(self, tmp_path, name, value):
        ens = run_trials(ExperimentConfig(n_trials=20, seed=6))
        columns = {column: ens[column].copy() for column in ens.columns}
        columns[name][7] = value
        # Rejected before a file is opened, so no partial artifact is left.
        with pytest.raises(ValueError, match=f"column {name} holds a value outside"):
            io.write_ensemble_csv(tmp_path / "ens.csv", Trials(columns))
        with pytest.raises(ValueError, match=f"column {name} holds a value outside"):
            io.ensemble_json_payload(Trials(columns), {})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name,column",
        [("A", np.array([1, 0, -1], dtype=np.int8)),  # the outcome columns' hole
         ("a", np.array([0, 1, -128], dtype=np.int8)),
         ("c_outcome", np.array([3, 5, 0], dtype=np.int8)),
         ("b", np.array([0, 1, 2**64 - 1], dtype=np.uint64)),
         ("c_outcome", np.array([0, 2**63, 1], dtype=np.uint64)),
         ("B", np.array([True, False, True])),
         ("heralded", np.array([0, 2, 1], dtype=np.int64))],
    )
    def test_column_dtypes_checked_as_written(self, tmp_path, name, column):
        # int8, uint64 and bool columns are checked in their own dtype, with
        # no value wrapped into range on the way.
        ens = {"trial_id": [0, 1, 2], "a": [0, 1, 0], "b": [1, 0, 1], "A": [1, -1, 1],
               "B": [-1, 1, 1], "c_outcome": [-1, 3, 0], "heralded": [False, True, False]}
        with pytest.raises(ValueError, match=f"column {name} holds a value outside"):
            io.write_ensemble_csv(tmp_path / "ens.csv", Trials({**ens, name: column}))
        for ok in (column[:1], column[:1].astype(np.uint64)):
            io.write_ensemble_csv(tmp_path / "ens.csv", Trials({**ens, name: np.resize(ok, 3)}))

    @pytest.mark.parametrize("first,last", [(-5, 3), (0, 10**18), (-1, 2**63 - 1)])
    def test_trial_id_the_reader_rejects_is_rejected(self, tmp_path, first, last):
        # The writers' decimal kernel writes trial_ids as integers in
        # [0, 10**18) only.
        ids = np.array([first, last])
        ens = Trials({"trial_id": ids, "a": [0, 1], "b": [1, 0], "A": [1, -1], "B": [-1, 1],
                      "c_outcome": [-1, 3], "heralded": [False, True]})
        toy = Trials({"trial_id": ids, "a": [0, 1], "b": [1, 0], "A": [1, -1], "B": [-1, 1],
                      "accepted": [True, False]})
        rps = Trials({"trial_id": ids, "alice": [0, 2], "bob": [1, 1], "verdict": [2, 0]})
        message = "trial_id holds a value outside the integers in"
        for write, table in ((io.write_ensemble_csv, ens), (io.write_toy_csv, toy),
                             (io.write_rps_csv, rps)):
            with pytest.raises(ValueError, match=message):
                write(tmp_path / "out.csv", table)
        with pytest.raises(ValueError, match=message):
            io.ensemble_json_payload(ens, {})
        assert list(tmp_path.iterdir()) == []

    def test_widest_trial_id_round_trips(self, tmp_path):
        ens = Trials({"trial_id": [0, 10**18 - 1], "a": [0, 1], "b": [1, 0], "A": [1, -1],
                      "B": [-1, 1], "c_outcome": [-1, 3], "heralded": [False, True]})
        assert_written_as_oracle(tmp_path, ens)

    def test_partial_mode_round_trip(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=60, seed=6, bsm_partial=True))
        assert_written_as_oracle(tmp_path, ens)
        assert ",none," in (tmp_path / "ens.csv").read_text()


@st.composite
def ensembles(draw):
    """Any valid ensemble table: increasing ids, settings 0/1, outcomes +1/-1,
    and every C outcome code including -1 (C off, written "absent")."""
    n = draw(st.integers(0, 40))
    gaps = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    codes = st.lists(st.integers(-1, len(OUTCOMES) - 1), min_size=n, max_size=n)
    return Trials({
        "trial_id": np.cumsum(gaps, dtype=np.int64) - 1,
        "a": np.array(draw(bits), dtype=np.int8),
        "b": np.array(draw(bits), dtype=np.int8),
        "A": np.array(draw(signs), dtype=np.int8),
        "B": np.array(draw(signs), dtype=np.int8),
        "c_outcome": np.array(draw(codes), dtype=np.int8),
        "heralded": np.array(draw(bits), dtype=bool),
    })


@settings(max_examples=60, deadline=None, database=None)
@given(ens=ensembles())
def test_ensemble_csv_round_trip_property(ens, tmp_path_factory):
    assert_written_as_oracle(tmp_path_factory.mktemp("csv"), ens)


class TestEnsembleCsvChunks:
    N = io.CHUNK_ROWS

    def table(self, n):
        rng = np.random.default_rng(n)
        return Trials({
            "trial_id": np.arange(n) * 3,
            "a": rng.integers(0, 2, n).astype(np.int8),
            "b": rng.integers(0, 2, n).astype(np.int8),
            "A": rng.choice(np.array([1, -1], dtype=np.int8), n),
            "B": rng.choice(np.array([1, -1], dtype=np.int8), n),
            "c_outcome": rng.integers(-1, len(OUTCOMES), n).astype(np.int8),
            "heralded": rng.integers(0, 2, n).astype(bool),
        })

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_round_trip_at_chunk_boundary(self, tmp_path, extra):
        assert_written_as_oracle(tmp_path, self.table(self.N + extra))

    def test_write_memory_is_bounded(self, tmp_path):
        # The 1e5-row mirror (15 MB) and CSV (2.6 MB) are streamed CHUNK_ROWS
        # rows at a time; one dict per row and the mirror dumped whole
        # peaked near 160 MB.
        ens = self.table(100_000)
        meta = config_meta(ExperimentConfig(n_trials=100_000))
        tracemalloc.start()
        try:
            io.write_json(tmp_path / "ens.json", io.ensemble_json_payload(ens, meta))
            io.write_ensemble_csv(tmp_path / "ens.csv", ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestToyCsv:
    def test_lambda_columns(self, tmp_path):
        trials = run_toy_source_variant(5, 2)
        path = tmp_path / "toy.csv"
        io.write_toy_csv(path, trials)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,a,b,A,B,lambda_A,lambda_B,accepted"
        assert len(lines) == 6

    def test_rps_csv(self, tmp_path):
        path = tmp_path / "rps.csv"
        io.write_rps_csv(path, run_rps(4, 1))
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,alice,bob,verdict"
        assert len(lines) == 5


def _without(table: Trials, *names: str) -> Trials:
    return Trials({name: column for name, column in table.columns.items() if name not in names})


class TestNonIntegralValues:
    """A float column is written as its integer value, so a value that is
    not a whole number is rejected, naming its column, before a file is
    opened: 0.7 was once written as the token of 0."""

    @pytest.mark.parametrize("bad", [[0.7, 1.2, 2.9], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf]])
    def test_rps_choice(self, tmp_path, bad):
        rps = Trials({"trial_id": [0, 1, 2], "alice": bad, "bob": [0, 1, 2], "verdict": [2, 2, 2]})
        with pytest.raises(ValueError, match="column alice holds a value that is not an integer"):
            io.write_rps_csv(tmp_path / "rps.csv", rps)
        assert list(tmp_path.iterdir()) == []

    def test_toy_setting(self, tmp_path):
        toy = run_toy_source_variant(3, 1)
        columns = {**toy.columns, "a": np.array([0.0, 0.5, 1.0])}
        with pytest.raises(ValueError, match="column a holds a value that is not an integer"):
            io.write_toy_csv(tmp_path / "toy.csv", Trials(columns))
        assert list(tmp_path.iterdir()) == []

    def test_ensemble_c_outcome(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=3, seed=6))
        columns = {**ens.columns, "c_outcome": np.array([0.0, 3.25, 1.0])}
        with pytest.raises(ValueError, match="column c_outcome holds a value that is not an"):
            io.write_ensemble_csv(tmp_path / "ens.csv", Trials(columns))
        with pytest.raises(ValueError, match="column c_outcome holds a value that is not an"):
            io.ensemble_json_payload(Trials(columns), {})
        assert list(tmp_path.iterdir()) == []

    def test_whole_floats_are_written_as_integers(self, tmp_path):
        rps = Trials({"trial_id": [0, 1, 2], "alice": [0.0, 1.0, 2.0], "bob": [2, 1, 0],
                      "verdict": [1, 2, 0]})
        io.write_rps_csv(tmp_path / "rps.csv", rps)
        assert (tmp_path / "rps.csv").read_text().splitlines()[1:] == [
            "0,rock,scissors,BobWins", "1,paper,paper,Draw", "2,scissors,rock,AliceWins"]


class TestMissingColumns:
    """Each writer rejects a table that lacks a column of its header before
    it opens its file; only the collider toy's lambda pair may be absent,
    and only as a pair."""

    def test_ensemble_csv(self, tmp_path):
        # Was written with empty c_outcome fields, which no token stands for.
        ens = _without(run_trials(ExperimentConfig(n_trials=3, seed=6)), "c_outcome")
        with pytest.raises(ValueError, match=r"table lacks column\(s\) c_outcome$"):
            io.write_ensemble_csv(tmp_path / "ens.csv", ens)
        assert list(tmp_path.iterdir()) == []

    def test_ensemble_mirror(self):
        # Raised KeyError once the payload was written.
        ens = _without(run_trials(ExperimentConfig(n_trials=3, seed=6)), "a", "heralded")
        with pytest.raises(ValueError, match=r"table lacks column\(s\) a, heralded$"):
            io.ensemble_json_payload(ens, {})

    def test_toy_csv(self, tmp_path):
        # An rps run was written as rows of empty fields.
        with pytest.raises(ValueError, match=r"column\(s\) a, b, A, B, lambda_A, lambda_B, acc"):
            io.write_toy_csv(tmp_path / "toy.csv", run_rps(3, 1))
        one_lambda = _without(run_toy_source_variant(3, 1), "lambda_B")
        with pytest.raises(ValueError, match=r"table lacks column\(s\) lambda_B$"):
            io.write_toy_csv(tmp_path / "toy.csv", one_lambda)
        assert list(tmp_path.iterdir()) == []

    def test_rps_csv(self, tmp_path):
        with pytest.raises(ValueError, match=r"table lacks column\(s\) alice, bob, verdict$"):
            io.write_rps_csv(tmp_path / "rps.csv", run_toy_source_variant(3, 1))
        assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_builds_no_writer_table():
    """Every swapsim invocation pays the CLI's import: the writers build
    their row and digit tables, the CLI its parser, and the engine its exact
    layouts and their walk and branch tables, on first use, and
    scipy.special loads only for a G-test off the default alpha or above 32
    degrees of freedom."""
    code = (
        "import argparse\n"
        "import sys\n"
        "built = []\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(kw)\n"
        "from swapsim import cli, engine, io, qcore\n"
        "caches = {name: f.cache_info().currsize for module in (cli, io, engine, qcore)\n"
        "          for name, f in vars(module).items() if hasattr(f, 'cache_info')}\n"
        "assert len(caches) >= 8 and not any(caches.values()) and not built, caches\n"
        "assert 'scipy.special' not in sys.modules\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


class TestCliSimulate:
    def test_writes_artifacts_with_report(self, tmp_path):
        out = tmp_path / "run1"
        rc = cli.main(
            ["simulate", "--geometry", "early", "--trials", "400", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "run1.report.json").read_text())
        assert report["meta"]["geometry"] == "early"
        assert report["meta"]["seed"] == 7
        assert "S" in report["chsh"]
        assert {t["hypothesis"] for t in report["ci_tests"]} == {
            "no-signaling-A", "no-signaling-B", "LC_ps-A", "LC_ps-B",
        }
        mirror = json.loads((tmp_path / "run1.json").read_text())
        assert mirror["meta"]["herald"] == "psi-minus"
        assert len(mirror["records"]) == 400

    def test_exact_mode_report(self, tmp_path):
        out = tmp_path / "run2"
        rc = cli.main(
            ["simulate", "--exact", "--geometry", "delayed", "--trials", "50",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "run2.report.json").read_text())
        assert report["exact"]["chsh"]["S"] == pytest.approx(2.8284271247, abs=1e-9)
        assert report["exact"]["nda"]["verdict"] == "NoDifference"
        assert report["exact"]["fragility"]["max_spread"] > 0

    def test_out_prefix_changes_only_meta_out(self, tmp_path):
        # simulate echoes --out into meta.out of both JSON files: under two
        # prefixes the CSVs are byte-equal, and the JSON files are equal
        # once meta.out is dropped.
        outs = [tmp_path / "a" / "run", tmp_path / "b" / "sim-full"]
        for out in outs:
            out.parent.mkdir()
            argv = ["simulate", "--exact", "--trials", "300", "--seed", "9", "--out", str(out)]
            assert cli.main(argv) == 0
        assert len({Path(f"{out}.csv").read_bytes() for out in outs}) == 1
        for suffix in (".json", ".report.json"):
            docs = [json.loads(Path(f"{out}{suffix}").read_text()) for out in outs]
            assert [doc["meta"].pop("out") for doc in docs] == [str(out) for out in outs]
            assert docs[0] == docs[1]

    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--trials", "10"])
        assert exc.value.code == 2

    def test_io_failure_exit_code(self, tmp_path):
        rc = cli.main(
            ["simulate", "--trials", "10", "--out", str(tmp_path / "no" / "way" / "run")]
        )
        assert rc == 3

    @pytest.mark.parametrize("config", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_file_is_io_failure(self, tmp_path, monkeypatch, capsys, config):
        # Raised FileNotFoundError / IsADirectoryError out of main.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", config, "--out", "run"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("swapsim: I/O error: ")
        assert repr(config) in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPSIM_SEED", "424242")
        out = tmp_path / "run3"
        cli.main(["simulate", "--trials", "20", "--out", str(out)])
        report = json.loads((tmp_path / "run3.report.json").read_text())
        assert report["meta"]["seed"] == 424242

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("geometry = early\ntrials = 60\nseed = 9\n")
        out = tmp_path / "run4"
        cli.main(["simulate", "--config", str(cfg), "--trials", "30", "--out", str(out)])
        report = json.loads((tmp_path / "run4.report.json").read_text())
        assert report["meta"]["geometry"] == "early"
        assert report["meta"]["n_trials"] == 30  # flag wins over file
        assert report["meta"]["seed"] == 9

    def test_config_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        # Every artifact is written as UTF-8; under the C locale with UTF-8
        # mode off, Python's default text encoding is ASCII.
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("out = \u03c1un\n".encode("utf-8"))
        code = f"from swapsim import cli; print(ascii(cli.load_config_file({str(cfg)!r})))"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == ascii({"out": "\u03c1un"})

    def test_config_file_can_enable_exact(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("exact = true\ntrials = 40\n")
        out = tmp_path / "run5"
        cli.main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        report = json.loads((tmp_path / "run5.report.json").read_text())
        assert report["meta"]["exact"] is True
        assert "nda" in report["exact"]

    def test_disable_c_run(self, tmp_path):
        out = tmp_path / "run6"
        rc = cli.main(
            ["simulate", "--disable-c", "true", "--trials", "50", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "run6.report.json").read_text())
        assert report["heralded"]["count"] == 0
        assert report["chsh"] is None  # empty event-ready ensemble
        assert ",absent," in (tmp_path / "run6.csv").read_text()

    def test_exact_with_c_disabled_nulls_undefined_entries(self, tmp_path):
        out = tmp_path / "run7"
        rc = cli.main(
            ["simulate", "--exact", "--disable-c", "true", "--trials", "16", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        exact = json.loads((tmp_path / "run7.report.json").read_text())["exact"]
        assert exact["correlators"] is None and exact["chsh"] is None
        assert exact["fragility"] is None
        assert exact["nda"]["verdict"] == "NoDifference"

    @pytest.mark.parametrize("c_enabled", [True, False])
    def test_exact_section_builds_two_tables(self, tmp_path, monkeypatch, c_enabled):
        # One table with C on and one with C off serve every exact diagnostic.
        built = []
        exact_rows = engine._exact_rows

        def counted(config, c_enabled):
            built.append(c_enabled)
            return exact_rows(config, c_enabled)

        monkeypatch.setattr(engine, "_exact_rows", counted)
        monkeypatch.setattr(analysis, "_exact_rows", counted)
        rc = cli.main(["simulate", "--exact", "--disable-c", str(not c_enabled).lower(),
                       "--trials", "16", "--seed", "1", "--out", str(tmp_path / "run")])
        assert rc == 0
        assert sorted(built) == [False, True]

    def test_exact_with_unreachable_herald_nulls_correlators(self, tmp_path):
        # A partial analyzer folds phi+ into "none", so this herald never fires.
        out = tmp_path / "run8"
        rc = cli.main(
            ["simulate", "--exact", "--partial-bsm", "true", "--herald", "phi-plus",
             "--trials", "16", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        exact = json.loads((tmp_path / "run8.report.json").read_text())["exact"]
        assert exact["correlators"] is None and exact["chsh"] is None
        assert exact["nda"]["verdict"] == "NoDifference"
        cells = exact["fragility"]["cells"]
        assert len(cells) == 16 and all(c["p_herald"] == 0.0 for c in cells)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("trails = 5\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "'trails'" in capsys.readouterr().err

    def test_config_key_of_another_subcommand_is_usage_error(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("geometry = early\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["toy", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, monkeypatch):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -3\n")
        out = str(tmp_path / "x")
        for argv in (
            ["toy", "--seed", "-1", "--out", out],
            ["simulate", "--seed", str(2**64), "--out", out],
            ["rps", "--config", str(cfg), "--out", out],
            ["teleport", "--seed", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
        monkeypatch.setenv("SWAPSIM_SEED", str(2**64))
        with pytest.raises(SystemExit) as exc:
            cli.main(["rps", "--trials", "5", "--out", out])
        assert exc.value.code == 2


    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", ["0,,1", "0,1,", ",0,1", "0,", "0,1,2"])
    def test_angles_with_empty_or_extra_fields_are_usage_errors(self, tmp_path, capsys, angles):
        cfg = tmp_path / "angles.cfg"
        cfg.write_text(f"angles-b = {angles}\n")
        out = str(tmp_path / "x")
        for argv, field in (
            (["simulate", f"--angles-a={angles}", "--out", out], "--angles-a"),
            (["simulate", "--config", str(cfg), "--out", out], "'angles-b'"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert field in err and repr(angles) in err, err

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_is_usage_error(self, tmp_path, capsys, angle):
        # Rejected where the config is built, before the sampler sees the angle.
        cfg = tmp_path / "angles.cfg"
        cfg.write_text(f"angles-b = 0.5,{angle}\n")
        out = str(tmp_path / "x")
        for argv in (
            ["simulate", f"--angles-a={angle},0", "--out", out],
            ["simulate", "--config", str(cfg), "--out", out],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "must be finite" in capsys.readouterr().err


class TestCliToyRps:
    def test_toy_source_report(self, tmp_path):
        out = tmp_path / "toy1"
        rc = cli.main(
            ["toy", "--variant", "source", "--trials", "4000", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "toy1.report.json").read_text())
        names = {t["hypothesis"] for t in report["ci_tests"]}
        assert {"SI_ps", "SI", "LC_ps-A", "LC_ps-B", "LC-A", "LC-B"} <= names
        assert abs(report["marginals"]["P(A=+1)"] - 0.5) < 0.05

    def test_bad_variant_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["toy", "--variant", "quantum", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        for argv in (
            ["toy", "--trials", "0", "--out", str(tmp_path / "x")],
            ["rps", "--trials", "0", "--out", str(tmp_path / "x")],
            ["teleport", "--trials", "0"],
            ["simulate", "--trials", "0", "--out", str(tmp_path / "x")],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            # The runners' check_trials message, for every subcommand.
            assert "n_trials must be >= 1, got 0" in capsys.readouterr().err, argv

    def test_rps_report(self, tmp_path):
        out = tmp_path / "rps1"
        rc = cli.main(["rps", "--trials", "3000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.loads((tmp_path / "rps1.report.json").read_text())
        by_name = {t["hypothesis"]: t["verdict"] for t in report["ci_tests"]}
        assert by_name["rps-unconditional"] == "Holds"
        assert by_name["rps-given-Draw"] == "Violated"


@pytest.mark.parametrize("argv", [
    ["simulate", "--exact"], ["toy", "--variant", "collider"], ["toy", "--variant", "source"],
    ["rps"]])
def test_each_run_is_coded_and_tallied_once(tmp_path, monkeypatch, argv):
    # The writers, the G-tests and the correlators read one row code and one
    # count table per run; a selection is a slice of the table, not a copy
    # of rows.
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    def no_row_copy(self, rows):
        raise AssertionError("a run's rows were copied")

    monkeypatch.setattr(io, "row_code", counted("row_code", io.row_code))
    monkeypatch.setattr(analysis, "count_table", counted("count_table", analysis.count_table))
    monkeypatch.setattr(Trials, "select", no_row_copy)
    out = str(tmp_path / "run")
    assert cli.main(argv + ["--trials", "500", "--seed", "2", "--out", out]) == 0
    assert calls == ["row_code", "count_table"]


class TestCliGeometryTeleport:
    def test_geometry_preset_stdout(self, capsys):
        rc = cli.main(["geometry", "--preset", "early"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "classification: ED" in out

    def test_geometry_boost_reorders_c(self, capsys):
        rc = cli.main(["geometry", "--preset", "spacelike", "--boost", "0.5"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("order")]
        assert len(lines) == 2
        rest_line, boosted_line = lines
        assert rest_line != boosted_line

    def test_geometry_delayed_boost_keeps_c_last(self, capsys):
        cli.main(["geometry", "--preset", "delayed", "--boost", "0.9"])
        boosted = capsys.readouterr().out.splitlines()[-1]
        assert boosted.split("(")[0].rstrip().endswith("C")

    def test_geometry_overflowing_times_print_order_keys(self, capsys):
        # Printed "SourceRight=-inf, ..., C=inf, A=inf", which cannot order C before A.
        coords = ("A=1.5e308,-1e308;B=1.6e308,1e308;C=1.7e308,0;"
                  "SourceLeft=-1e308,-1e308;SourceRight=-1e308,1e308")
        assert cli.main(["geometry", "--coords", coords, "--boost", "0.9"]) == 0
        rest, boosted = capsys.readouterr().out.splitlines()[-2:]
        assert rest == (
            "order at v=0: SourceLeft < SourceRight < A < B < C  (SourceLeft=-1e+308,"
            " SourceRight=-1e+308, A=1.5e+308, B=1.6e+308, C=1.7e+308)"
        )
        assert boosted == (
            "order at v=0.9: SourceRight < SourceLeft < B < C < A  (keys t/2 - v*x/2:"
            " SourceRight=-9.5e+307, SourceLeft=-5e+306, B=3.5e+307, C=8.5e+307, A=1.2e+308)"
        )

    @pytest.mark.parametrize("boost,labels", [
        # Six significant digits would label the first "v=1", a velocity the
        # command rejects, and both of the next "v=0.123456".
        ("0.9999999999999999", ["0", "0.9999999999999999"]),
        ("0.1234561,0.1234562", ["0", "0.1234561", "0.1234562"]),
        ("0.5,-0.25,1e-7,0.9", ["0", "0.5", "-0.25", "1e-07", "0.9"]),
    ])
    def test_geometry_labels_read_back_as_their_boosts(self, capsys, boost, labels):
        assert cli.main(["geometry", "--preset", "early", "--boost", boost]) == 0
        lines = capsys.readouterr().out.splitlines()
        shown = [line.split(":")[0].removeprefix("order at v=")
                 for line in lines if line.startswith("order at v=")]
        assert shown == labels
        assert [float(v) for v in shown] == [0.0, *map(float, boost.split(","))]

    def test_geometry_bad_boost(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["geometry", "--preset", "spacelike", "--boost", "1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("boost", ["0.5,,0.2", ",", "0.5,", ",0.5", "", " "])
    def test_geometry_boost_with_empty_field_is_usage_error(self, capsys, boost):
        with pytest.raises(SystemExit) as exc:
            cli.main(["geometry", "--preset", "spacelike", "--boost", boost])
        assert exc.value.code == 2
        assert f"--boost value {boost!r}" in capsys.readouterr().err

    def test_geometry_custom_coords(self, capsys):
        rc = cli.main(
            ["geometry", "--coords",
             "A=1,-1;B=1,1;C=1,0;SourceLeft=0,-1;SourceRight=0,1"]
        )
        assert rc == 0
        assert "classification: Spacelike" in capsys.readouterr().out

    def test_geometry_repeated_coords_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["geometry", "--coords",
                      "A=1,-1;A=5,0;B=1,1;C=1,0;SourceLeft=0,-1;SourceRight=0,1"])
        assert exc.value.code == 2
        assert "'A'" in capsys.readouterr().err

    def test_geometry_non_causal_coords_are_usage_error(self, capsys):
        # Ran and printed the orders, sources after the wings they feed.
        with pytest.raises(SystemExit) as exc:
            cli.main(["geometry", "--coords",
                      "A=0,-1;B=0,1;C=1,0;SourceLeft=5,-1;SourceRight=5,1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SourceLeft must be timelike-past of A, got TimelikeFuture" in captured.err

    @pytest.mark.parametrize("entry", ["A=1", "A=1,x", "A="])
    def test_geometry_malformed_coords_entry_is_named(self, capsys, entry):
        with pytest.raises(SystemExit) as exc:
            cli.main(["geometry", "--coords",
                      f"{entry};B=1,1;C=1,0;SourceLeft=0,-1;SourceRight=0,1"])
        assert exc.value.code == 2
        assert f"bad --coords entry {entry!r}: could not convert" in capsys.readouterr().err

    def test_teleport_stdout_report(self, capsys):
        rc = cli.main(["teleport", "--controlled", "true", "--trials", "2000", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["teleport"]["p_match"] == 1.0

    def test_teleport_file_report(self, tmp_path):
        out = tmp_path / "tp"
        rc = cli.main(
            ["teleport", "--controlled", "false", "--trials", "2000", "--seed", "2",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "tp.report.json").read_text())
        assert payload["teleport"]["mutual_information_bits"] < 0.2


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path, monkeypatch):
        dirs = [tmp_path / "one", tmp_path / "two"]
        for d in dirs:
            d.mkdir()
            monkeypatch.chdir(d)
            cli.main(["simulate", "--trials", "300", "--seed", "5", "--out", "run"])
            cli.main(["toy", "--variant", "collider", "--trials", "300", "--seed", "5",
                      "--out", "toy"])
        for name in ("run.csv", "run.json", "run.report.json", "toy.csv", "toy.report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
