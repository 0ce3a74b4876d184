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

from scalar_oracle import assert_same_table
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


class TestTokens:
    def test_round_trip(self, tmp_path):
        # Every C outcome code, -1 (C off) included, reads back as written.
        codes = list(range(-1, len(OUTCOMES)))
        n = len(codes)
        ens = Trials({"trial_id": range(n), "a": [0] * n, "b": [1] * n, "A": [1] * n,
                      "B": [-1] * n, "c_outcome": codes, "heralded": [False] * n})
        io.write_ensemble_csv(tmp_path / "ens.csv", ens)
        assert_same_table(io.read_ensemble_csv(tmp_path / "ens.csv"), ens)

    def test_token_values(self):
        assert io.outcome_token(BellOutcome.PSI_MINUS) == "psi-"
        assert io.outcome_token(BellOutcome.NO_HERALD) == "none"
        assert io.outcome_token(None) == "absent"

    def test_unknown_token_rejected(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("trial_id,a,b,A,B,c_outcome,heralded\n0,0,1,1,-1,maybe,true\n")
        with pytest.raises(ValueError, match="line 2: c_outcome is none of"):
            io.read_ensemble_csv(path)


class TestEnsembleCsv:
    def test_round_trip(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=200, seed=6))
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, ens)
        assert_same_table(io.read_ensemble_csv(path), ens)

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

    @pytest.mark.parametrize("first,last", [(-5, 3), (0, 10**18), (-1, 2**63 - 1), (0.0, 1.5)])
    def test_trial_id_the_reader_rejects_is_rejected(self, tmp_path, first, last):
        # read_ensemble_csv reads trial_ids as integers in [0, 10**18) only.
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
        io.write_ensemble_csv(tmp_path / "ens.csv", ens)
        assert_same_table(io.read_ensemble_csv(tmp_path / "ens.csv"), ens)

    def test_partial_mode_round_trip(self, tmp_path):
        ens = run_trials(ExperimentConfig(n_trials=60, seed=6, bsm_partial=True))
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, ens)
        assert ",none," in path.read_text()
        assert_same_table(io.read_ensemble_csv(path), ens)


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
    path = tmp_path_factory.mktemp("csv") / "ens.csv"
    io.write_ensemble_csv(path, ens)
    assert_same_table(io.read_ensemble_csv(path), ens)


class TestEnsembleCsvRejects:
    GOOD = "trial_id,a,b,A,B,c_outcome,heralded\n0,0,1,1,-1,psi-,true\n"

    def read(self, tmp_path, text):
        path = tmp_path / "ens.csv"
        path.write_text(text)
        return io.read_ensemble_csv(path)

    def test_good_row_reads(self, tmp_path):
        assert len(self.read(tmp_path, self.GOOD)) == 1

    @pytest.mark.parametrize("row,message", [
        ("1,0,1,1,-1,psi-", "line 3: expected 7 fields"),
        ("1,0,1,1,-1,psi-,true,extra", "line 3: expected 7 fields"),
        ("1,7,1,1,-1,psi-,true", "line 3: a is none of"),
        ("1,0,1,5,-1,psi-,true", "line 3: A is none of"),
        ("1,0,1,1,0,psi-,true", "line 3: B is none of"),
        ("1,0,x,1,-1,psi-,true", "line 3: b is none of"),
        ("1,0,1,1,-1,psi-,yes", "line 3: heralded is none of"),
        ("0,0,1,1,-1,psi-,true", "line 3: trial_id not above"),
        ("-1,0,1,1,-1,psi-,true", "line 3: trial_id is not an integer"),
        ("1.5,0,1,1,-1,psi-,true", "line 3: trial_id is not an integer"),
        ("1" + "0" * 18 + ",0,1,1,-1,psi-,true", "line 3: trial_id is not an integer"),
        # A trailing NUL used to be dropped, and a superscript digit to fail in int().
        ("1\x00,0,1,1,-1,psi-,true", "line 3: trial_id is not an integer"),
        ("\u00b2,0,1,1,-1,psi-,true", "line 3: trial_id is not an integer"),
        ("1,0,1,1,-1,psi-\x00,true", "line 3: c_outcome is none of"),
        ("1,0,1,1,-1,psi-,truefalse", "line 3: heralded is none of"),
    ])
    def test_bad_row_rejected(self, tmp_path, row, message):
        with pytest.raises(ValueError, match=message):
            self.read(tmp_path, self.GOOD + row + "\n")

    def test_crlf_line_ends_read(self, tmp_path):
        text = self.GOOD + "7,1,0,-1,1,absent,false"  # no line end after the last row
        assert_same_table(self.read(tmp_path, text.replace("\n", "\r\n")),
                          self.read(tmp_path, text))

    def test_decreasing_ids_rejected(self, tmp_path):
        text = self.GOOD.replace("\n0,", "\n5,") + "6,0,0,1,1,absent,false\n3,0,0,1,1,none,false\n"
        with pytest.raises(ValueError, match="line 4: trial_id not above"):
            self.read(tmp_path, text)


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
        ens = self.table(self.N + extra)
        io.write_ensemble_csv(tmp_path / "ens.csv", ens)
        assert_same_table(io.read_ensemble_csv(tmp_path / "ens.csv"), ens)

    @pytest.mark.parametrize("row,message", [
        ("99999,0,1,1,-1,psi-", "expected 7 fields"),
        ("99999,0,1,1,-1,phi,true", "c_outcome is none of"),
        # Equal to the last trial_id of the chunk before.
        (f"{3 * (N - 1)},0,1,1,-1,psi-,true", "trial_id not above"),
    ])
    def test_bad_row_just_past_chunk_boundary(self, tmp_path, row, message):
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, self.table(self.N))
        with open(path, "a") as fh:
            fh.write(row + "\n")
        # The header is line 1, so the first row of the second chunk is line N + 2.
        with pytest.raises(ValueError, match=f"line {self.N + 2}: {message}"):
            io.read_ensemble_csv(path)

    def test_read_back_memory_is_bounded(self, tmp_path):
        # A 1e5-row (2.6 MB) ensemble CSV: holding every row as a list of
        # strings before decoding peaks near 55 MB.
        path = tmp_path / "ens.csv"
        io.write_ensemble_csv(path, self.table(100_000))
        tracemalloc.start()
        try:
            io.read_ensemble_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

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


def test_importing_the_cli_builds_no_writer_table():
    """Every swapsim invocation pays the CLI's import: the writers build
    their row and digit tables on first use, and scipy.special loads with
    the first G-test."""
    code = (
        "import sys\n"
        "import swapsim.cli\n"
        "from swapsim import io\n"
        "caches = {name: f.cache_info().currsize for name, f in vars(io).items()\n"
        "          if hasattr(f, 'cache_info')}\n"
        "assert len(caches) >= 3 and not any(caches.values()), caches\n"
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
