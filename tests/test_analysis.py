"""Diagnostic battery tests."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import analysis, cli, engine, qcore
from swapsim.analysis import (
    CHSH_COMBINATION,
    CorrelatorTable,
    NdaVerdict,
    Verdict,
    chsh,
    correlators,
    exact_chsh,
    exact_heralded_correlators,
    fragility,
    local_causality_tests,
    mutual_information_bits,
    no_difference_check,
    no_signaling_tests,
    statistical_independence_test,
    teleport_channel_demo,
)
from swapsim.analysis import test_conditional_independence as ci_test
from swapsim.engine import (
    GEOMETRY_NAMES,
    HERALD_PREDICATES,
    ExperimentConfig,
    Trials,
    exact_experiment_distribution,
    herald_probability,
    post_select,
    run_trials,
)
from scalar_oracle import conditional_given_c, marginal_over_c
from swapsim.qcore import BellOutcome
from swapsim.toys import (
    RPS_VERDICTS,
    accepted,
    constant_rule,
    run_rps,
    run_toy_collider,
    run_toy_source_variant,
)

SQ = math.sqrt(2.0) / 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)

BATTERY_N = 100_000


@pytest.fixture(scope="module")
def quantum_run():
    return run_trials(ExperimentConfig(geometry="early", n_trials=BATTERY_N, seed=37))


@pytest.fixture(scope="module")
def collider_run():
    return run_toy_collider(BATTERY_N, 43)


@pytest.fixture(scope="module")
def source_run():
    return run_toy_source_variant(BATTERY_N, 47)


def table(rows) -> Trials:
    """A trial table from (a, b, A, B) rows."""
    a, b, A, B = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Trials({"trial_id": np.arange(len(a)), "a": a, "b": b, "A": A, "B": B})


class TestCorrelators:
    def test_constant_data(self):
        rows = [(a, b, 1, 1) for a in (0, 1) for b in (0, 1) for _ in range(3)]
        result = correlators(table(rows))
        assert all(v == 1.0 for v in result.values.values())

    def test_empty_cells_flagged(self):
        result = correlators(table([]))
        assert all(v is None for v in result.values.values())
        assert all(c == 0 for c in result.counts.values())

    def test_exact_event_ready_values(self):
        # -cos(ta - tb) at the default angles: +s, +s, +s, -s with s = sqrt(2)/2.
        table = exact_heralded_correlators(ExperimentConfig())
        assert table.values[(0, 0)] == pytest.approx(SQ, abs=1e-12)
        assert table.values[(0, 1)] == pytest.approx(SQ, abs=1e-12)
        assert table.values[(1, 0)] == pytest.approx(SQ, abs=1e-12)
        assert table.values[(1, 1)] == pytest.approx(-SQ, abs=1e-12)


class TestChsh:
    def test_exact_tsirelson(self):
        result = exact_chsh(ExperimentConfig())
        assert abs(result.S - TSIRELSON) < 1e-9
        assert result.stderr == 0.0
        assert result.as_json()["combination"] == CHSH_COMBINATION

    def test_zero_correlators(self):
        table = CorrelatorTable({c: 0.0 for c in ((0, 0), (0, 1), (1, 0), (1, 1))},
                                {c: 10 for c in ((0, 0), (0, 1), (1, 0), (1, 1))})
        assert chsh(table).S == 0.0

    def test_constant_strategy_hits_classical_bound(self):
        rows = [(a, b, 1, 1) for a in (0, 1) for b in (0, 1) for _ in range(5)]
        assert chsh(correlators(table(rows))).S == pytest.approx(2.0)

    def test_missing_cell_raises(self):
        with pytest.raises(ValueError):
            chsh(correlators(table([(0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)])))


class TestCountTable:
    def test_missing_columns_raise(self):
        # Each used to raise a bare KeyError.
        trials = table([(0, 1, 1, -1)] * 3)
        with pytest.raises(ValueError, match=r"\['zz'\].*trial_id"):
            analysis.count_table(trials, ("a", "zz"))
        no_b = Trials({name: trials[name] for name in ("trial_id", "a", "A", "B")})
        for data in (no_b, analysis.count_table(no_b, ("a", "A", "B"))):
            with pytest.raises(ValueError, match=r"correlators names \['b'\]"):
                correlators(data)

    def test_nan_is_not_a_category(self):
        # np.unique merged the NaNs into one stratum, which read dof 2.
        rows = np.arange(400)
        data = Trials({"trial_id": rows, "g": np.where(rows % 2, np.nan, 0.5),
                       "t": rows // 2 % 2, "v": rows // 4 % 3})
        cells = {"g": np.array([np.nan, 0.5]), "t": np.array([0, 1])}
        for run in (lambda: analysis.count_table(data, ("t", "g", "v")),
                    lambda: ci_test(data, "t", ("g",), ("v",)),
                    lambda: analysis.CountTable(cells, np.array([2, 2]), np.array([0, 1]))):
            with pytest.raises(ValueError, match=r"\['g'\] hold NaN"):
                run()

    def test_values_outside_a_known_column_raise(self):
        # correlators returned E(1,1) = -5.0 here and dropped the a = 2 row.
        data = Trials({"trial_id": np.arange(3), "a": np.array([0, 2, 1]), "b": np.array([0, 1, 1]),
                       "A": np.array([1, 1, -1]), "B": np.array([1, 5, 1])})
        cells = {"a": np.array([0, 2]), "b": np.array([0, 1])}
        for run in (lambda: correlators(data), lambda: analysis.count_table(data, ("a", "b")),
                    lambda: ci_test(data, "A", ("a",), ("b",)),
                    lambda: analysis.CountTable(cells, np.array([1, 1]), np.array([0, 1]))):
            with pytest.raises(ValueError, match=r"column a holds a value outside \[0, 1\]"):
                run()

    @pytest.mark.parametrize("count", [[2.5, 2], [-5, 2], [True, True]])
    def test_counts_not_integers_at_least_0_raise(self, count):
        # [2.5, 2] gave E(0,0) = 1.25 and truncated counts; [-5, 2] died in
        # len() with "__len__() should return >= 0".
        cells = {"a": np.array([0, 0]), "b": np.array([0, 0]), "A": np.array([1, -1]),
                 "B": np.array([1, 1])}
        with pytest.raises(ValueError, match="counts must be integers >= 0"):
            analysis.CountTable(cells, np.array(count), np.array([0, 1]))

    def test_cells_of_another_shape_raise(self):
        # The G-test zips a table's columns, so it would drop the surplus cells.
        # A column named first stood in for the first rows, and select then
        # raised IndexError; a list raised AttributeError.
        for columns, count, first in (({"t": np.array([0, 0, 1, 1])}, [60, 70, 80], np.arange(3)),
                                      ({"t": np.array([0, 0, 1])}, [60, 70, 80], np.arange(4)),
                                      ({"first": np.array([0, 0])}, [1, 1], np.arange(3)),
                                      ({"t": [0, 1]}, [60, 70, 80], [0, 1, 2]),
                                      ({"t": [0, 1, 1]}, [60, 70], [0, 1])):
            with pytest.raises(ValueError, match="has shape"):
                analysis.CountTable(columns, np.array(count), first)
            with pytest.raises(ValueError, match="has shape"):
                analysis.CountTable(columns, count, first)

    def test_lists_read_as_arrays(self):
        # Raised AttributeError: 'list' object has no attribute 'shape'.
        lists = analysis.CountTable({"a": [0, 1], "b": [0, 0], "A": [1, 1], "B": [1, -1]},
                                    [3, 2], [0, 1])
        arrays = analysis.CountTable({"a": np.array([0, 1]), "b": np.array([0, 0]),
                                      "A": np.array([1, 1]), "B": np.array([1, -1])},
                                     np.array([3, 2]), np.array([0, 1]))
        assert correlators(lists) == correlators(arrays)
        assert len(lists) == 5 and lists.select([1])["B"].tolist() == [-1]
        with pytest.raises(ValueError, match="counts must be integers >= 0"):
            analysis.CountTable({"a": [0, 1]}, [2.5, 2], [0, 1])

    def test_no_write_follows_the_checks(self):
        # t["A"][0] = 5 was kept, and correlators then gave E(0,0) = 5.0.
        cells = {"a": np.array([0, 0]), "b": np.array([0, 0]), "A": np.array([1, -1]),
                 "B": np.array([1, 1])}
        t = analysis.CountTable(cells, np.array([2, 1]), np.array([0, 1]))
        for array in (*t.columns.values(), t.count, t.first):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5
        with pytest.raises(TypeError):
            t.columns["A"] = np.array([5, 5])
        assert correlators(t).values[(0, 0)] == pytest.approx(1 / 3)

    def test_select_equals_the_checked_slice(self):
        # select builds its slice without the constructor's checks, which
        # any cells of a checked table pass.
        ens = run_trials(ExperimentConfig(n_trials=500, seed=8))
        t = analysis.count_table(ens, ("a", "b", "A", "B", "c_outcome", "heralded"))
        cells = len(t.count)
        for pick in (t["heralded"], np.zeros(cells, bool), np.ones(cells, bool),
                     np.arange(cells)[::-1], np.array([3, 3, 0, 3]), np.array([], np.intp),
                     [1, 1], slice(2, 9, 3)):
            got = t.select(pick)
            want = analysis.CountTable({name: column[pick] for name, column in t.columns.items()},
                                       t.count[pick], t.first[pick])
            assert list(got.columns) == list(want.columns)
            for g, w in zip((*got.columns.values(), got.count, got.first),
                            (*want.columns.values(), want.count, want.first)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    g[:1] = 0
            with pytest.raises(TypeError):
                got.columns["a"] = t["a"]
            assert len(got) == len(want) and correlators(got) == correlators(want)

    def test_quantum_bound_respected_on_generated_data(self):
        ens = run_trials(ExperimentConfig(n_trials=20_000, seed=31))
        result = chsh(correlators(post_select(ens)))
        assert abs(result.S) <= 4.0
        assert abs(result.S) <= TSIRELSON + 5 * result.stderr
        kept = chsh(correlators(accepted(run_toy_collider(20_000, 31))))
        assert abs(kept.S) <= TSIRELSON + 5 * kept.stderr


class TestConditionalIndependence:
    def test_independent_data_holds(self):
        rng = np.random.default_rng(0)
        rows = [
            (int(rng.integers(2)), int(rng.integers(2)),
             int(1 - 2 * rng.integers(2)), int(1 - 2 * rng.integers(2)))
            for _ in range(4_000)
        ]
        result = ci_test(table(rows), "A", ("a",), ("b",))
        assert result.verdict is Verdict.HOLDS

    def test_signaling_data_violated(self):
        rng = np.random.default_rng(1)
        rows = [
            (int(rng.integers(2)), b, 1 if b == 0 else -1, 1)
            for b in rng.integers(0, 2, size=2_000)
        ]
        result = ci_test(table(rows), "A", ("a",), ("b",))
        assert result.verdict is Verdict.VIOLATED
        assert result.divergence > result.threshold

    def test_small_cells_inconclusive(self):
        result = ci_test(table([(0, b, 1, 1) for b in (0, 1) for _ in range(10)]),
                         "A", ("a",), ("b",))
        assert result.verdict is Verdict.INCONCLUSIVE

    def test_empty_inconclusive(self):
        assert (
            ci_test(table([]), "A", ("a",), ("b",)).verdict
            is Verdict.INCONCLUSIVE
        )

    def test_constant_target_holds(self):
        # Zero degrees of freedom: nothing can vary, so nothing is violated.
        result = ci_test(table([(0, b, 1, 1) for b in (0, 1) for _ in range(100)]),
                         "A", ("a",), ("b",))
        assert result.verdict is Verdict.HOLDS
        assert result.divergence == 0.0

    def test_quantum_event_ready_violates_lc(self, quantum_run):
        ec = post_select(quantum_run)
        for result in local_causality_tests(ec, post_selected=True):
            assert result.verdict is Verdict.VIOLATED, result.hypothesis

    def test_quantum_full_ensemble_passes(self, quantum_run):
        for result in no_signaling_tests(quantum_run) + local_causality_tests(
            quantum_run, post_selected=False
        ):
            assert result.verdict is Verdict.HOLDS, result.hypothesis

    def test_toy_collider_lc_battery(self, collider_run):
        kept = accepted(collider_run)
        for result in local_causality_tests(kept, post_selected=True):
            assert result.verdict is Verdict.VIOLATED, result.hypothesis
        for result in local_causality_tests(collider_run, post_selected=False):
            assert result.verdict is Verdict.HOLDS, result.hypothesis
        for result in no_signaling_tests(collider_run):
            assert result.verdict is Verdict.HOLDS, result.hypothesis

    def test_toy_generator_wings_are_jointly_independent(self, collider_run):
        # The sampler uses no cross-wing information: (a, A) _||_ (b, B).
        result = ci_test(collider_run, ("a", "A"), (), ("b", "B"))
        assert result.verdict is Verdict.HOLDS

    def test_toy_source_si_battery(self, source_run):
        kept = accepted(source_run)
        assert statistical_independence_test(kept, post_selected=True).verdict is Verdict.VIOLATED
        assert (
            statistical_independence_test(source_run, post_selected=False).verdict
            is Verdict.HOLDS
        )
        # With the hidden pair in the conditioning set the wing outcomes are
        # fixed, so the selection correlation no longer lands on LC.
        for result in local_causality_tests(kept, post_selected=True, include_lambda=True):
            assert result.verdict is Verdict.HOLDS, result.hypothesis

    def test_missing_variable_raises(self, collider_run):
        # The collider variant records no hidden pair; asking for it used to
        # give Holds with dof 0.
        with pytest.raises(ValueError, match=r"lambda_A.*accepted"):
            statistical_independence_test(accepted(collider_run), post_selected=True)
        with pytest.raises(ValueError, match=r"'Z'.*trial_id"):
            ci_test(collider_run, "A", ("Z",), ("b",))
        with pytest.raises(ValueError, match="'x'"):
            ci_test(table([]), "x", (), ("b",))

    def test_no_selection_leaves_si_intact(self):
        trials = run_toy_source_variant(20_000, 51, constant_rule(1.0))
        result = statistical_independence_test(accepted(trials), post_selected=True)
        assert result.verdict is Verdict.HOLDS

    @pytest.mark.parametrize("alpha", [0, 0.0, 1, 1.5, -1, math.nan, math.inf, True, "0.01", None])
    def test_alpha_outside_open_unit_interval_raises(self, alpha):
        # 0, 1.5, -1 and NaN used to give an inf or nan threshold and Holds.
        with pytest.raises(ValueError, match="alpha"):
            ci_test(table([(0, 1, 1, -1)] * 60), "A", ("a",), ("b",), alpha=alpha)

    @pytest.mark.parametrize("min_cell", [-5, -1, 2.5, 3.0, True, "3", None])
    def test_min_cell_not_a_count_raises(self, min_cell):
        # -5 and 2.5 used to be accepted.
        with pytest.raises(ValueError, match="min_cell"):
            ci_test(table([]), "A", ("a",), ("b",), min_cell=min_cell)

    def test_alpha_and_min_cell_accepted_values(self):
        data = table([(a, b, 1, -1) for a in (0, 1) for b in (0, 1)] * 10)
        base = ci_test(data, "A", ("a",), ("b",), min_cell=0)
        assert ci_test(data, "A", ("a",), ("b",), min_cell=np.int64(0)) == base
        assert ci_test(data, "A", ("a",), ("b",), alpha=np.float64(0.5), min_cell=0).verdict \
            is Verdict.HOLDS

    @pytest.mark.parametrize(
        "target, given_, versus, repeated",
        [
            ("A", (), ("A",), "'A'"),  # used to report Violated at dof 4
            ("A", ("A",), ("b",), "'A'"),  # used to report Holds at dof 0
            ("A", ("a", "a"), ("b",), "'a'"),
            (("A", "A"), (), ("b",), "'A'"),
            ("A", ("a",), ("b", "a"), "'a'"),
            ("A", ("a",), ("B", "B"), "'B'"),
        ],
    )
    def test_variable_in_two_roles_raises(self, target, given_, versus, repeated):
        data = table([(a, b, 1 - 2 * a, 1 - 2 * b) for a in (0, 1) for b in (0, 1)] * 60)
        with pytest.raises(ValueError, match=repeated):
            ci_test(data, target, given_, versus)

    def test_declared_range_columns_never_sort(self, monkeypatch):
        # Settings, outcomes, hidden pairs and rps choices are known columns,
        # coded by their offsets: the batteries give the same results with
        # np.unique unavailable to the G-test.
        ensemble = run_trials(ExperimentConfig(geometry="early", n_trials=4000, seed=5))
        source = run_toy_source_variant(6000, 7)
        rps = run_rps(3000, 11)

        def batteries():
            kept = accepted(source)
            return (
                no_signaling_tests(ensemble)
                + local_causality_tests(post_select(ensemble), post_selected=True)
                + local_causality_tests(kept, post_selected=True, include_lambda=True)
                + local_causality_tests(source, post_selected=False)
                + [statistical_independence_test(kept, post_selected=True),
                   statistical_independence_test(source, post_selected=False)]
                + [ci_test(rps, "alice", (), ("bob",))]
                + [ci_test(rps.select(rps["verdict"] == code), "alice", (), ("bob",))
                   for code in range(len(RPS_VERDICTS))]
            )

        want = batteries()

        class NumpyWithoutUnique:
            def __getattr__(self, name):
                if name == "unique":
                    raise AssertionError("the G-test sorted a declared-range column")
                return getattr(np, name)

        monkeypatch.setattr(analysis, "np", NumpyWithoutUnique())
        assert batteries() == want

    def test_default_thresholds_are_chdtri_bit_for_bit(self):
        from scipy.special import chdtri

        assert len(analysis._CHI2_DEFAULT) == 32
        for dof, threshold in enumerate(analysis._CHI2_DEFAULT, 1):
            want = float(chdtri(dof, analysis.DEFAULT_ALPHA))
            assert type(threshold) is float and threshold.hex() == want.hex(), dof

    @pytest.mark.parametrize("alpha, dof", [
        (analysis.DEFAULT_ALPHA, 1), (analysis.DEFAULT_ALPHA, 9), (analysis.DEFAULT_ALPHA, 32),
        (analysis.DEFAULT_ALPHA, 33), (analysis.DEFAULT_ALPHA, 99),
        (0.01, 1), (0.01, 2), (0.01, 9), (0.01, 33), (0.5, 4),
    ])
    def test_threshold_is_chdtri_at_any_alpha_and_dof(self, alpha, dof):
        # One stratum of 2 targets by dof + 1 versus values has dof degrees
        # of freedom; past the table, or off the default alpha, the
        # threshold comes from scipy.
        from scipy.special import chdtri

        data = Trials({"trial_id": np.arange(2 * (dof + 1)), "t": np.repeat([0, 1], dof + 1),
                       "v": np.tile(np.arange(dof + 1), 2)})
        result = ci_test(data, "t", (), ("v",), alpha=alpha, min_cell=0)
        assert result.dof == dof
        assert result.threshold.hex() == float(chdtri(dof, alpha)).hex()

    def test_expected_counts_round_above_2_53(self):
        # t * v exceeds 2**53 in every cell, so float(t * v) / n_g rounds
        # unlike the exact t * v / n_g, which reads 0x1.7c7c8992f7e50p+20.
        counts = analysis.CountTable(
            {"t": np.array([0, 0, 1, 1]), "v": np.array([0, 1, 0, 1])},
            count=np.array([768835601, 374281998, 896487718, 484974575]),
            first=np.array([0, 1, 2, 3]))
        assert ci_test(counts, "t", (), "v").divergence.hex() == "0x1.7c7c8992f76b0p+20"

    def test_no_degrees_of_freedom_no_threshold(self):
        data = table([(0, b, 1, 1) for b in (0, 1)] * 60)
        for alpha in (analysis.DEFAULT_ALPHA, 0.01):
            result = ci_test(data, "A", ("a",), ("b",), alpha=alpha)
            assert (result.dof, result.threshold, result.verdict) == (0, 0.0, Verdict.HOLDS)


class TestNoDifference:
    @pytest.mark.parametrize("geometry", ["early", "delayed", "spacelike"])
    def test_presets_show_no_difference(self, geometry):
        report = no_difference_check(ExperimentConfig(geometry=geometry))
        assert report.verdict is NdaVerdict.NO_DIFFERENCE
        assert report.max_abs_diff < 1e-12

    def test_post_selection_shifts_the_table(self):
        # Conditioning on the herald is what changes the distribution.
        cfg = ExperimentConfig()
        table = exact_experiment_distribution(cfg)
        conditioned = conditional_given_c(table, HERALD_PREDICATES[cfg.herald])
        unconditioned = marginal_over_c(table)
        diff = max(abs(conditioned[k] - unconditioned[k]) for k in unconditioned)
        assert diff > 0.01

    def test_conditioning_on_sure_event_is_identity(self):
        cfg = ExperimentConfig(herald="all")
        table = exact_experiment_distribution(cfg)
        conditioned = conditional_given_c(table, HERALD_PREDICATES[cfg.herald])
        unconditioned = marginal_over_c(table)
        diff = max(abs(conditioned[k] - unconditioned[k]) for k in unconditioned)
        assert diff < 1e-12

    def test_flipped_side_builds_no_config(self, monkeypatch):
        # The C-flipped side is read from its layout: no copy of the config
        # is built, and so none is checked again.
        configs = [ExperimentConfig(c_enabled=c, angles_a=(0.3, 1.9)) for c in (True, False)]
        built = []
        check = ExperimentConfig.__post_init__
        monkeypatch.setattr(ExperimentConfig, "__post_init__",
                            lambda self: built.append(self) or check(self))
        for cfg in configs:
            assert no_difference_check(cfg).verdict is NdaVerdict.NO_DIFFERENCE
        assert built == []


class TestFragility:
    def test_cells_match_closed_form(self):
        cfg = ExperimentConfig()
        report = fragility(cfg)
        assert len(report.cells) == 16
        for (a, b, A, B), p in report.cells.items():
            closed = (1.0 - A * B * math.cos(cfg.angles_a[a] - cfg.angles_b[b])) / 4.0
            assert abs(p - closed) < 1e-12
        assert report.max_spread > 0.0

    def test_equal_angle_cell(self):
        # theta_a = theta_b, A = +1, B = -1: (1 + cos 0)/4 = 0.5.
        cfg = ExperimentConfig(angles_a=(0.4, 1.0), angles_b=(0.4, 2.0))
        report = fragility(cfg)
        assert report.cells[(0, 0, 1, -1)] == pytest.approx(0.5, abs=1e-12)

    def test_accept_all_herald_is_flat(self):
        report = fragility(ExperimentConfig(herald="all"))
        assert all(p == pytest.approx(1.0, abs=1e-12) for p in report.cells.values())
        assert report.max_spread == pytest.approx(0.0, abs=1e-12)

    def test_requires_c_enabled(self):
        with pytest.raises(ValueError):
            fragility(ExperimentConfig(c_enabled=False))


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)
# Heralds a partial BSM can report: those naming a resolved outcome or NO_HERALD.
PARTIAL_HERALDS = sorted(
    name for name, outcomes in HERALD_PREDICATES.items()
    if outcomes & {BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS, BellOutcome.NO_HERALD}
)


@st.composite
def exact_configs(draw):
    partial = draw(st.booleans())
    return ExperimentConfig(
        angles_a=draw(st.tuples(angles, angles)),
        angles_b=draw(st.tuples(angles, angles)),
        herald=draw(st.sampled_from(PARTIAL_HERALDS if partial else sorted(HERALD_PREDICATES))),
        bsm_partial=partial,
    )


def _max_diff(t1: dict, t2: dict) -> float:
    assert set(t1) == set(t2)
    return max(abs(t1[k] - t2[k]) for k in t1)


class TestExactProperties:
    """The exact path's invariants for random angles, full and partial BSM
    and each herald the mode can report, to the bounds the benchmark's
    exact-scan checks apply."""

    @settings(max_examples=50, deadline=None, database=None)
    @given(cfg=exact_configs())
    def test_tables_sum_to_one_and_ignore_the_layout(self, cfg):
        for c_enabled in (True, False):
            tables = [
                exact_experiment_distribution(replace(cfg, geometry=g, c_enabled=c_enabled))
                for g in GEOMETRY_NAMES
            ]
            for table in tables:
                assert abs(sum(table.values()) - 1.0) < 1e-12
            for table in tables[1:]:
                assert _max_diff(tables[0], table) < 1e-12

    @settings(max_examples=50, deadline=None, database=None)
    @given(cfg=exact_configs())
    def test_no_difference_and_layout_free_diagnostics(self, cfg):
        reports = []
        for g in GEOMETRY_NAMES:
            layout = replace(cfg, geometry=g)
            assert no_difference_check(layout).verdict is NdaVerdict.NO_DIFFERENCE
            cells = fragility(layout).cells
            reports.append((exact_chsh(layout).S, herald_probability(layout), cells))
        (s0, p0, cells0), *others = reports
        for s, p, cells in others:
            assert abs(s - s0) < 1e-12 and abs(p - p0) < 1e-12
            assert cells.keys() == cells0.keys()
            for key, q in cells.items():
                assert (q is None) == (cells0[key] is None)
                assert q is None or abs(q - cells0[key]) < 1e-12

    @settings(max_examples=50, deadline=None, database=None)
    @given(cfg=exact_configs(), geometry=st.sampled_from(GEOMETRY_NAMES))
    def test_psi_minus_fragility_closed_form(self, cfg, geometry):
        cfg = replace(cfg, geometry=geometry, herald="psi-minus")
        for (a, b, A, B), p in fragility(cfg).cells.items():
            closed = (1.0 - A * B * math.cos(cfg.angles_a[a] - cfg.angles_b[b])) / 4.0
            assert abs(p - closed) < 1e-12


class TestWalkValues:
    """A config's walks read one value vector: the exact diagnostics walk
    its tables five times, and a ``simulate --exact`` op samples once and
    walks twice, but each builds the vector once."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, walk_values = [], qcore._walk_values

        def counted(angles):
            calls.append(tuple(angles))
            return walk_values(angles)

        for module in (qcore, engine):  # whichever module calls it
            monkeypatch.setattr(module, "_walk_values", counted, raising=False)
        return calls

    @pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
    @pytest.mark.parametrize("partial", [False, True])
    def test_diagnostics_build_the_values_once(self, built, geometry, partial):
        cfg = ExperimentConfig(geometry, angles_a=(0.3, 1.9), bsm_partial=partial)
        exact_chsh(cfg), no_difference_check(cfg), fragility(cfg), herald_probability(cfg)
        assert built == [(0.3, 1.9) + cfg.angles_b]

    def test_simulate_exact_builds_the_values_once(self, built, tmp_path):
        argv = ["simulate", "--exact", "--trials", "50", "--seed", "3", "--out",
                str(tmp_path / "run")]
        assert cli.main(argv) == 0
        assert built == [engine.DEFAULT_ANGLES_A + engine.DEFAULT_ANGLES_B]


class TestTeleport:
    def test_controlled_channel_is_perfect(self):
        report = teleport_channel_demo(True, 20_000, 3)
        assert report.p_match == 1.0
        assert report.mutual_information_bits > 0.9
        assert report.n_kept < report.n_trials

    def test_uncontrolled_channel_is_dead(self):
        n = 20_000
        report = teleport_channel_demo(False, n, 3)
        assert report.n_kept == n
        assert abs(report.p_match - 0.5) < 5 * math.sqrt(0.25 / n)
        assert report.mutual_information_bits < 0.05

    def test_z_eigenstate_deterministic_match(self):
        report = teleport_channel_demo(True, 2_000, 9)
        assert report.channel[(0, 0)] == 1.0
        assert report.channel[(1, 1)] == 1.0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            teleport_channel_demo(True, 0, 0)

    @pytest.mark.parametrize("controlled", ["no", 1, 0, None])
    def test_controlled_must_be_a_bool(self, controlled):
        # A truthy non-bool ran the controlled channel.
        with pytest.raises(ValueError, match="controlled must be a bool"):
            teleport_channel_demo(controlled, 10, 0)

    def test_numpy_bool_accepted(self):
        assert teleport_channel_demo(np.True_, 50, 3) == teleport_channel_demo(True, 50, 3)

    def test_nothing_kept_reports_empty_channel(self):
        # Find a trial whose joint outcome is not psi-, so controlled mode
        # discards it and the channel has no data.
        seed = next(
            s for s in range(50)
            if teleport_channel_demo(True, 1, s).n_kept == 0
        )
        report = teleport_channel_demo(True, 1, seed)
        assert report.p_match is None
        assert report.mutual_information_bits == 0.0
        assert all(v is None for v in report.channel.values())

    @pytest.mark.parametrize("controlled", [True, False])
    def test_each_input_sampled_in_one_walk(self, monkeypatch, controlled):
        # One _products call, the projection kernel, per plan step and input
        # bit, whatever the trial count: at n = 1 one input has no trial.
        calls = []
        products = qcore._products
        monkeypatch.setattr(qcore, "_products", lambda *args: calls.append(1) or products(*args))
        for n in (1, 3_000):
            calls.clear()
            teleport_channel_demo(controlled, n, 4)
            assert len(calls) == 4, n


class TestMutualInformation:
    def test_perfect_channel_close_to_one_bit(self):
        counts = np.array([[5000, 0], [0, 5000]])
        assert mutual_information_bits(counts) > 0.99

    def test_independent_counts_near_zero(self):
        counts = np.array([[2500, 2500], [2500, 2500]])
        assert abs(mutual_information_bits(counts)) < 1e-6

    def test_smoothing_handles_zeros(self):
        counts = np.array([[10, 0], [0, 0]])
        assert math.isfinite(mutual_information_bits(counts))

    @pytest.mark.parametrize("counts", [
        [[1, 2, 3]], [1, 2, 3, 4], [[1, 2], [3, 4], [5, 6]], [[[1, 2], [3, 4]]],
        [[-1, 0], [0, 0]], [[1, math.nan], [0, 0]], [[1, 0], [math.inf, 0]],
    ])
    def test_rejects_anything_but_a_2x2_table_of_counts(self, counts):
        # A 1x3 table gave 0.0 and a negative count nan, with RuntimeWarnings.
        with pytest.raises(ValueError, match="2x2 table"):
            mutual_information_bits(np.array(counts))


def test_default_alpha_runs_do_not_import_scipy_special(tmp_path):
    """scipy.special costs a process about 0.25 s and 20-25 MB to import,
    and only a G-test at another alpha or a dof above 32 needs it. The
    exact diagnostics, a default-alpha G-test and every command that runs
    G-tests leave it unloaded; a G-test at alpha = 0.01 loads it."""
    out = str(tmp_path / "run")
    code = (
        "import contextlib, io, sys\n"
        "from swapsim import analysis, cli, engine\n"
        "cfg = engine.ExperimentConfig()\n"
        "analysis.exact_chsh(cfg), analysis.no_difference_check(cfg), analysis.fragility(cfg)\n"
        "engine.herald_probability(cfg)\n"
        "data = engine.run_trials(engine.ExperimentConfig(n_trials=200))\n"
        "assert all(r.dof > 0 for r in analysis.no_signaling_tests(data))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['simulate', '--exact'], ['toy'], ['toy', '--variant', 'source'],\n"
        "                 ['rps'], ['teleport']):\n"
        f"        assert cli.main(argv + ['--trials', '3000', '--out', {out!r}]) == 0, argv\n"
        "assert 'scipy.special' not in sys.modules\n"
        "analysis.test_conditional_independence(data, 'A', ('a',), ('b',), alpha=0.01)\n"
        "assert 'scipy.special' in sys.modules\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
