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

from swapsim import analysis, qcore
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
        assert result.combination == CHSH_COMBINATION

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

    def test_quantum_bound_respected_on_generated_data(self):
        ens = run_trials(ExperimentConfig(n_trials=20_000, seed=31))
        result = chsh(correlators(post_select(ens)))
        assert abs(result.S) <= 4.0
        assert not result.exceeds_quantum_bound()
        kept = accepted(run_toy_collider(20_000, 31))
        assert not chsh(correlators(kept)).exceeds_quantum_bound()


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
        # Settings, outcomes, hidden pairs and rps choices span fewer values
        # than there are rows, so every code is an offset: the batteries give
        # the same results with np.unique unavailable to the G-test.
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
        conditioned = conditional_given_c(table, cfg.herald_set())
        unconditioned = marginal_over_c(table)
        diff = max(abs(conditioned[k] - unconditioned[k]) for k in unconditioned)
        assert diff > 0.01

    def test_conditioning_on_sure_event_is_identity(self):
        cfg = ExperimentConfig(herald="all")
        table = exact_experiment_distribution(cfg)
        conditioned = conditional_given_c(table, cfg.herald_set())
        unconditioned = marginal_over_c(table)
        diff = max(abs(conditioned[k] - unconditioned[k]) for k in unconditioned)
        assert diff < 1e-12


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
    def test_both_inputs_sampled_in_one_walk(self, monkeypatch, controlled):
        # One _branches call per plan step, for both input bits together,
        # whatever the trial count.
        calls = []
        branches = qcore._branches
        monkeypatch.setattr(qcore, "_branches", lambda *args: calls.append(1) or branches(*args))
        for n in (1, 3_000):
            calls.clear()
            teleport_channel_demo(controlled, n, 4)
            assert len(calls) == 2, n


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


def test_exact_diagnostics_do_not_import_scipy_special():
    """Only the G-tests need scipy.special (about 26 MB and 0.2 s to
    import), so importing the CLI and running the exact diagnostics leave
    it unloaded; the first G-test loads it."""
    code = (
        "import sys\n"
        "from swapsim import analysis, cli, engine\n"
        "cfg = engine.ExperimentConfig()\n"
        "analysis.exact_chsh(cfg), analysis.no_difference_check(cfg), analysis.fragility(cfg)\n"
        "engine.herald_probability(cfg)\n"
        "assert 'scipy.special' not in sys.modules\n"
        "analysis.no_signaling_tests(engine.run_trials(engine.ExperimentConfig(n_trials=50)))\n"
        "assert 'scipy.special' in sys.modules\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
