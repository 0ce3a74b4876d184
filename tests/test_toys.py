"""Classical collider toy tests.

Expected conditional tables for the default rule are computed in-test by
renormalizing the uniform prior over the 16 bit combinations with the
acceptance weight, independently of the sampler.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from scalar_oracle import assert_same_table
from swapsim.analysis import chsh, correlators
from swapsim.engine import DEFAULT_ANGLES_A, DEFAULT_ANGLES_B
from swapsim.toys import (
    RPS_CHOICES,
    RPS_VERDICTS,
    AcceptanceRule,
    RpsChoice,
    RpsVerdict,
    accepted,
    constant_rule,
    rps_verdict,
    run_rps,
    run_toy_collider,
    run_toy_source_variant,
    singlet_weight_rule,
)


def oracle_accepted_distribution(rule: AcceptanceRule) -> dict:
    """Exact 16-cell accepted-subensemble distribution: uniform prior times
    weight, renormalized."""
    raw = {
        (a, b, A, B): rule.weight(a, b, A, B) / 16.0
        for a in (0, 1)
        for b in (0, 1)
        for A in (1, -1)
        for B in (1, -1)
    }
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


def oracle_accepted_correlator(rule: AcceptanceRule, a: int, b: int) -> float:
    dist = oracle_accepted_distribution(rule)
    mass = sum(p for (sa, sb, _A, _B), p in dist.items() if sa == a and sb == b)
    return sum(A * B * p for (sa, sb, A, B), p in dist.items() if sa == a and sb == b) / mass


class TestAcceptanceRule:
    def test_default_rule_in_range(self):
        singlet_weight_rule()  # validates all 16 combinations on construction

    @pytest.mark.parametrize("field,value,message", [
        # (0.0,) raised a bare IndexError and "01" a TypeError; (True, 0.0)
        # ran as (1.0, 0.0), and a nan angle failed only as a nan weight.
        ("angles_a", (0.0,), "angles_a must list exactly two angles"),
        ("angles_b", "01", "angles_b must list exactly two angles"),
        ("angles_a", (True, 0.0), r"angles_a\[0\] must be a real number"),
        ("angles_b", (0.0, math.nan), r"angles_b\[1\] must be finite"),
    ])
    def test_singlet_rule_checks_its_angle_pairs(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            singlet_weight_rule(**{field: value})

    def test_singlet_rule_takes_any_angle_sequence(self):
        want = singlet_weight_rule((0.1, 2.0), (1.0, -3.0)).table.tolist()
        assert singlet_weight_rule([0.1, 2.0], np.array([1.0, -3.0])).table.tolist() == want

    def test_rule_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceRule("bad", lambda a, b, A, B: 1.5)
        with pytest.raises(ValueError):
            constant_rule(-0.1)

    @pytest.mark.parametrize("value", ["x", None, True, np.True_, 0.5j])
    def test_non_real_weight_rejected(self, value):
        with pytest.raises(ValueError, match=r"w\(0,0,1,1\) must be a real number"):
            constant_rule(value)

    def test_non_finite_weight_names_the_cell(self):
        # The first cell in CELLS order with a = 1 and A = -1.
        with pytest.raises(ValueError, match=r"rule 'nan-cell': w\(1,0,-1,1\) must be finite"):
            AcceptanceRule("nan-cell", lambda a, b, A, B: math.nan if a and A == -1 else 0.5)

    def test_default_rule_reproduces_singlet_distribution(self):
        rule = singlet_weight_rule()
        dist = oracle_accepted_distribution(rule)
        for (a, b, A, B), p in dist.items():
            expected = (
                1.0 - A * B * math.cos(DEFAULT_ANGLES_A[a] - DEFAULT_ANGLES_B[b])
            ) / 16.0
            assert abs(p - expected) < 1e-12

    def test_default_rule_chsh_is_tsirelson(self):
        rule = singlet_weight_rule()
        s = (
            oracle_accepted_correlator(rule, 0, 0)
            + oracle_accepted_correlator(rule, 0, 1)
            + oracle_accepted_correlator(rule, 1, 0)
            - oracle_accepted_correlator(rule, 1, 1)
        )
        assert abs(s - 2.0 * math.sqrt(2.0)) < 1e-12


class TestToyRuns:
    def test_determinism(self):
        assert_same_table(run_toy_collider(200, 5), run_toy_collider(200, 5))
        assert_same_table(run_toy_source_variant(200, 5), run_toy_source_variant(200, 5))

    def test_single_trial(self):
        trials = run_toy_collider(1, 0)
        assert len(trials) == 1 and trials["trial_id"].tolist() == [0]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            run_toy_collider(0, 0)

    def test_rule_runs_the_weights_it_checked(self):
        # The weights were checked once and read again for each run: this
        # rule passed as 0.5 and then accepted every trial at 7.0.
        calls = itertools.count()
        rule = AcceptanceRule("drifting", lambda a, b, A, B: 0.5 if next(calls) < 16 else 7.0)
        assert rule.table.tolist() == [0.5] * 16 and not rule.table.flags.writeable
        for runner in (run_toy_collider, run_toy_source_variant):
            assert_same_table(runner(1000, 3, rule), runner(1000, 3, constant_rule(0.5)))

    @pytest.mark.parametrize("runner", [run_toy_collider, run_toy_source_variant])
    @pytest.mark.parametrize("rule", ["x", "", 0, singlet_weight_rule().weight])
    def test_rule_must_be_an_acceptance_rule(self, runner, rule):
        with pytest.raises(ValueError, match="rule must be an AcceptanceRule"):
            runner(10, 0, rule)

    def test_collider_has_no_lambda(self):
        columns = run_toy_collider(100, 2).columns
        assert "lambda_A" not in columns and "lambda_B" not in columns

    def test_source_variant_lambda_equals_outcomes(self):
        trials = run_toy_source_variant(500, 3)
        assert np.array_equal(trials["lambda_A"], trials["A"])
        assert np.array_equal(trials["lambda_B"], trials["B"])

    def test_variants_share_sampling(self):
        c = run_toy_collider(300, 9)
        s = run_toy_source_variant(300, 9)
        for name in ("trial_id", "a", "b", "A", "B", "accepted"):
            assert np.array_equal(c[name], s[name]), name

    def test_accept_all_keeps_everything(self):
        trials = run_toy_collider(400, 1, constant_rule(1.0))
        assert trials["accepted"].all()

    def test_accept_none_keeps_nothing(self):
        trials = run_toy_collider(400, 1, constant_rule(0.0))
        assert not trials["accepted"].any()

    def test_generator_marginals(self):
        n = 50_000
        trials = run_toy_collider(n, 13)
        tol = 5 * math.sqrt(0.25 / n)
        assert abs(np.mean(trials["A"] == 1) - 0.5) < tol
        assert abs(np.mean(trials["B"] == 1) - 0.5) < tol
        assert abs(np.mean(trials["a"]) - 0.5) < tol
        assert abs(np.mean(trials["b"]) - 0.5) < tol

    def test_accepted_frequencies_match_oracle(self):
        rule = singlet_weight_rule()
        n = 100_000
        kept = accepted(run_toy_collider(n, 29, rule))
        dist = oracle_accepted_distribution(rule)
        counts = Counter(zip(*(kept[name].tolist() for name in ("a", "b", "A", "B"))))
        m = len(kept)
        for key, p in dist.items():
            freq = counts.get(key, 0) / m
            se = math.sqrt(p * (1 - p) / m)
            assert abs(freq - p) < 5 * se + 1e-9

    def test_no_selection_gives_no_correlation(self):
        # With w = 1 the accepted ensemble is the full ensemble and every
        # correlator is 0 up to sampling error, so S stays near 0.
        trials = run_toy_collider(20_000, 33, constant_rule(1.0))
        result = chsh(correlators(accepted(trials)))
        assert abs(result.S) < 5 * result.stderr


class TestRps:
    def test_determinism(self):
        assert_same_table(run_rps(200, 4), run_rps(200, 4))

    def test_verdict_rules(self):
        assert rps_verdict(RpsChoice.ROCK, RpsChoice.SCISSORS) is RpsVerdict.ALICE_WINS
        assert rps_verdict(RpsChoice.SCISSORS, RpsChoice.ROCK) is RpsVerdict.BOB_WINS
        assert rps_verdict(RpsChoice.PAPER, RpsChoice.PAPER) is RpsVerdict.DRAW

    def test_joint_choice_frequency(self):
        n = 45_000
        trials = run_rps(n, 8)
        rock = RPS_CHOICES.index(RpsChoice.ROCK)
        freq = np.mean((trials["alice"] == rock) & (trials["bob"] == rock))
        p = 1.0 / 9.0
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)

    def test_conditional_rules(self):
        trials = run_rps(5_000, 15)
        alice, bob, verdict = trials["alice"], trials["bob"], trials["verdict"]
        draw = verdict == RPS_VERDICTS.index(RpsVerdict.DRAW)
        assert np.array_equal(alice[draw], bob[draw])
        rock_wins = (verdict == RPS_VERDICTS.index(RpsVerdict.ALICE_WINS)) & (
            alice == RPS_CHOICES.index(RpsChoice.ROCK)
        )
        assert np.all(bob[rock_wins] == RPS_CHOICES.index(RpsChoice.SCISSORS))
