"""Distribution gate: sampled trials against the exact joint table.

The hash gate pins the sampler's bytes, not that they follow the quantum
distribution. Here each executed plan (a measurement order, and a full or
partial BSM when C runs) samples 2e5 trials at seed 11 under two angle
sets, and its (cell, c_outcome) counts are checked against the rows of
``engine.exact_leaf_rows``:

- every trial lands on a row of positive probability;
- a G-test (Read and Cressie 1988) of the counts against the exact rows
  passes at ALPHA per config, with the chi-squared threshold at
  (positive rows - 1) degrees of freedom;
- each setting's frequency is within a two-sided binomial z bound of 1/2
  at the same ALPHA.

The joint G-test spreads a small defect over up to 63 degrees of freedom,
so low-dof checks of the same trials follow, each within a two-sided z
bound at ALPHA:

- each wing's outcome is +1 with probability 1/2 given its setting;
- each setting pair's heralded correlator is that of
  ``analysis.exact_heralded_correlators``;
- each setting pair's correlator given each C outcome (or over all trials
  with C off) is that of the exact rows, which pools every trial.

The toys and rock-paper-scissors get the same G-test against their exact
tables: P(cell, accepted) = w/16 and P(cell, rejected) = (1 - w)/16 under
an acceptance rule's weight w, and 1/9 per pair of choices, whose verdict
the choices fix.

The G statistic of each G-test that ``simulate``, ``toy`` and ``rps`` run
is held to its own limit law: noncentral chi-squared at the test's degrees
of freedom with noncentrality 2 n I, I the exact conditional mutual
information of the hypothesis (central where I is 0), within two-sided
bounds at ALPHA; a test with no degree of freedom reads G = 0 exactly.

The teleport demo is held to its exact channel from
``qcore.exact_branch_enumeration``: its kept count to n P(kept) and each
P(y | x, kept) to the exact value, within a two-sided z bound at ALPHA, or
exactly where the exact value is 0 or 1.

The seeds are fixed: a failure is a finding about the sampler, not a reason
to draw again.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import chdtri, ndtri
from scipy.stats import chi2, ncx2

from swapsim import analysis, engine, toys
from swapsim.engine import DEFAULT_ANGLES_A, DEFAULT_ANGLES_B, ExperimentConfig
from swapsim.qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    StateVector,
    exact_branch_enumeration,
    singlet,
)

SEED = 11
N_TRIALS = 200_000
ALPHA = 1e-6
Z = float(ndtri(1.0 - ALPHA / 2.0))  # the two-sided z bound at ALPHA

# One (geometry, bsm_partial, c_enabled) config per executed plan: C first
# or last, full or partial, and the one plan with C off.
PLANS = [
    ("early", False, True),
    ("early", True, True),
    ("delayed", False, True),
    ("delayed", True, True),
    ("delayed", False, False),
]
ANGLE_SETS = [(DEFAULT_ANGLES_A, DEFAULT_ANGLES_B), ((0.3, 1.9), (2.2, -0.7))]


# A sampler defect that moves one angle by 0.02 rad moves the correlators it
# enters by about 0.014: about 2.2 standard errors per setting pair and C
# outcome at 2e5 trials, and 5 at 1e6. So one plan also runs at 1e6 trials.
CASES = [(plan, angles, N_TRIALS) for plan in PLANS for angles in ANGLE_SETS]
CASES.append((("delayed", False, True), ANGLE_SETS[0], 1_000_000))


@pytest.fixture(scope="module", params=CASES, ids=lambda case: (
    f"{'-'.join(map(str, case[0]))}-angles{ANGLE_SETS.index(case[1])}"
    + ("" if case[2] == N_TRIALS else f"-n{case[2]}")))
def sampled(request):
    """A config, its trials, its exact rows, and each trial's row index."""
    (geometry, partial, c_enabled), (angles_a, angles_b), n = request.param
    config = ExperimentConfig(geometry, n, SEED, angles_a, angles_b,
                              c_enabled=c_enabled, bsm_partial=partial)
    trials = engine.run_trials(config)
    cell, c_outcome, prob = engine.exact_leaf_rows(config)
    # One row per (cell, c_outcome) key; -1 marks a key the table lacks.
    row_of = np.full((len(engine.CELLS), len(engine.OUTCOMES) + 1), -1)
    row_of[cell, c_outcome + 1] = np.arange(len(cell))
    assert (row_of >= 0).sum() == len(cell)
    a, b, A, B = (trials[name].astype(np.intp) for name in ("a", "b", "A", "B"))
    trial_cell = 8 * a + 4 * b + 2 * (A == -1) + (B == -1)
    rows = row_of[trial_cell, trials["c_outcome"] + 1]
    return config, trials, (cell, c_outcome, prob), rows


def _g_test(counts: np.ndarray, prob: np.ndarray) -> tuple[float, float]:
    """G of category counts against their exact probabilities, and its
    threshold at ALPHA with (positive categories - 1) degrees of freedom."""
    seen = counts > 0
    g = 2.0 * float(np.sum(counts[seen] * np.log(counts[seen] / (counts.sum() * prob[seen]))))
    return g, float(chdtri(int((prob > 0.0).sum()) - 1, ALPHA))


def _within_z(mean: float, expected: float, variance: float, n: int) -> bool:
    return abs(mean - expected) < Z * math.sqrt(variance / n)


def test_no_trial_lands_on_a_zero_probability_row(sampled):
    _config, _trials, (_cell, _c_outcome, prob), rows = sampled
    assert (rows >= 0).all()
    assert (prob[rows] > 0.0).all()


def test_joint_counts_pass_a_g_test_against_the_exact_rows(sampled):
    _config, _trials, (_cell, _c_outcome, prob), rows = sampled
    g, threshold = _g_test(np.bincount(rows, minlength=len(prob)), prob)
    assert g < threshold


@pytest.mark.parametrize("setting", ["a", "b"])
def test_setting_frequency_is_one_half(sampled, setting):
    # A trial's settings are its first two draws, whatever the config, so
    # every config repeats one sample here.
    _config, trials, _exact, _rows = sampled
    assert _within_z(trials[setting].mean(), 0.5, 0.25, len(trials))


@pytest.mark.parametrize("wing,setting", [("A", "a"), ("B", "b")])
def test_wing_outcome_is_fair_given_its_setting(sampled, wing, setting):
    _config, trials, _exact, _rows = sampled
    for value in (0, 1):
        outcomes = trials[wing][trials[setting] == value]
        assert _within_z((outcomes == 1).mean(), 0.5, 0.25, len(outcomes)), value


def _correlator(trials, keep: np.ndarray, a: int, b: int) -> tuple[float, int]:
    """The mean of A*B over the kept trials of setting pair (a, b), and their count."""
    keep = keep & (trials["a"] == a) & (trials["b"] == b)
    products = trials["A"][keep].astype(float) * trials["B"][keep]
    return float(products.mean()), len(products)


def test_heralded_correlators_match_exact(sampled):
    config, trials, _exact, _rows = sampled
    if not config.c_enabled:
        assert not trials["heralded"].any()
        return
    exact = analysis.exact_heralded_correlators(config).values
    for a, b in analysis.SETTING_PAIRS:
        e, n = _correlator(trials, trials["heralded"], a, b)
        assert _within_z(e, exact[(a, b)], 1.0 - exact[(a, b)] ** 2, n), (a, b)


def test_correlators_given_each_c_outcome_match_exact_rows(sampled):
    # With C on, A*B given a C outcome carries the settings' angles; with C
    # off, over all trials. Each trial counts in one of these checks, and
    # their squared z scores add to a chi-squared statistic, one degree of
    # freedom per check.
    _config, trials, (cell, c_outcome, prob), _rows = sampled
    cell_a, cell_b, cell_A, cell_B = (np.array(column)[cell] for column in zip(*engine.CELLS))
    scores = []
    for c in np.unique(c_outcome):
        for a, b in analysis.SETTING_PAIRS:
            exact = (c_outcome == c) & (cell_a == a) & (cell_b == b)
            want = float((cell_A * cell_B * prob)[exact].sum() / prob[exact].sum())
            e, n = _correlator(trials, trials["c_outcome"] == c, a, b)
            assert _within_z(e, want, 1.0 - want**2, n), (c, a, b)
            scores.append((e - want) ** 2 * n / (1.0 - want**2))
    assert sum(scores) < float(chdtri(len(scores), ALPHA))


@pytest.mark.parametrize("runner", [toys.run_toy_collider, toys.run_toy_source_variant])
@pytest.mark.parametrize("angles", ANGLE_SETS, ids=["angles0", "angles1"])
def test_toy_counts_pass_a_g_test_against_the_exact_toy_table(runner, angles):
    rule = toys.singlet_weight_rule(*angles)
    trials = runner(N_TRIALS, SEED, rule)
    a, b, A, B = (trials[name].astype(np.intp) for name in ("a", "b", "A", "B"))
    cell = 8 * a + 4 * b + 2 * (A == -1) + (B == -1)
    # P(cell, rejected) = (1 - w)/16 at 2*cell, P(cell, accepted) = w/16 at 2*cell + 1.
    prob = np.column_stack([1.0 - rule.table, rule.table]).ravel() / 16.0
    counts = np.bincount(2 * cell + trials["accepted"], minlength=len(prob))
    g, threshold = _g_test(counts, prob)
    assert g < threshold
    if runner is toys.run_toy_source_variant:
        assert (trials["lambda_A"] == trials["A"]).all() and (trials["lambda_B"] == trials["B"]).all()


def test_rps_counts_pass_a_g_test_against_one_ninth_per_pair():
    trials = toys.run_rps(N_TRIALS, SEED)
    alice, bob = (trials[name].astype(np.intp) for name in ("alice", "bob"))
    g, threshold = _g_test(np.bincount(3 * alice + bob, minlength=9), np.full(9, 1.0 / 9.0))
    assert g < threshold
    # Choices rock, paper, scissors: each beats the one before it, cyclically.
    assert [choice.value for choice in toys.RPS_CHOICES] == ["rock", "paper", "scissors"]
    want = np.array(["Draw", "AliceWins", "BobWins"])[(alice - bob) % 3]
    names = np.array([verdict.value for verdict in toys.RPS_VERDICTS])
    assert (names[trials["verdict"]] == want).all()


def _within_z_or_equal(sampled: float, exact: float, n: float) -> bool:
    """Equal where ``exact`` is 0 or 1, else within the z bound for n draws."""
    if exact in (0.0, 1.0):
        return sampled == exact
    return _within_z(sampled, exact, exact * (1.0 - exact), n)


@pytest.mark.parametrize("controlled", [True, False], ids=["controlled", "uncontrolled"])
def test_teleport_matches_its_exact_channel(controlled):
    # The demo's channel: input bit x on qubit 0, the singlet on (1, 2), a
    # BSM on (0, 1), then the output spin along z (+1 reads as bit 0).
    # Controlled mode keeps the psi-minus outcomes, uncontrolled keeps all.
    plan = (BsmStep(0, 1), SpinMeasurement(2, 0.0))
    kept = {BellOutcome.PSI_MINUS} if controlled else set(BellOutcome)
    joint = np.zeros((2, 2))  # P(kept, y | x)
    for x, basis in enumerate(np.eye(2, dtype=np.complex128)):
        start = StateVector(3, np.kron(basis, singlet().amplitudes))
        for (bell, spin), p in exact_branch_enumeration(start, plan).items():
            if bell in kept:
                joint[x, (1 - spin) // 2] += p
    # Rounded to 12 places: the walk's float error (about 1e-16, and 1e-33
    # on branches that are exactly 0) must not turn a 0 or 1 into a z bound.
    p_kept = round(float(joint.sum()) / 2.0, 12)  # the input bit is fair
    report = analysis.teleport_channel_demo(controlled, N_TRIALS, SEED)
    assert _within_z_or_equal(report.n_kept / N_TRIALS, p_kept, N_TRIALS)
    for x in (0, 1):
        kept_x = float(joint[x].sum())
        for y in (0, 1):
            want = round(float(joint[x, y]) / kept_x, 12)
            # The kept trials of input x number about n P(kept | x) / 2.
            assert _within_z_or_equal(report.channel[(x, y)], want, N_TRIALS * kept_x / 2.0), (
                x, y)


# simulate's G-tests: (hypothesis, target, given, versus, on the heralded trials only).
SIMULATE_GTESTS = [
    ("no-signaling-A", "A", "a", "b", False),
    ("no-signaling-B", "B", "b", "a", False),
    ("LC_ps-A", "A", "a", "bB", True),
    ("LC_ps-B", "B", "b", "aA", True),
]


def _exact_cmi(weights: np.ndarray, target: str, given: str, versus: str,
               axes: str = "abAB") -> float:
    """I(target; versus | given) in nats under the weights, normalised, an
    array with one axis per letter of ``axes`` (by default a, b, A, B, as
    CELLS orders them); each argument names axes by letter."""
    p = weights / weights.sum()

    def marginal(names: str) -> np.ndarray:
        return p.sum(axis=tuple(i for i, name in enumerate(axes) if name not in names),
                     keepdims=True)

    joint = marginal(target + given + versus)
    ratio = joint * marginal(given) / (marginal(given + target) * marginal(given + versus))
    return float(np.sum(joint * np.log(np.where(joint > 0.0, ratio, 1.0))))


def _assert_follows_its_law(result: analysis.CITestResult, cmi: float) -> None:
    """G within the two-sided ALPHA bounds of the noncentral chi-squared at
    the test's dof and noncentrality 2 n I (central where I is 0); with no
    degree of freedom, G is 0 exactly."""
    if result.dof == 0:
        assert result.divergence == 0.0 and abs(cmi) < 1e-12, (cmi, result)
        return
    law = chi2(result.dof) if abs(cmi) < 1e-12 else ncx2(result.dof, 2.0 * result.n * cmi)
    assert law.ppf(ALPHA / 2.0) < result.divergence < law.isf(ALPHA / 2.0), (cmi, result)


@functools.cache
def _simulate_gtests(geometry: str, seed: int) -> tuple[ExperimentConfig, dict]:
    """A default config of 2e5 trials and its G-test results by hypothesis."""
    config = ExperimentConfig(geometry, N_TRIALS, seed)
    trials = engine.run_trials(config)
    results = analysis.no_signaling_tests(trials) + analysis.local_causality_tests(
        engine.post_select(trials), post_selected=True)
    return config, {result.hypothesis: result for result in results}


@pytest.mark.parametrize("hypothesis, target, given, versus, heralded", SIMULATE_GTESTS,
                         ids=[case[0] for case in SIMULATE_GTESTS])
@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("geometry", engine.GEOMETRY_NAMES)
def test_g_statistic_follows_its_noncentral_chi2(geometry, seed, hypothesis, target, given,
                                                 versus, heralded):
    config, results = _simulate_gtests(geometry, seed)
    cell, c_outcome, prob = engine.exact_leaf_rows(config)
    if heralded:
        keep = engine.HERALD_MASKS[config.herald][c_outcome]
        cell, prob = cell[keep], prob[keep]
    weights = np.bincount(cell, prob, minlength=len(engine.CELLS)).reshape(2, 2, 2, 2)
    _assert_follows_its_law(results[hypothesis], _exact_cmi(weights, target, given, versus))


# The toy command's G-tests: (variant, hypothesis, target, given, versus, on
# the accepted trials only). The source variant's lambda pair is its (A, B),
# given in its LC_ps tests, where it fixes the target: 0 dof.
TOY_GTESTS = [
    ("collider", "LC_ps-A", "A", "a", "bB", True),
    ("collider", "LC_ps-B", "B", "b", "aA", True),
    ("collider", "LC-A", "A", "a", "bB", False),
    ("collider", "LC-B", "B", "b", "aA", False),
    ("source", "LC_ps-A", "A", "aAB", "bB", True),
    ("source", "LC_ps-B", "B", "bAB", "aA", True),
    ("source", "LC-A", "A", "a", "bB", False),
    ("source", "LC-B", "B", "b", "aA", False),
    ("source", "SI_ps", "AB", "", "ab", True),
    ("source", "SI", "AB", "", "ab", False),
]


@functools.cache
def _toy_gtests(variant: str, seed: int) -> dict:
    """The toy command's G-test results on 2e5 trials, by hypothesis."""
    source = variant == "source"
    runner = toys.run_toy_source_variant if source else toys.run_toy_collider
    trials = runner(N_TRIALS, seed, toys.singlet_weight_rule())
    kept = toys.accepted(trials)
    results = analysis.local_causality_tests(kept, post_selected=True, include_lambda=source)
    results += analysis.local_causality_tests(trials, post_selected=False)
    if source:
        results += [analysis.statistical_independence_test(kept, post_selected=True),
                    analysis.statistical_independence_test(trials, post_selected=False)]
    return {result.hypothesis: result for result in results}


@pytest.mark.parametrize("variant, hypothesis, target, given, versus, accepted", TOY_GTESTS,
                         ids=[f"{case[0]}-{case[1]}" for case in TOY_GTESTS])
@pytest.mark.parametrize("seed", [5, 6])
def test_toy_g_statistic_follows_its_noncentral_chi2(seed, variant, hypothesis, target, given,
                                                     versus, accepted):
    # Accepted, a cell's weight is its acceptance weight; over all trials, 1.
    rule = toys.singlet_weight_rule()
    weights = (rule.table if accepted else np.ones(len(engine.CELLS))).reshape(2, 2, 2, 2)
    _assert_follows_its_law(_toy_gtests(variant, seed)[hypothesis],
                            _exact_cmi(weights, target, given, versus))


@pytest.mark.parametrize("verdict", [None, *toys.RPS_VERDICTS],
                         ids=lambda verdict: "unconditional" if verdict is None else verdict.value)
@pytest.mark.parametrize("seed", [5, 6])
def test_rps_g_statistic_follows_its_noncentral_chi2(seed, verdict):
    # alice against bob, over all trials or given a verdict, which leaves
    # one bob per alice: I is 0, or ln 3.
    trials = toys.run_rps(N_TRIALS, seed)
    weights = np.ones((3, 3))
    if verdict is not None:
        trials = trials.select(trials["verdict"] == toys.RPS_VERDICTS.index(verdict))
        weights = np.array([[toys.rps_verdict(x, y) is verdict for y in toys.RPS_CHOICES]
                            for x in toys.RPS_CHOICES], dtype=float)
    cmi = _exact_cmi(weights, "x", "", "y", axes="xy")  # x alice, y bob
    assert abs(cmi - (0.0 if verdict is None else math.log(3.0))) < 1e-15
    result = analysis.test_conditional_independence(trials, "alice", (), ("bob",))
    _assert_follows_its_law(result, cmi)
