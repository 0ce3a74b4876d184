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

The seed is fixed: a failure is a finding about the sampler, not a reason
to draw again.
"""

import math

import numpy as np
import pytest
from scipy.special import chdtri, ndtri

from swapsim import engine
from swapsim.engine import DEFAULT_ANGLES_A, DEFAULT_ANGLES_B, ExperimentConfig

SEED = 11
N_TRIALS = 200_000
ALPHA = 1e-6

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


@pytest.fixture(scope="module", params=[(plan, angles) for plan in PLANS for angles in ANGLE_SETS],
                ids=lambda param: f"{'-'.join(map(str, param[0]))}-angles{ANGLE_SETS.index(param[1])}")
def sampled(request):
    """A config's trials, its exact rows, and each trial's row index."""
    (geometry, partial, c_enabled), (angles_a, angles_b) = request.param
    config = ExperimentConfig(geometry, N_TRIALS, SEED, angles_a, angles_b,
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
    return trials, prob, rows


def test_no_trial_lands_on_a_zero_probability_row(sampled):
    _trials, prob, rows = sampled
    assert (rows >= 0).all()
    assert (prob[rows] > 0.0).all()


def test_joint_counts_pass_a_g_test_against_the_exact_rows(sampled):
    _trials, prob, rows = sampled
    counts = np.bincount(rows, minlength=len(prob))
    seen = counts > 0
    g = 2.0 * float(np.sum(counts[seen] * np.log(counts[seen] / (N_TRIALS * prob[seen]))))
    threshold = float(chdtri(int((prob > 0.0).sum()) - 1, ALPHA))
    assert g < threshold


@pytest.mark.parametrize("setting", ["a", "b"])
def test_setting_frequency_is_one_half(sampled, setting):
    # A trial's settings are its first two draws, whatever the config, so
    # every config repeats one sample here.
    trials, _prob, _rows = sampled
    z = float(ndtri(1.0 - ALPHA / 2.0))
    assert abs(trials[setting].mean() - 0.5) < z * math.sqrt(0.25 / N_TRIALS)
