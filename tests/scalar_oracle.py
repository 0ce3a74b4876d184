"""Scalar reference loops for the array runners.

These are the per-trial loops the runners used before they sampled whole
ensembles at once: one rekeyed Philox stream and one collapse call per
measurement for every trial. They are kept here, unchanged, as the oracle
the array paths must match record for record.
"""

from __future__ import annotations

import numpy as np

from swapsim.analysis import TeleportReport, mutual_information_bits
from swapsim.engine import (
    A_QUBIT,
    B_QUBIT,
    BSM_PAIR,
    Ensemble,
    ExperimentConfig,
    TrialRecord,
    _TrialStream,
    config_digest,
    measurement_order,
)
from swapsim.geometry import EventLabel
from swapsim.qcore import BellOutcome, _bsm_step, _spin_step, make_two_singlets, singlet
from swapsim.toys import _CHOICES, AcceptanceRule, RpsTrial, ToyTrial, rps_verdict


def _draw_bit(rng: np.random.Generator) -> int:
    return 0 if rng.random() < 0.5 else 1


def run_trials(config: ExperimentConfig) -> Ensemble:
    """Run the configured number of trials; deterministic given (seed, config).

    Per-trial draw order: setting a, setting b, then one uniform per executed
    measurement in geometry time order (the C draw is skipped when the C
    measurement is disabled).
    """
    order = measurement_order(config.geometry)
    herald_set = config.herald_set()
    initial = make_two_singlets().amplitudes
    stream = _TrialStream()
    records = []
    for trial_id in range(config.n_trials):
        rng = stream.reset(config.seed, trial_id)
        a = _draw_bit(rng)
        b = _draw_bit(rng)
        amps = initial
        out_a = out_b = 0
        c_outcome: BellOutcome | None = None
        for label in order:
            if label is EventLabel.A:
                out_a, amps = _spin_step(amps, 4, A_QUBIT, config.angles_a[a], rng.random())
            elif label is EventLabel.B:
                out_b, amps = _spin_step(amps, 4, B_QUBIT, config.angles_b[b], rng.random())
            elif config.c_enabled:
                c_outcome, amps = _bsm_step(
                    amps, 4, BSM_PAIR[0], BSM_PAIR[1], rng.random(),
                    config.bsm_partial, True,
                )
        heralded = c_outcome is not None and c_outcome in herald_set
        records.append(TrialRecord(trial_id, a, b, out_a, out_b, c_outcome, heralded))
    return Ensemble(tuple(records), config_digest(config), config.seed)


def _run_toy(n: int, seed: int, rule: AcceptanceRule, record_lambda: bool) -> list[ToyTrial]:
    if n < 1:
        raise ValueError("n must be >= 1")
    weight = rule.weight
    stream = _TrialStream()
    trials = []
    for trial_id in range(n):
        rng = stream.reset(seed, trial_id)
        u = rng.random(5)
        # Declared outcome order per draw: 0 before 1 for settings, +1
        # before -1 for outcomes.
        a = 0 if u[0] < 0.5 else 1
        b = 0 if u[1] < 0.5 else 1
        A = 1 if u[2] < 0.5 else -1
        B = 1 if u[3] < 0.5 else -1
        accepted = u[4] < weight(a, b, A, B)
        lam = (A, B) if record_lambda else None
        trials.append(ToyTrial(trial_id, a, b, A, B, lam, bool(accepted)))
    return trials


def run_rps(n: int, seed: int) -> list[RpsTrial]:
    """Independent uniform choices plus the game verdict; no physics, pure
    selection-bias fodder."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = _TrialStream()
    trials = []
    for trial_id in range(n):
        rng = stream.reset(seed, trial_id)
        u = rng.random(2)
        alice = _CHOICES[int(u[0] * 3.0)]
        bob = _CHOICES[int(u[1] * 3.0)]
        trials.append(RpsTrial(trial_id, alice, bob, rps_verdict(alice, bob)))
    return trials


def teleport_channel_demo(controlled: bool, n: int, seed: int) -> TeleportReport:
    """Teleport a classical bit through a Bell-state measurement with no
    outcome-dependent correction.

    The input bit rides qubit 0, the resource singlet sits on (1, 2), and
    the joint measurement hits (0, 1). Fixing the joint outcome (controlled
    mode post-selects the psi-minus result) opens the channel; averaging
    over uncorrected outcomes leaves the output maximally mixed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    res = singlet().amplitudes
    inputs = [
        np.kron(np.array(basis, dtype=np.complex128), res)
        for basis in ((1.0, 0.0), (0.0, 1.0))
    ]
    counts = np.zeros((2, 2), dtype=np.int64)
    stream = _TrialStream()
    for trial_id in range(n):
        rng = stream.reset(seed, trial_id)
        x = 0 if rng.random() < 0.5 else 1
        outcome, amps = _bsm_step(inputs[x], 3, 0, 1, rng.random(), False, True)
        if controlled and outcome is not BellOutcome.PSI_MINUS:
            continue
        spin, _ = _spin_step(amps, 3, 2, 0.0, rng.random())
        counts[x, 0 if spin == 1 else 1] += 1
    kept = int(counts.sum())
    p_match = float((counts[0, 0] + counts[1, 1]) / kept) if kept else None
    mi = mutual_information_bits(counts) if kept else 0.0
    channel: dict[tuple[int, int], float | None] = {}
    for x in (0, 1):
        row = counts[x].sum()
        for y in (0, 1):
            channel[(x, y)] = float(counts[x, y] / row) if row else None
    return TeleportReport(controlled, n, kept, p_match, mi, channel)
