"""Scalar reference loops for the array code.

These are the per-trial loops swapsim ran before it sampled and analysed
whole ensembles as column tables: one rekeyed Philox stream and one collapse
call per measurement for every trial, one record object per trial, and
record-by-record correlators, G-test counting and CSV writers. They are kept
here, unchanged apart from taking plain record sequences, as the oracle the
array paths must match. The helpers at the end turn records into tables and
compare tables column by column.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.stats import chi2

from swapsim.analysis import (
    DEFAULT_ALPHA,
    DEFAULT_MIN_CELL,
    SETTING_PAIRS,
    CITestResult,
    CorrelatorTable,
    TeleportReport,
    Verdict,
    _as_names,
    mutual_information_bits,
)
from swapsim.engine import (
    A_QUBIT,
    B_QUBIT,
    BSM_PAIR,
    OUTCOMES,
    ExperimentConfig,
    Trials,
    _TrialStream,
    measurement_order,
)
from swapsim.geometry import EventLabel
from swapsim.io import ENSEMBLE_HEADER, RPS_HEADER, TOY_HEADER, outcome_token
from swapsim.qcore import BellOutcome, _bsm_step, _spin_step, make_two_singlets, singlet
from swapsim.toys import (
    RPS_CHOICES,
    RPS_VERDICTS,
    AcceptanceRule,
    RpsChoice,
    RpsVerdict,
    rps_verdict,
)

_CHOICES = RPS_CHOICES


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    a: int
    b: int
    A: int
    B: int
    c_outcome: BellOutcome | None  # None when the C measurement was disabled
    heralded: bool


@dataclass(frozen=True)
class ToyTrial:
    trial_id: int
    a: int
    b: int
    A: int
    B: int
    lam: tuple[int, int] | None  # source-variant hidden pair, identical to (A, B)
    accepted: bool


@dataclass(frozen=True)
class RpsTrial:
    trial_id: int
    alice: RpsChoice
    bob: RpsChoice
    verdict: RpsVerdict


def _draw_bit(rng: np.random.Generator) -> int:
    return 0 if rng.random() < 0.5 else 1


def run_trials(config: ExperimentConfig) -> tuple[TrialRecord, ...]:
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
    return tuple(records)


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


_FIELD_ALIASES = {"lambda": "lam"}


def _value(record, name: str):
    return getattr(record, _FIELD_ALIASES.get(name, name))


def _values(record, names: tuple[str, ...]):
    if len(names) == 1:
        return _value(record, names[0])
    return tuple(_value(record, n) for n in names)


def correlators(records: Sequence) -> CorrelatorTable:
    sums: dict[tuple[int, int], float] = {cell: 0.0 for cell in SETTING_PAIRS}
    counts: dict[tuple[int, int], int] = {cell: 0 for cell in SETTING_PAIRS}
    for r in records:
        cell = (r.a, r.b)
        sums[cell] += r.A * r.B
        counts[cell] += 1
    values = {
        cell: (sums[cell] / counts[cell] if counts[cell] > 0 else None)
        for cell in SETTING_PAIRS
    }
    return CorrelatorTable(values, counts)


def test_conditional_independence(
    records: Sequence,
    target,
    given=(),
    versus=(),
    *,
    hypothesis: str | None = None,
    alpha: float = DEFAULT_ALPHA,
    min_cell: int = DEFAULT_MIN_CELL,
) -> CITestResult:
    """G-test of target independent of versus, given the conditioning set.

    Stratifies records by the given-variables, accumulates the
    likelihood-ratio statistic of the target-by-versus contingency table in
    each stratum, and compares against the chi-squared critical value at
    significance alpha with the summed degrees of freedom. Inconclusive when
    any populated conditioning cell (a given-versus combination) holds fewer
    than min_cell samples, or when there are no records.
    """
    target_names = _as_names(target)
    given_names = _as_names(given) if given else ()
    versus_names = _as_names(versus)
    if not target_names or not versus_names:
        raise ValueError("target and versus must name at least one variable each")
    if hypothesis is None:
        g_txt = ",".join(given_names) if given_names else "-"
        hypothesis = f"{','.join(target_names)} _||_ {','.join(versus_names)} | {g_txt}"

    strata: dict = defaultdict(Counter)
    n_total = 0
    for r in records:
        g = _values(r, given_names) if given_names else ()
        t = _values(r, target_names)
        v = _values(r, versus_names)
        strata[g][(t, v)] += 1
        n_total += 1
    if n_total == 0:
        return CITestResult(hypothesis, 0.0, 0.0, Verdict.INCONCLUSIVE, 0, 0)

    g_stat = 0.0
    dof = 0
    sparse = False
    for cells in strata.values():
        row_tot: Counter = Counter()
        col_tot: Counter = Counter()
        n_g = 0
        for (t, v), c in cells.items():
            row_tot[t] += c
            col_tot[v] += c
            n_g += c
        if any(c < min_cell for c in col_tot.values()):
            sparse = True
        for (t, v), c in cells.items():
            expected = row_tot[t] * col_tot[v] / n_g
            g_stat += 2.0 * c * math.log(c / expected)
        dof += (len(row_tot) - 1) * (len(col_tot) - 1)

    threshold = float(chi2.isf(alpha, dof)) if dof > 0 else 0.0
    if sparse:
        verdict = Verdict.INCONCLUSIVE
    elif g_stat > threshold and dof > 0:
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.HOLDS
    return CITestResult(hypothesis, g_stat, threshold, verdict, dof, n_total)


def _bool_token(flag: bool) -> str:
    return "true" if flag else "false"


def write_ensemble_csv(path: str | Path, records: Sequence[TrialRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ENSEMBLE_HEADER)
        for r in records:
            writer.writerow(
                [r.trial_id, r.a, r.b, r.A, r.B, outcome_token(r.c_outcome), _bool_token(r.heralded)]
            )


def write_toy_csv(path: str | Path, trials: Sequence[ToyTrial]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TOY_HEADER)
        for t in trials:
            lam_a, lam_b = ("", "") if t.lam is None else (t.lam[0], t.lam[1])
            writer.writerow(
                [t.trial_id, t.a, t.b, t.A, t.B, lam_a, lam_b, _bool_token(t.accepted)]
            )


def write_rps_csv(path: str | Path, trials: Sequence[RpsTrial]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RPS_HEADER)
        for t in trials:
            writer.writerow([t.trial_id, t.alice.value, t.bob.value, t.verdict.value])


# Records <-> tables, and column-by-column comparison.


def ensemble_table(records: Sequence[TrialRecord]) -> Trials:
    return Trials({
        "trial_id": [r.trial_id for r in records],
        "a": [r.a for r in records],
        "b": [r.b for r in records],
        "A": [r.A for r in records],
        "B": [r.B for r in records],
        "c_outcome": [-1 if r.c_outcome is None else OUTCOMES.index(r.c_outcome)
                      for r in records],
        "heralded": [r.heralded for r in records],
    })


def toy_table(trials: Sequence[ToyTrial]) -> Trials:
    columns = {
        name: [getattr(t, name) for t in trials]
        for name in ("trial_id", "a", "b", "A", "B", "accepted")
    }
    if trials and trials[0].lam is not None:
        columns["lambda_A"] = [t.lam[0] for t in trials]
        columns["lambda_B"] = [t.lam[1] for t in trials]
    return Trials(columns)


def rps_table(trials: Sequence[RpsTrial]) -> Trials:
    return Trials({
        "trial_id": [t.trial_id for t in trials],
        "alice": [RPS_CHOICES.index(t.alice) for t in trials],
        "bob": [RPS_CHOICES.index(t.bob) for t in trials],
        "verdict": [RPS_VERDICTS.index(t.verdict) for t in trials],
    })


def rows(table: Trials) -> list:
    """The table as one record per row, with its columns as attributes."""
    Row = namedtuple("Row", list(table.columns))
    return [Row(*row) for row in zip(*(table[name].tolist() for name in table.columns))]


def assert_same_table(got: Trials, want: Trials) -> None:
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert np.array_equal(got[name], want[name]), name
