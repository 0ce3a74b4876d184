"""Diagnostic battery: CHSH statistics, conditional-independence tests,
the no-difference check, herald-membership fragility, and the
controlled-collider teleportation channel demo.

The conditional-independence machinery is a categorical G-test (a
likelihood-ratio statistic, 2n times a KL divergence) against a chi-squared
threshold; all diagnostics operate on engine.Trials column tables or on the
exact joint table's leaf rows (engine.exact_leaf_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import (
    CELLS,
    ExperimentConfig,
    Trials,
    _exact_rows,
    check_trials,
    counter_uniforms,
    exact_leaf_rows,
)
from .qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    _bool_field,
    _branch_outcomes,
    _int_field,
    _plan_codes,
    _plan_walk,
    _real_field,
    _sample_leaves,
    singlet,
)

# Not called here; bench/tracer.py wraps these names in this module to
# count the collapse and exact-table calls made from it.
from .engine import exact_experiment_distribution  # noqa: F401
from .qcore import _bsm_step, _spin_step  # noqa: F401

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Fixed CHSH combination: S = E(0,0) + E(0,1) + E(1,0) - E(1,1).
CHSH_SIGNS = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
CHSH_COMBINATION = "+,+,+,-"

TSIRELSON = 2.0 * math.sqrt(2.0)

DEFAULT_ALPHA = 1e-3
DEFAULT_MIN_CELL = 50


class Verdict(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


class NdaVerdict(Enum):
    NO_DIFFERENCE = "NoDifference"
    DIFFERENCE = "Difference"


def _column_codes(column: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Codes in [0, radix) of one column of n rows, equal for two rows
    exactly where the column is, and their radix.

    An integer or bool column whose span max - min + 1 is at most n is coded
    as its offset from its minimum, without sorting. Any other column
    (floats, or a wide span such as the trial ids of a selection) is coded
    by rank among its sorted distinct values.
    """
    if column.dtype.kind in "biu":
        lo, hi = column.min(), column.max()
        span = int(hi) - int(lo) + 1
        if span <= n:
            # Casting uint64 values above 2**63 to intp wraps them modulo
            # 2**64; the true offset is below n, so the difference is exact.
            return np.subtract(column, lo, dtype=np.intp), span
    values, inverse = np.unique(column, return_inverse=True)
    return inverse, len(values)


def _mixed_radix(parts, n: int) -> tuple[np.ndarray, int]:
    """One code per row from (codes, radix) parts, equal for two rows exactly
    where every part is, and its radix. A running radix above n is compacted
    to its populated codes, so every radix, and any bincount over the codes,
    stays at most n."""
    code, radix = np.zeros(n, dtype=np.intp), 1
    for part, k in parts:
        code, radix = code * k + part, radix * k
        if radix > n:
            values, code = np.unique(code, return_inverse=True)
            radix = len(values)
    return code, radix


def _as_names(names) -> tuple[str, ...]:
    return (names,) if isinstance(names, str) else tuple(names)


@dataclass
class CorrelatorTable:
    """Per-setting-pair correlators E(a,b) = mean of A*B, with cell counts.

    Empty cells carry count 0 and E None. Exact-mode tables have defined E
    with count 0 (no sampling error).
    """

    values: dict[tuple[int, int], float | None]
    counts: dict[tuple[int, int], int]


def correlators(data: Trials) -> CorrelatorTable:
    pair = 2 * data["a"].astype(np.intp) + data["b"]  # indexes SETTING_PAIRS
    counts = np.bincount(pair, minlength=4).tolist()
    sums = np.bincount(pair, weights=data["A"] * data["B"], minlength=4).tolist()
    values = {
        cell: (total / count if count > 0 else None)
        for cell, total, count in zip(SETTING_PAIRS, sums, counts)
    }
    return CorrelatorTable(values, dict(zip(SETTING_PAIRS, counts)))


@dataclass(frozen=True)
class CHSHResult:
    S: float
    stderr: float
    combination: str = CHSH_COMBINATION

    def exceeds_quantum_bound(self, n_sigma: float = 5.0) -> bool:
        return abs(self.S) > TSIRELSON + n_sigma * self.stderr

    def as_json(self) -> dict:
        return {"S": self.S, "stderr": self.stderr, "combination": self.combination}


def chsh(table: CorrelatorTable) -> CHSHResult:
    """S = E(0,0) + E(0,1) + E(1,0) - E(1,1), with the standard error
    propagated from independent cell means (zero for exact tables)."""
    s = 0.0
    var = 0.0
    for cell in SETTING_PAIRS:
        e = table.values[cell]
        if e is None:
            raise ValueError(f"correlator cell {cell} is empty")
        s += CHSH_SIGNS[cell] * e
        n = table.counts.get(cell, 0)
        if n > 0:
            var += max(1.0 - e * e, 0.0) / n
    return CHSHResult(s, math.sqrt(var))


def _cell_sums(cell: np.ndarray, weights: np.ndarray) -> list[float]:
    """Per-CELLS sums of an exact table's row weights, each added in row
    order as a pass over the table's keys adds them."""
    return np.bincount(cell, weights=weights, minlength=len(CELLS)).tolist()


def exact_heralded_correlators(config: ExperimentConfig) -> CorrelatorTable:
    """Correlators of the event-ready subensemble from the exact joint table."""
    return _heralded_correlators(*_exact_rows(config, config.c_enabled))


def _heralded_correlators(rows, kept: tuple) -> CorrelatorTable:
    """Correlators of exact leaf rows over a herald selection (rows, cells)."""
    heralded = rows[2][kept[0]]
    total = sum(heralded.tolist())
    if total <= 0.0:
        raise ValueError("conditioning event has zero probability")
    # P(a, b, A, B | herald); with any row kept, every cell has kept rows.
    # CELLS holds each setting pair's four cells in a row, A*B = +1, -1, -1, +1.
    cond = iter(_cell_sums(kept[1], heralded / total))
    values = {}
    for pair, (pp, pm, mp, mm) in zip(SETTING_PAIRS, zip(cond, cond, cond, cond)):
        mass = pp + pm + mp + mm
        values[pair] = (pp - pm - mp + mm) / mass if mass > 0.0 else None
    return CorrelatorTable(values, {pair: 0 for pair in SETTING_PAIRS})


def exact_chsh(config: ExperimentConfig) -> CHSHResult:
    return chsh(exact_heralded_correlators(config))


@dataclass(frozen=True)
class CITestResult:
    hypothesis: str
    divergence: float
    threshold: float
    verdict: Verdict
    dof: int = 0
    n: int = 0

    def as_json(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "divergence": self.divergence,
            "threshold": self.threshold,
            "verdict": self.verdict.value,
        }


def test_conditional_independence(
    data,
    target,
    given=(),
    versus=(),
    *,
    hypothesis: str | None = None,
    alpha: float = DEFAULT_ALPHA,
    min_cell: int = DEFAULT_MIN_CELL,
) -> CITestResult:
    """G-test of target independent of versus, given the conditioning set.

    Stratifies trials by the given-variables, accumulates the
    likelihood-ratio statistic of the target-by-versus contingency table in
    each stratum, and compares against the chi-squared critical value at
    significance alpha with the summed degrees of freedom. Inconclusive when
    any populated conditioning cell (a given-versus combination) holds fewer
    than min_cell samples, or when there are no trials. Each variable is a
    column of the table, named in one role only; naming a missing column, a
    column twice, alpha outside (0, 1) or a min_cell that is not an integer
    >= 0 raises ValueError.
    """
    if not 0.0 < _real_field(alpha, "alpha") < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if _int_field(min_cell, "min_cell") < 0:
        raise ValueError(f"min_cell must be >= 0, got {min_cell!r}")
    target_names = _as_names(target)
    given_names = _as_names(given) if given else ()
    versus_names = _as_names(versus)
    if not target_names or not versus_names:
        raise ValueError("target and versus must name at least one variable each")
    named = given_names + target_names + versus_names
    repeated = sorted({name for name in named if named.count(name) > 1})
    if repeated:
        raise ValueError(f"G-test names {repeated} more than once; each variable takes one role")
    if hypothesis is None:
        g_txt = ",".join(given_names) if given_names else "-"
        hypothesis = f"{','.join(target_names)} _||_ {','.join(versus_names)} | {g_txt}"

    missing = [n for n in named if n not in data.columns]
    if missing:
        raise ValueError(f"G-test names {missing}, not among the columns {list(data.columns)}")
    n_total = len(data)
    if n_total == 0:
        return CITestResult(hypothesis, 0.0, 0.0, Verdict.INCONCLUSIVE, 0, 0)

    (g, kg), (t, kt), (v, kv) = (
        _mixed_radix([_column_codes(data[name], n_total) for name in names], n_total)
        for names in (given_names, target_names, versus_names)
    )
    gt, kgt = _mixed_radix([(g, kg), (t, kt)], n_total)
    gv, kgv = _mixed_radix([(g, kg), (v, kv)], n_total)
    cell, kc = _mixed_radix([(gt, kgt), (v, kv)], n_total)
    g_count, gt_count, gv_count, count = (
        np.bincount(code, minlength=k) for code, k in ((g, kg), (gt, kgt), (gv, kgv), (cell, kc))
    )
    # Each populated cell's first row; a cell's stratum, target and versus
    # codes are those of any of its rows.
    first = np.full(kc, n_total)
    np.minimum.at(first, cell, np.arange(n_total))
    cells = np.flatnonzero(count)
    first, count = first[cells], count[cells]
    g_cell, gt_cell, gv_cell = g[first], gt[first], gv[first]
    # Each cell's target total times its versus total over its stratum size.
    expected = gt_count[gt_cell] * gv_count[gv_cell] / g_count[g_cell]
    # Add the cells' terms stratum by stratum in the order the strata first
    # appear, and within a stratum in the order the cells do, as a pass over
    # the rows does: the floating-point sum then matches it bit for bit.
    g_first = np.full(kg, n_total)
    np.minimum.at(g_first, g_cell, first)
    order = np.lexsort((first, g_first[g_cell]))
    g_stat = 0.0
    for c, e in zip(count[order].tolist(), expected[order].tolist()):
        g_stat += 2.0 * c * math.log(c / e)
    # Per populated stratum: (distinct targets - 1) * (distinct versus
    # values - 1), each counted from the codes' strata.
    distinct = []
    for code, code_count, k in ((gt_cell, gt_count, kgt), (gv_cell, gv_count, kgv)):
        stratum = np.zeros(k, dtype=np.intp)
        stratum[code] = g_cell
        distinct.append(np.bincount(stratum[code_count > 0], minlength=kg))
    targets, versus_values = distinct
    dof = int(((targets - 1) * (versus_values - 1))[g_count > 0].sum())
    sparse = gv_count[gv_cell].min() < min_cell

    # Imported here: scipy.special adds about 0.2 s and 26 MB to a process,
    # and only the G-tests need it, not the exact diagnostics.
    from scipy.special import chdtri

    threshold = float(chdtri(dof, alpha)) if dof > 0 else 0.0
    if sparse:
        verdict = Verdict.INCONCLUSIVE
    elif g_stat > threshold and dof > 0:
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.HOLDS
    return CITestResult(hypothesis, g_stat, threshold, verdict, dof, n_total)


def no_signaling_tests(data, *, suffix: str = "") -> list[CITestResult]:
    """Marginal setting-independence of each wing's outcome: P(A|a,b)=P(A|a)
    and the mirror."""
    return [
        test_conditional_independence(
            data, "A", ("a",), ("b",), hypothesis=f"no-signaling-A{suffix}"
        ),
        test_conditional_independence(
            data, "B", ("b",), ("a",), hypothesis=f"no-signaling-B{suffix}"
        ),
    ]


def local_causality_tests(
    data, *, post_selected: bool, include_lambda: bool = False
) -> list[CITestResult]:
    """Wing outcome vs the remote setting-and-outcome pair, given the local
    setting (and the hidden pair, when the data records one)."""
    tag = "LC_ps" if post_selected else "LC"
    extra = ("lambda_A", "lambda_B") if include_lambda else ()
    return [
        test_conditional_independence(
            data, "A", ("a",) + extra, ("b", "B"), hypothesis=f"{tag}-A"
        ),
        test_conditional_independence(
            data, "B", ("b",) + extra, ("a", "A"), hypothesis=f"{tag}-B"
        ),
    ]


def statistical_independence_test(data, *, post_selected: bool) -> CITestResult:
    """Hidden-pair independence from the settings: P(lambda|a,b) = P(lambda)."""
    tag = "SI_ps" if post_selected else "SI"
    return test_conditional_independence(
        data, ("lambda_A", "lambda_B"), (), ("a", "b"), hypothesis=tag
    )


@dataclass(frozen=True)
class NdaReport:
    max_abs_diff: float
    verdict: NdaVerdict

    def as_json(self) -> dict:
        return {"max_abs_diff": self.max_abs_diff, "verdict": self.verdict.value}


def no_difference_check(config: ExperimentConfig, tol: float = 1e-12) -> NdaReport:
    """Compare exact P(a,b,A,B) with the central measurement present
    (marginalized over its outcome) and absent: the config's table and its
    layout's with C flipped, in either order, as abs(p - q) is symmetric.
    A difference below ``tol``, a finite number >= 0, is none."""
    if _real_field(tol, "tol") < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    flipped, _kept = _exact_rows(config, not config.c_enabled)
    return _no_difference(exact_leaf_rows(config), flipped, tol)


def _no_difference(rows, other_rows, tol: float = 1e-12) -> NdaReport:
    """The no-difference check of the exact leaf rows of one config with C
    on and with C off, in either order."""
    marginals = [_cell_sums(cell, prob) for cell, _c_outcome, prob in (rows, other_rows)]
    diff = max([abs(p - q) for p, q in zip(*marginals)])
    verdict = NdaVerdict.NO_DIFFERENCE if diff < tol else NdaVerdict.DIFFERENCE
    return NdaReport(diff, verdict)


@dataclass(frozen=True)
class FragilityReport:
    """P(herald | a, b, A, B) over the 16 setting-outcome cells.

    max_spread is the largest change in herald probability under flipping
    one setting while holding everything else fixed; a positive spread means
    subensemble membership depends on the settings.
    """

    cells: dict[tuple[int, int, int, int], float | None]
    max_spread: float

    def as_json(self) -> dict:
        return {
            "cells": [
                {"a": a, "b": b, "A": A, "B": B, "p_herald": self.cells[(a, b, A, B)]}
                for (a, b, A, B) in sorted(self.cells)
            ],
            "max_spread": self.max_spread,
        }


def fragility(config: ExperimentConfig, tol: float = 1e-15) -> FragilityReport:
    """A C-on config's fragility; a cell of mass at most ``tol`` (>= 0) is None."""
    if _real_field(tol, "tol") < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if not config.c_enabled:
        raise ValueError("fragility requires the central measurement to be enabled")
    return _fragility(*_exact_rows(config, True), tol)


def _fragility(rows, kept: tuple, tol: float = 1e-15) -> FragilityReport:
    """The fragility of a C-on config's exact leaf rows and herald selection."""
    cell, _c_outcome, prob = rows
    mass = _cell_sums(cell, prob)
    hit = _cell_sums(kept[1], prob[kept[0]])
    # P(herald | cell), None where the cell's mass is at most tol.
    p = [h / m if m > tol else None for h, m in zip(hit, mass)]
    # Each cell with b = 0 against its partner with b = 1 (cell + 4), then
    # each with a = 0 against a = 1 (cell + 8); abs(q - r) is abs(r - q).
    pairs = zip(p[:4] + p[8:12] + p[:8], p[4:8] + p[12:] + p[8:])
    spreads = [abs(q - r) for q, r in pairs if q is not None and r is not None]
    return FragilityReport(dict(zip(CELLS, p)), max(spreads, default=0.0))


@dataclass(frozen=True)
class TeleportReport:
    """Channel statistics of teleportation with no correction applied."""

    controlled: bool
    n_trials: int
    n_kept: int
    p_match: float | None
    mutual_information_bits: float
    channel: dict[tuple[int, int], float | None]  # (input, output) -> P(out|in)

    def as_json(self) -> dict:
        return {
            "p_match": self.p_match,
            "mutual_information_bits": self.mutual_information_bits,
        }


def mutual_information_bits(counts: np.ndarray) -> float:
    """Empirical mutual information of a 2x2 count table, add-half smoothed."""
    smoothed = np.asarray(counts, dtype=float) + 0.5
    joint = smoothed / smoothed.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    return float(np.sum(joint * np.log2(joint / (px * py))))


def teleport_channel_demo(controlled: bool, n: int, seed: int) -> TeleportReport:
    """Teleport a classical bit through a Bell-state measurement with no
    outcome-dependent correction.

    The input bit rides qubit 0, the resource singlet sits on (1, 2), and
    the joint measurement hits (0, 1). Fixing the joint outcome (controlled
    mode post-selects the psi-minus result) opens the channel; averaging
    over uncorrected outcomes leaves the output maximally mixed.
    """
    controlled = _bool_field(controlled, "controlled")
    n = check_trials(n)
    # Draws per trial: the input bit (0 below 1/2), the joint measurement,
    # then the output spin, measured along z.
    u = counter_uniforms(seed, np.arange(n), 3)
    x = u[:, 0] >= 0.5
    plan = (BsmStep(0, 1), SpinMeasurement(2, 0.0))
    psi_minus = _branch_outcomes(plan[0]).index(BellOutcome.PSI_MINUS)
    # Plan x starts from input basis state |x> on qubit 0.
    initials = np.kron(np.eye(2, dtype=np.complex128), singlet().amplitudes)
    tables, angles = _plan_walk(initials, plan, [[0.0], [0.0]])
    leaf = _sample_leaves(initials, tables, angles, x, u[:, 1:])[0]
    codes = np.tile(_plan_codes(plan), (2, 1))[leaf]
    keep = codes[:, 0] == psi_minus if controlled else slice(None)
    # Spin code 0 is the +1 outcome, read as output bit 0.
    counts = np.bincount(2 * x[keep] + codes[keep, 1], minlength=4).reshape(2, 2)
    kept = int(counts.sum())
    p_match = float((counts[0, 0] + counts[1, 1]) / kept) if kept else None
    mi = mutual_information_bits(counts) if kept else 0.0
    rows = counts.sum(axis=1)
    channel = {
        (x, y): float(counts[x, y] / rows[x]) if rows[x] else None for x in (0, 1) for y in (0, 1)
    }
    return TeleportReport(controlled, n, kept, p_match, mi, channel)
