"""Diagnostic battery: CHSH statistics, conditional-independence tests,
the no-difference check, herald-membership fragility, and the
controlled-collider teleportation channel demo.

The conditional-independence machinery is a categorical G-test (a
likelihood-ratio statistic, 2n times a KL divergence) against a chi-squared
threshold. A run's G-tests and correlators read its CountTable: each
populated joint cell of its small columns with its count and first row, so
a selection (heralded, accepted, one verdict) is a slice of cells and no
test passes over the rows again. Given an engine.Trials table they tally
it first. The exact diagnostics read the exact joint table's leaf rows
(engine.exact_leaf_rows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .engine import (
    _COLUMN_VALUES,
    CELLS,
    ExperimentConfig,
    Trials,
    _code_rows,
    _exact_rows,
    check_trials,
    counter_uniforms,
    exact_leaf_rows,
)
from .qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    StateVector,
    _bool_field,
    _branch_outcomes,
    _int_field,
    _real_field,
    sample_branches,
    singlet,
)

# Not called here; bench/tracer.py wraps these names in this module to
# count the collapse and exact-table calls made from it.
from .engine import exact_experiment_distribution  # noqa: F401
from .qcore import _bsm_step, _spin_step  # noqa: F401

SETTING_PAIRS = tuple(itertools.product(_COLUMN_VALUES["a"], _COLUMN_VALUES["b"]))

# Fixed CHSH combination: S = E(0,0) + E(0,1) + E(1,0) - E(1,1).
CHSH_SIGNS = dict(zip(SETTING_PAIRS, (1.0, 1.0, 1.0, -1.0)))
CHSH_COMBINATION = "+,+,+,-"

TSIRELSON = 2.0 * math.sqrt(2.0)

DEFAULT_ALPHA = 1e-3
DEFAULT_MIN_CELL = 50

# Exact-diagnostic tolerances: a no-difference below _NDA_TOL is none, and a
# fragility cell of mass at most _FRAGILITY_TOL has no herald probability.
_NDA_TOL = 1e-12
_FRAGILITY_TOL = 1e-15

# float(scipy.special.chdtri(d, DEFAULT_ALPHA)) for d = 1..32, as scipy
# 1.17.1 computes them: the chi-squared thresholds of every G-test at the
# default alpha, so those tests import no scipy and their reports' bytes do
# not depend on the installed version.
_CHI2_DEFAULT = (
    10.827566170662733, 13.815510557964274, 16.26623619623813, 18.466826952903173,
    20.515005652432876, 22.457744484825323, 24.321886347856854, 26.124481558376143,
    27.877164871256575, 29.58829844507442, 31.26413362023999, 32.90949040736021,
    34.52817897487089, 36.12327368039814, 37.69729821835383, 39.25235479076848,
    40.79021670690253, 42.31239633167997, 43.82019596451753, 45.31474661812587,
    46.7970380415613, 48.26794229083519, 49.72823246643151, 51.17859777737739,
    52.61965577617283, 54.051962388576655, 55.47602020574521, 56.892285393353625,
    58.30117348979492, 59.703064304429944, 61.09830608105814, 62.487219057088495,
)


class Verdict(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


class NdaVerdict(Enum):
    NO_DIFFERENCE = "NoDifference"
    DIFFERENCE = "Difference"


def _mixed_radix(code: np.ndarray, columns) -> np.ndarray:
    """``code`` with each column's rank among its distinct values appended
    as a lower digit, ranked again after each: equal for two rows exactly
    where the code and every column are."""
    for column in columns:
        values, rank = np.unique(column, return_inverse=True)
        code = np.unique(code.astype(np.intp) * len(values) + rank, return_inverse=True)[1]
    return code


def _as_names(names) -> tuple[str, ...]:
    return (names,) if isinstance(names, str) else tuple(names)


def _check_columns(data, names, user: str) -> None:
    """Raise ValueError naming each of ``names`` that ``data`` lacks."""
    missing = [name for name in names if name not in data.columns]
    if missing:
        raise ValueError(f"{user} names {missing}, not among the columns {list(data.columns)}")


@dataclass(frozen=True)
class CountTable:
    """A run's rows tallied by joint cell: for each populated cell of the
    named columns, in order of its code, the columns' values (those of its
    first row, in the run's dtypes), its row count and its first row.

    ``len`` is the number of rows the table counts, and ``select`` keeps the
    cells a boolean mask (or an index) picks: the table of the rows in them.
    ValueError is raised by a column or ``first`` of another shape than
    ``count``, a count that is not an integer >= 0, a known column holding a
    value outside ``engine._COLUMN_VALUES``, and a float column holding NaN:
    NaN is no category, as it equals no value, itself included. The table
    holds read-only views of the arrays it is given, as a Trials table does.
    """

    columns: Mapping[str, np.ndarray]
    count: np.ndarray
    first: np.ndarray

    def __post_init__(self) -> None:
        count, first = np.asarray(self.count).view(), np.asarray(self.first).view()
        columns = {name: np.asarray(column).view() for name, column in self.columns.items()}
        for name, array in [("count", count), ("first", first), *columns.items()]:
            array.flags.writeable = False  # as in Trials: no write follows the checks
            if array.shape != count.shape:
                raise ValueError(f"count table {name!r} has shape {array.shape}, not {count.shape}")
            values = _COLUMN_VALUES.get(name)
            if values is not None and not set(array.tolist()).issubset(values):
                raise ValueError(f"column {name} holds a value outside {sorted(values)}")
        if count.dtype.kind not in "iu" or (count < 0).any():
            raise ValueError(f"counts must be integers >= 0, got {count.dtype} {count}")
        nan = [name for name, column in columns.items()
               if column.dtype.kind == "f" and np.isnan(column).any()]
        if nan:
            raise ValueError(f"count table columns {nan} hold NaN")
        vars(self).update(columns=MappingProxyType(columns), count=count, first=first)  # frozen

    def __len__(self) -> int:
        return int(self.count.sum())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def select(self, cells) -> CountTable:
        columns = {name: column[cells] for name, column in self.columns.items()}
        return CountTable(columns, self.count[cells], self.first[cells])


def count_table(data: Trials, names, code: np.ndarray | None = None) -> CountTable:
    """The count table of ``data`` over the named columns.

    ``code`` is each row's joint code over them, non-negative and equal for
    two rows exactly where every named column is (``io.row_code`` gives the
    writers' one); without it ``engine._code_rows`` checks and codes the
    known columns, with no sort, and ``_mixed_radix`` any other. First rows
    are taken with ``np.minimum.at``, whose result does not depend on the
    order it visits the rows in. ValueError is raised as by ``CountTable``
    and for a missing column."""
    names = _as_names(names)
    _check_columns(data, names, "count table")
    n = len(data)
    if code is None:
        code = _code_rows(data, [name for name in names if name in _COLUMN_VALUES])
        code = _mixed_radix(code, [data[name] for name in names if name not in _COLUMN_VALUES])
    count = np.bincount(code)
    first = np.full(len(count), n)
    np.minimum.at(first, code, np.arange(n))
    cells = np.flatnonzero(count)
    first = first[cells]
    return CountTable({name: data[name][first] for name in names}, count[cells], first)


@dataclass
class CorrelatorTable:
    """Per-setting-pair correlators E(a,b) = mean of A*B, with cell counts.

    Empty cells carry count 0 and E None. Exact-mode tables have defined E
    with count 0 (no sampling error).
    """

    values: dict[tuple[int, int], float | None]
    counts: dict[tuple[int, int], int]

    def as_json(self) -> list[dict]:
        return [
            {"a": a, "b": b, "E": self.values[(a, b)], "count": self.counts[(a, b)]}
            for (a, b) in SETTING_PAIRS
        ]


def correlators(data: CountTable | Trials) -> CorrelatorTable:
    """Per-setting-pair correlators of a count table, or of a Trials table
    through its table over a, b, A and B. The sums of A*B are integers, so
    they are exact from the counts. A missing column raises ValueError."""
    _check_columns(data, ("a", "b", "A", "B"), "correlators")
    if isinstance(data, Trials):
        data = count_table(data, ("a", "b", "A", "B"))
    pair = 2 * data["a"].astype(np.intp) + data["b"]  # indexes SETTING_PAIRS
    counts = np.bincount(pair, weights=data.count, minlength=4).astype(np.int64).tolist()
    sums = np.bincount(pair, weights=data["A"] * data["B"] * data.count, minlength=4).tolist()
    values = {
        cell: (total / count if count > 0 else None)
        for cell, total, count in zip(SETTING_PAIRS, sums, counts)
    }
    return CorrelatorTable(values, dict(zip(SETTING_PAIRS, counts)))


@dataclass(frozen=True)
class CHSHResult:
    S: float
    stderr: float

    def as_json(self) -> dict:
        return {"S": self.S, "stderr": self.stderr, "combination": CHSH_COMBINATION}


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
    dof: int
    n: int

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
    >= 0 raises ValueError. ``data`` is a CountTable, or a Trials table,
    which is tallied over the named columns first.
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

    _check_columns(data, named, "G-test")
    if isinstance(data, Trials):
        data = count_table(data, named)
    n_total = len(data)
    if n_total == 0:
        return CITestResult(hypothesis, 0.0, 0.0, Verdict.INCONCLUSIVE, 0, 0)

    # One pass over the table's cells in the order of their first rows: each
    # count goes to its stratum, and within it to its (target, versus) cell,
    # both kept in the order they first appear, as a pass over the rows.
    # Empty cells, which only a table built by hand holds, are skipped.
    order = np.argsort(data.first, kind="stable")
    order = order[data.count[order] > 0]
    keys = [zip(*[data[name][order].tolist() for name in names]) if names else itertools.repeat(())
            for names in (given_names, target_names, versus_names)]
    strata: dict = {}
    for c, g, t, v in zip(data.count[order].tolist(), *keys):
        cells = strata.setdefault(g, {})
        cells[t, v] = cells.get((t, v), 0) + c
    g_stat, dof, sparse = 0.0, 0, False
    for cells in strata.values():
        t_total, v_total = {}, {}
        for (t, v), c in cells.items():
            t_total[t] = t_total.get(t, 0) + c
            v_total[v] = v_total.get(v, 0) + c
        n_g = sum(t_total.values())
        sparse = sparse or min(v_total.values()) < min_cell
        dof += (len(t_total) - 1) * (len(v_total) - 1)
        # Expected counts are float(t * v) / n_g: once t * v exceeds 2**53 it
        # is rounded before the division, unlike an exact t * v / n_g.
        for (t, v), c in cells.items():
            g_stat += 2.0 * c * math.log(c / (float(t_total[t] * v_total[v]) / n_g))

    if dof == 0:
        threshold = 0.0
    elif alpha == DEFAULT_ALPHA and dof <= len(_CHI2_DEFAULT):
        threshold = _CHI2_DEFAULT[dof - 1]
    else:
        # Imported here: scipy.special adds about 0.25 s and 20-25 MB to a
        # process, and only a G-test at another alpha or a larger dof needs it.
        from scipy.special import chdtri

        threshold = float(chdtri(dof, alpha))
    if sparse:
        verdict = Verdict.INCONCLUSIVE
    elif g_stat > threshold and dof > 0:
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.HOLDS
    return CITestResult(hypothesis, g_stat, threshold, verdict, dof, n_total)


def no_signaling_tests(data) -> list[CITestResult]:
    """Marginal setting-independence of each wing's outcome: P(A|a,b)=P(A|a)
    and the mirror."""
    return [
        test_conditional_independence(data, "A", ("a",), ("b",), hypothesis="no-signaling-A"),
        test_conditional_independence(data, "B", ("b",), ("a",), hypothesis="no-signaling-B"),
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


def no_difference_check(config: ExperimentConfig) -> NdaReport:
    """Compare exact P(a,b,A,B) with the central measurement present
    (marginalized over its outcome) and absent: the config's table and its
    layout's with C flipped, in either order, as abs(p - q) is symmetric.
    A difference below ``_NDA_TOL`` is none."""
    flipped, _kept = _exact_rows(config, not config.c_enabled)
    return _no_difference(exact_leaf_rows(config), flipped)


def _no_difference(rows, other_rows) -> NdaReport:
    """The no-difference check of the exact leaf rows of one config with C
    on and with C off, in either order."""
    marginals = [_cell_sums(cell, prob) for cell, _c_outcome, prob in (rows, other_rows)]
    diff = max([abs(p - q) for p, q in zip(*marginals)])
    verdict = NdaVerdict.NO_DIFFERENCE if diff < _NDA_TOL else NdaVerdict.DIFFERENCE
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


def fragility(config: ExperimentConfig) -> FragilityReport:
    """A C-on config's fragility; a cell of mass at most ``_FRAGILITY_TOL`` is None."""
    if not config.c_enabled:
        raise ValueError("fragility requires the central measurement to be enabled")
    return _fragility(*_exact_rows(config, True))


def _fragility(rows, kept: tuple) -> FragilityReport:
    """The fragility of a C-on config's exact leaf rows and herald selection."""
    cell, _c_outcome, prob = rows
    mass = _cell_sums(cell, prob)
    hit = _cell_sums(kept[1], prob[kept[0]])
    # P(herald | cell), None where the cell's mass is at most _FRAGILITY_TOL.
    p = [h / m if m > _FRAGILITY_TOL else None for h, m in zip(hit, mass)]
    # Each cell with b = 0 against its partner with b = 1 (cell + 4), then
    # each with a = 0 against a = 1 (cell + 8); abs(q - r) is abs(r - q).
    pairs = zip(p[:4] + p[8:12] + p[:8], p[4:8] + p[12:] + p[8:])
    spreads = [abs(q - r) for q, r in pairs if q is not None and r is not None]
    return FragilityReport(dict(zip(CELLS, p)), max(spreads, default=0.0))


def exact_report(config: ExperimentConfig) -> dict:
    """The exact diagnostics as JSON; entries undefined for the config are
    None: the heralded correlators and CHSH when the herald has zero
    probability, and fragility when the central measurement is disabled.
    They read two exact tables, the config's and the one with C flipped,
    and the config's herald selection."""
    rows, kept = _exact_rows(config, config.c_enabled)
    flipped, _kept = _exact_rows(config, not config.c_enabled)
    report: dict = {"correlators": None, "chsh": None}
    try:
        table = _heralded_correlators(rows, kept)
    except ValueError:  # conditioning on a zero-probability herald
        pass
    else:
        report["correlators"] = table.as_json()
        report["chsh"] = chsh(table).as_json()
    report["nda"] = _no_difference(rows, flipped).as_json()
    report["fragility"] = _fragility(rows, kept).as_json() if config.c_enabled else None
    return report


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
    """Empirical mutual information of a 2x2 count table, add-half smoothed.
    A table of another shape, or with a negative or non-finite count, raises
    ValueError."""
    table = np.asarray(counts, dtype=float)
    if table.shape != (2, 2) or not (np.isfinite(table).all() and (table >= 0).all()):
        raise ValueError(f"counts must be a 2x2 table of finite counts >= 0, got {counts!r}")
    smoothed = table + 0.5
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
    codes = np.empty((n, len(plan)), dtype=np.int8)
    for bit, basis in enumerate(np.eye(2, dtype=np.complex128)):
        # Input bit x starts the plan from basis state |x> on qubit 0.
        start = StateVector(3, np.kron(basis, singlet().amplitudes))
        mine = x == bit
        codes[mine] = sample_branches(start, plan, u[mine, 1:])
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
