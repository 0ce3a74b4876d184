"""Scalar reference loops for the array code.

These are the per-trial loops swapsim ran before it sampled and analysed
whole ensembles as column tables: one Philox generator (``trial_rng``) and
one collapse call per measurement for every trial, one record object per
trial, record-by-record correlators, G-test counting and CSV writers, the
column CSV writer that joined each line field by field, and the JSON mirror
built as one dict per trial. Beside them are the collapse steps, Bell
outcome probabilities and exact branch enumeration that projected onto each
outcome in their own code, the projection kernel's broadcast body, the exact
walk as it ran on complex rows, the sampler and collapse that laid out every
node's posts before they descended the exact walk's tables, the joint table
built one setting plan at a time over that recursion, and the exact
diagnostics that walked it as a dict keyed by BellOutcome members. They are
kept here, unchanged apart from taking plain record sequences and checking
their inputs through swapsim's checks, as the oracle the array paths, the
row-code writers, the streamed mirror, the projection kernel, the float64
exact walk, the sampler, the level-by-level exact tables and their leaf-row
diagnostics must match.
``closed_form_table`` is the one reference that walks no amplitudes: the
exact joint table in closed form, which every layout must meet within a
tolerance. The helpers at the end turn records into tables and compare
tables column by column.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.stats import chi2

from swapsim.analysis import (
    DEFAULT_ALPHA,
    DEFAULT_MIN_CELL,
    SETTING_PAIRS,
    CHSHResult,
    CITestResult,
    CorrelatorTable,
    FragilityReport,
    NdaReport,
    NdaVerdict,
    TeleportReport,
    Verdict,
    _as_names,
    chsh,
    mutual_information_bits,
)
from swapsim.engine import (
    A_QUBIT,
    B_QUBIT,
    BSM_PAIR,
    HERALD_PREDICATES,
    OUTCOMES,
    ExperimentConfig,
    Trials,
    measurement_order,
    trial_rng,
)
from swapsim.geometry import EventLabel
from swapsim.io import (
    _TOKEN_TABLES,
    CHUNK_ROWS,
    ENSEMBLE_HEADER,
    RPS_HEADER,
    TOY_HEADER,
    outcome_token,
)
from swapsim.qcore import (
    _BELL_TENSORS,
    BellOutcome,
    BsmStep,
    PlanStep,
    SpinMeasurement,
    StateVector,
    _branch_outcomes,
    _branch_tables,
    _norm_sq,
    _products,
    _spin_components,
    _validate_plan,
    _walk_depths,
    _walk_key,
    _walk_tables,
    _walk_values,
    _weights,
    make_two_singlets,
    singlet,
)
from swapsim.qcore import _BELL_VALUES as _QCORE_BELL_VALUES
from swapsim.toys import (
    RPS_CHOICES,
    RPS_VERDICTS,
    AcceptanceRule,
    RpsChoice,
    RpsVerdict,
    rps_verdict,
)

_CHOICES = RPS_CHOICES

# A partial Bell-state measurement resolves psi+ and psi-, and reports phi+
# and phi- together as NO_HERALD.
_RESOLVED = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)
_FOLDED = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)


# The collapse steps and the exact enumeration as they were before qcore
# read every step's outcomes from one projection kernel, ``qcore._branches``.

def _project_spin(
    amps: np.ndarray, q: int, vec: tuple[float, float]
) -> tuple[np.ndarray, float]:
    """Contract qubit q against bra <vec|; returns (coefficient array, weight)."""
    t = amps.reshape(2**q, 2, -1)
    coeff = vec[0] * t[:, 0, :] + vec[1] * t[:, 1, :]
    return coeff, float(np.vdot(coeff, coeff).real)


def _embed_spin(coeff: np.ndarray, q: int, vec: tuple[float, float]) -> np.ndarray:
    out = np.empty((coeff.shape[0], 2, coeff.shape[1]), dtype=np.complex128)
    out[:, 0, :] = vec[0] * coeff
    out[:, 1, :] = vec[1] * coeff
    return out.reshape(-1)


# The two nonzero (left_bit, right_bit, value) terms of each Bell tensor,
# with values as Python floats for cheap scalar arithmetic.
_BELL_TERMS: dict[BellOutcome, tuple[tuple[int, int, float], ...]] = {
    outcome: tuple(
        (i, j, float(m[i, j].real))
        for i in (0, 1)
        for j in (0, 1)
        if m[i, j] != 0
    )
    for outcome, m in _BELL_TENSORS.items()
}


def _bell_terms(outcome: BellOutcome, q_left: int, q_right: int):
    terms = _BELL_TERMS[outcome]
    if q_left < q_right:
        return terms
    return tuple((j, i, c) for (i, j, c) in terms)


def _split_pair(amps: np.ndarray, qa: int, qb: int) -> np.ndarray:
    # qa < qb required; axes: (pre, qa, mid, qb, post)
    return amps.reshape(2**qa, 2, 2 ** (qb - qa - 1), 2, -1)


def _project_bell(
    amps: np.ndarray, q_left: int, q_right: int, outcome: BellOutcome
) -> tuple[np.ndarray, float]:
    qa, qb = (q_left, q_right) if q_left < q_right else (q_right, q_left)
    t = _split_pair(amps, qa, qb)
    (i1, j1, c1), (i2, j2, c2) = _bell_terms(outcome, q_left, q_right)
    coeff = c1 * t[:, i1, :, j1, :] + c2 * t[:, i2, :, j2, :]
    return coeff, float(np.vdot(coeff, coeff).real)


def _embed_bell(
    coeff: np.ndarray, q_left: int, q_right: int, outcome: BellOutcome
) -> np.ndarray:
    out = np.zeros((coeff.shape[0], 2, coeff.shape[1], 2, coeff.shape[2]), dtype=np.complex128)
    for i, j, c in _bell_terms(outcome, q_left, q_right):
        out[:, i, :, j, :] = c * coeff
    return out.reshape(-1)


def _spin_step(
    amps: np.ndarray, n: int, qubit: int, angle: float, draw: float
) -> tuple[int, np.ndarray]:
    """Raw spin collapse on unwrapped amplitudes; inputs assumed valid."""
    vec = _spin_components(angle)
    coeff, weight = _project_spin(amps, qubit, vec)
    if draw < weight:
        outcome = 1
    else:
        outcome = -1
        vec = _spin_components(angle + math.pi)
        coeff, weight = _project_spin(amps, qubit, vec)
    if weight <= 0.0:
        raise RuntimeError("drew an outcome with zero-norm projection")
    return outcome, _embed_spin(coeff / math.sqrt(weight), qubit, vec)


def bell_outcome_probabilities(
    state: StateVector,
    q_left: int,
    q_right: int,
    partial: bool = False,
) -> dict[BellOutcome, float]:
    """Exact outcome distribution of a Bell-state measurement on (q_left, q_right)."""
    _validate_plan(state.num_qubits, [BsmStep(q_left, q_right, partial)])
    raw = {
        o: _project_bell(state.amplitudes, q_left, q_right, o)[1]
        for o in _BELL_TENSORS
    }
    if not partial:
        return raw
    probs = {o: raw[o] for o in _RESOLVED}
    probs[BellOutcome.NO_HERALD] = sum(raw[o] for o in _FOLDED)
    return probs


def _bsm_probs(
    amps: np.ndarray, q_left: int, q_right: int, partial: bool
) -> tuple[dict, list[tuple[BellOutcome, float]], tuple[BellOutcome, ...]]:
    """Projections by Bell outcome, the reported (outcome, weight) list in
    cumulative-threshold order, and the outcomes folded into NO_HERALD."""
    proj = [(o, _project_bell(amps, q_left, q_right, o)) for o in _BELL_TENSORS]
    folded: tuple[BellOutcome, ...] = ()
    if partial:
        folded = _FOLDED
        probs = [(o, w) for o, (_c, w) in proj if o in _RESOLVED]
        probs.append(
            (BellOutcome.NO_HERALD, sum(w for o, (_c, w) in proj if o in folded))
        )
    else:
        probs = [(o, w) for o, (_c, w) in proj]
    return dict(proj), probs, folded


def _bsm_step(
    amps: np.ndarray,
    n: int,
    q_left: int,
    q_right: int,
    draw: float,
    partial: bool,
) -> tuple[BellOutcome, np.ndarray]:
    """Raw Bell-basis collapse on unwrapped amplitudes; inputs assumed valid."""
    projections, probs, folded = _bsm_probs(amps, q_left, q_right, partial)
    chosen = None
    acc = 0.0
    for o, p in probs:
        acc += p
        if draw < acc:
            chosen = o
            break
    if chosen is None:  # cumulative rounding fell short; take last nonzero outcome
        positive = [o for o, p in probs if p > 0.0]
        if not positive:
            raise RuntimeError("no Bell outcome has positive probability")
        chosen = positive[-1]
    if chosen is BellOutcome.NO_HERALD:
        post = np.zeros(2**n, dtype=np.complex128)
        weight = 0.0
        for o in folded:
            coeff, w = projections[o]
            post += _embed_bell(coeff, q_left, q_right, o)
            weight += w
    else:
        coeff, weight = projections[chosen]
        post = _embed_bell(coeff, q_left, q_right, chosen)
    if weight <= 0.0:
        raise RuntimeError("drew an outcome with zero-norm projection")
    return chosen, post / math.sqrt(weight)


def _branch_project(amps: np.ndarray, n: int, step: PlanStep, outcome) -> np.ndarray:
    """Unnormalized projection of ``amps`` onto one outcome branch of ``step``."""
    if isinstance(step, SpinMeasurement):
        angle = step.angle if outcome == 1 else step.angle + math.pi
        vec = _spin_components(angle)
        coeff, _ = _project_spin(amps, step.qubit, vec)
        return _embed_spin(coeff, step.qubit, vec)
    if outcome is BellOutcome.NO_HERALD:
        post = np.zeros_like(amps)
        for o in _FOLDED:
            coeff, _ = _project_bell(amps, step.q_left, step.q_right, o)
            post += _embed_bell(coeff, step.q_left, step.q_right, o)
        return post
    coeff, _ = _project_bell(amps, step.q_left, step.q_right, outcome)
    return _embed_bell(coeff, step.q_left, step.q_right, outcome)


# The projection kernel's body as it was while it broadcast over views of
# the stack, before it gathered and scattered through index tables: the
# reference ``qcore._branches`` and ``qcore._weights`` must equal byte for
# byte. Bell terms: bits [left/right, term, outcome] and values [term,
# outcome], shaped to broadcast over (outcome, row, pre, mid, post).
_BELL_BITS = np.array([np.nonzero(m) for m in _BELL_TENSORS.values()]).transpose(1, 2, 0)
_BELL_VALUES = np.array(
    [m[m != 0].real for m in _BELL_TENSORS.values()], dtype=np.complex128
).T.reshape(2, len(_BELL_TENSORS), 1, 1, 1, 1)


def _fold(step: PlanStep, stack: np.ndarray) -> np.ndarray:
    """Axis 1 of a (m, 4, ...) stack in ``_branch_outcomes(step)`` order: a
    partial BSM keeps its resolved outcomes and sums the folded ones, in
    enum order, into NO_HERALD."""
    if isinstance(step, SpinMeasurement) or not step.partial:
        return stack
    index = list(_BELL_TENSORS)
    out = np.zeros((len(stack), len(_RESOLVED) + 1) + stack.shape[2:], dtype=stack.dtype)
    out[:, :-1] = stack[:, [index.index(o) for o in _RESOLVED]]
    for o in _FOLDED:
        out[:, -1] += stack[:, index.index(o)]
    return out


def branches(amps: np.ndarray, steps: Sequence[PlanStep]) -> tuple[np.ndarray, np.ndarray]:
    """(posts, coeffs) of every outcome of one step per block of rows of a
    stack, as ``qcore._branches`` documents them."""
    amps = np.ascontiguousarray(amps)
    m, size = amps.shape
    step = steps[0]
    if isinstance(step, SpinMeasurement):
        # Axes (block, row, outcome, pre, qubit, post).
        t = amps.reshape(len(steps), m // len(steps), 1, 2**step.qubit, 2, -1)
        comps = np.array(
            [(_spin_components(s.angle), _spin_components(s.angle + math.pi)) for s in steps],
            dtype=np.complex128,
        )
        up, down = comps[:, None, :, 0, None, None], comps[:, None, :, 1, None, None]
        coeffs = up * t[..., 0, :] + down * t[..., 1, :]
        posts = np.empty(t.shape[:2] + (2,) + t.shape[3:], dtype=np.complex128)
        posts[..., 0, :] = up * coeffs
        posts[..., 1, :] = down * coeffs
        return posts.reshape(m, 2, size), coeffs.reshape(m, 2, -1)
    # Axes (row, pre, lower qubit, mid, higher qubit, post).
    qa, qb = sorted((step.q_left, step.q_right))
    t = amps.reshape(m, 2**qa, 2, 2 ** (qb - qa - 1), 2, -1)
    lower, higher = _BELL_BITS if step.q_left < step.q_right else _BELL_BITS[::-1]
    c = _BELL_VALUES
    coeffs = c[0] * t[:, :, lower[0], :, higher[0], :] + c[1] * t[:, :, lower[1], :, higher[1], :]
    posts = np.zeros((m, len(_BELL_TENSORS)) + t.shape[1:], dtype=np.complex128)
    outcome = np.arange(len(_BELL_TENSORS))
    for term in (0, 1):
        posts[:, outcome, :, lower[term], :, higher[term], :] = c[term] * coeffs
    posts = posts.reshape(m, len(_BELL_TENSORS), size)
    return _fold(step, posts), coeffs.swapaxes(0, 1).reshape(m, len(_BELL_TENSORS), -1)


def weights(step: PlanStep, coeffs: np.ndarray) -> np.ndarray:
    """Branch weights from ``branches``' coefficients: each row's ``np.vdot``
    with itself, NO_HERALD the sum of the folded outcomes'."""
    m, j, _ = coeffs.shape
    norms = [np.vdot(row, row).real for row in np.ascontiguousarray(coeffs).reshape(m * j, -1)]
    return _fold(step, np.array(norms, dtype=np.float64).reshape(m, j))


def enumerate_plans(
    initial: np.ndarray, plan: Sequence[PlanStep], angles: Sequence[Sequence[float]]
) -> np.ndarray:
    """Leaf probabilities of plans that are ``plan`` but for spin angles,
    shape (len(angles), leaves), plan p measuring the s-th spin step at
    ``angles[p][s]`` from ``initial``, by the exact walk as it was before it
    composed its gathers: one ``branches`` call per depth laying out every
    row's posts, rows in plan, then depth-first outcome order, and each
    leaf's ``np.vdot`` with itself. ``qcore._walk`` of the plans' stacked
    ``_walk_tables`` must equal it byte for byte."""
    states = np.asarray(initial)[None].repeat(len(angles), axis=0)
    spin = 0
    for step in plan:
        if isinstance(step, SpinMeasurement):
            steps = [SpinMeasurement(step.qubit, row[spin]) for row in angles]
            spin += 1
        else:
            steps = [step]
        posts, _coeffs = branches(states, steps)
        states = posts.reshape(-1, states.shape[1])
    norms = [np.vdot(row, row).real for row in states]
    return np.array(norms, dtype=np.float64).reshape(len(angles), -1)


def complex_walk(initial: np.ndarray, angles: Sequence[float], tables: tuple) -> np.ndarray:
    """Leaf probabilities of the exact walk of ``qcore._walk_tables``'
    ``tables`` from the amplitudes ``initial``, as ``qcore._walk`` computed
    them while it ran on complex rows: complex Bell and spin values and
    amplitudes, one projection per depth (each term's value times its
    coefficient, then a trailing +0), a partial BSM's posts folded, and each
    leaf's ``np.vdot`` with itself. ``qcore._walk`` on float64 rows must
    equal it byte for byte."""
    start, depths = tables
    spins = [c for angle in angles
             for c in _spin_components(angle) + _spin_components(angle + math.pi)]
    v = np.concatenate([_BELL_VALUES.ravel(), np.array(spins, dtype=np.complex128)])
    x = np.asarray(initial, dtype=np.complex128)[start]
    for val, post, step, nxt, _child in depths:
        values = v[val]
        terms = values * x
        half = len(terms) // 2
        coeffs = terms[:half] + terms[half:]
        x = np.empty(len(terms) + 1, dtype=np.complex128)
        np.multiply(values.reshape(2, half), coeffs, out=x[:-1].reshape(2, half))
        x[-1] = 0.0
        if post is not None:
            x = _fold(step, x[post]).reshape(-1)
        if nxt is not None:
            x = x[nxt]
    norms = [np.vdot(row, row).real for row in x.reshape(-1, len(initial))]
    return np.array(norms, dtype=np.float64)


# The sampler as it was before it descended the exact walk's tables: each
# depth laid out every node's posts through ``flat_branches`` and
# normalized them into the next depth's states. ``qcore._sample_leaves``
# and ``qcore._collapse`` must equal it byte for byte. ``sum_fold`` is
# ``qcore._fold`` as it summed a partial BSM's folded outcomes with a
# generator ``sum()`` from int 0.
def sum_fold(step: PlanStep, stack: np.ndarray) -> np.ndarray:
    """``qcore._fold`` with its NO_HERALD entry summed by ``sum()``."""
    if not (isinstance(step, BsmStep) and step.partial):
        return stack
    index = list(_BELL_TENSORS)
    out = np.empty((len(stack), len(_RESOLVED) + 1) + stack.shape[2:], stack.dtype)
    out[:, :-1] = stack[:, [index.index(o) for o in _RESOLVED]]
    out[:, -1] = sum(stack[:, index.index(o)] for o in _FOLDED)  # sum() starts at int 0, so at +0
    return out


def _flat_project(
    amps: np.ndarray, step: PlanStep, angles: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``qcore._products`` of one step on a stack of states: (products, the
    coefficient stack of shape (m, j, -1), and the post map of shape (m, j,
    2**n) into the products)."""
    m, size = np.shape(amps)
    if isinstance(step, SpinMeasurement):
        angles = [step.angle] if angles is None else angles
        values, j, blocks = _walk_values(angles)[len(_QCORE_BELL_VALUES):], 2, len(angles)
    else:
        values, j, blocks = _QCORE_BELL_VALUES, len(_BELL_TENSORS), 1
    src, val, post = _branch_tables(_walk_key(step)[:3], size, blocks, m // blocks)
    products, coeffs = _products(values[val], np.ravel(amps)[src])
    return products, coeffs.reshape(m, j, -1), post.reshape(m, j, size)


def flat_branches(
    amps: np.ndarray, step: PlanStep, angles: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome of one step for each row of an (m, 2**n) stack, a spin
    measuring each block of m // len(angles) rows at its own angle: the
    posts, shape (m, k, 2**n), ``sum_fold``-ed for a partial BSM, and the
    coefficient stack, shape (m, j, -1), as ``branches`` gives them."""
    products, coeffs, post = _flat_project(amps, step, angles)
    return sum_fold(step, products[post]), coeffs


def flat_weights(step: PlanStep, coeffs: np.ndarray) -> np.ndarray:
    """Branch weights of ``flat_branches``' rows from its coefficient stack."""
    m, j, _ = coeffs.shape
    return sum_fold(step, _norm_sq(coeffs.reshape(m * j, -1)).reshape(m, j))


def post_draw(
    step: PlanStep,
    states: np.ndarray,
    node: np.ndarray,
    draws: np.ndarray,
    angles: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One sampled depth: row i draws ``draws[i]`` from state ``node[i]``
    of ``states`` (the draw rule of ``qcore._draw``). Returns each row's
    child ``node * k + slot`` and every state's children, shape (m * k,
    2**n): each post over the square root of its weight, +0 where it is 0."""
    posts, coeffs = flat_branches(states, step, angles)
    weights = flat_weights(step, coeffs)
    m, k = weights.shape
    edges = np.cumsum(weights, axis=1)
    slot = np.zeros(len(node), dtype=np.intp)
    for edge in edges.T[: 1 if isinstance(step, SpinMeasurement) else k]:
        slot += edge[node] <= draws
    past = slot == k
    if past.any():
        positive = weights > 0.0
        if not positive[node[past]].any(axis=1).all():
            raise RuntimeError("no Bell outcome has positive probability")
        slot[past] = (k - 1 - np.argmax(positive[:, ::-1], axis=1))[node[past]]
    child = node * k + slot
    if np.any(weights.ravel()[child] <= 0.0):
        raise RuntimeError("drew an outcome with zero-norm projection")
    norm = np.sqrt(weights)[:, :, None]
    children = np.divide(posts, norm, out=np.zeros_like(posts), where=norm > 0.0)
    return child, children.reshape(m * k, -1)


def collapse(amps: np.ndarray, step: PlanStep, draw: float) -> tuple[object, np.ndarray]:
    """A one-state collapse as a one-row ``post_draw``: (outcome, post)."""
    (child,), children = post_draw(step, amps[None], np.zeros(1, dtype=np.intp),
                                   np.array([draw]))
    return _branch_outcomes(step)[child], children[child]


def plan_columns(plan: Sequence[PlanStep], angles: Sequence[Sequence[float]]) -> list:
    """Each step's spin angle per plan, None for a BSM."""
    spins = [isinstance(step, SpinMeasurement) for step in plan]
    if not angles or any(len(row) != sum(spins) for row in angles):
        raise ValueError(f"plans need {sum(spins)} spin angles each, got {angles!r}")
    columns = zip(*angles)
    return [next(columns) if spin else None for spin in spins]


def sample_leaves(
    initials: np.ndarray,
    plan: Sequence[PlanStep],
    angles: Sequence[Sequence[float]],
    plan_of_row: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Each trial's leaf, trial i running plan p = ``plan_of_row[i]`` (the
    template ``plan`` at spin angles ``angles[p]``) from ``initials[p]``
    with draws ``draws[i]``: one ``post_draw`` per depth over every node."""
    columns = plan_columns(plan, angles)
    states, node = initials, np.asarray(plan_of_row, dtype=np.intp)
    for step, column, draw in zip(plan, columns, np.asarray(draws).T):
        node, states = post_draw(step, states, node, draw, column)
    return node


def stacked_tables(
    plan: Sequence[PlanStep], size: int, angles: Sequence[Sequence[float]]
) -> tuple[tuple, list[float]]:
    """Not a reference: the ``qcore._walk_tables`` of plans that are
    ``plan`` but for spin angles, from one state of ``size`` amplitudes,
    plan p measuring the s-th spin step at ``angles[p][s]`` (as the engine
    stacks its setting plans), and the flat angles their picks index."""
    spins = len(angles[0])
    picks = tuple(tuple(range(p * spins, (p + 1) * spins)) for p in range(len(angles)))
    tables = _walk_tables(tuple(map(_walk_key, plan)), size, picks)
    return tables, [angle for row in angles for angle in row]


def plan_branches(
    initial: np.ndarray, steps: Sequence[PlanStep]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Not a reference: one depth of ``qcore``'s walk tables from the start
    state ``initial``, the one-step plans ``[steps[p]]`` stacked through
    their picks (a spin's at its own angle, a BSM's all the same), laid out
    as ``flat_branches`` and ``branches`` lay theirs out, for tests to
    compare: the unnormalized leaves, shape (plans, k, 2**n), the
    coefficient stack, shape (plans, j, -1), and the branch weights, shape
    (plans, k)."""
    step, size = steps[0], len(initial)
    spin = isinstance(step, SpinMeasurement)
    angles = [[s.angle] if spin else [] for s in steps]
    (start, (depth,)), flat = stacked_tables([step], size, angles)
    values, x = _walk_values(flat), initial[start]
    coeffs = _products(values[depth[0]], x)[1]
    weights = _weights(depth[2], coeffs, size)
    posts = _walk_depths(x, values, (depth,)).reshape(len(steps), -1, size)
    return posts, coeffs.reshape(len(steps), 2 if spin else 4, -1), weights


def walk_branches(
    stack: np.ndarray, steps: Sequence[PlanStep]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Not a reference: ``plan_branches`` of each row of an (m, 2**n) stack
    of start states, row i's one plan ``[steps[i // (m // len(steps))]]``,
    the rows' results stacked, for tests to compare with ``branches`` of
    the stack."""
    block = len(stack) // len(steps)
    rows = [plan_branches(stack[i], [steps[i // block]]) for i in range(len(stack))]
    return tuple(np.concatenate(parts) for parts in zip(*rows))


def exact_branch_enumeration(
    initial: StateVector, plan: Sequence[PlanStep]
) -> dict[tuple, float]:
    """Full joint outcome distribution of a measurement plan, by depth-first
    expansion of every branch (no sampling).

    Keys are outcome tuples in plan order (ints for spins, BellOutcome for
    BSM steps), including zero-probability branches; values sum to 1.
    """
    n = initial.num_qubits
    _validate_plan(n, plan)
    table: dict[tuple, float] = {}

    def recurse(amps: np.ndarray, depth: int, outcomes: tuple) -> None:
        if depth == len(plan):
            table[outcomes] = float(np.vdot(amps, amps).real)
            return
        step = plan[depth]
        for outcome in _branch_outcomes(step):
            recurse(_branch_project(amps, n, step, outcome), depth + 1, outcomes + (outcome,))

    recurse(initial.amplitudes, 0, ())
    return table


def _setting_plan(
    config: ExperimentConfig, order: tuple[EventLabel, ...], a: int, b: int
) -> tuple[list[PlanStep], list[str]]:
    """Measurement plan for settings (a, b) in execution order, with the
    label ("A", "B" or "C") of each step; C is left out when disabled."""
    plan: list[PlanStep] = []
    labels: list[str] = []
    for label in order:
        if label is EventLabel.A:
            plan.append(SpinMeasurement(A_QUBIT, config.angles_a[a]))
            labels.append("A")
        elif label is EventLabel.B:
            plan.append(SpinMeasurement(B_QUBIT, config.angles_b[b]))
            labels.append("B")
        elif config.c_enabled:
            plan.append(BsmStep(BSM_PAIR[0], BSM_PAIR[1], partial=config.bsm_partial))
            labels.append("C")
    return plan, labels


def exact_experiment_distribution(config: ExperimentConfig) -> dict[tuple, float]:
    """The joint table as swapsim built it before it expanded the four
    setting plans together: one plan at a time, each through the depth-first
    recursion above, accumulated in (a, b, leaf) order."""
    order = measurement_order(config.geometry)
    initial = make_two_singlets()
    table: dict[tuple, float] = {}
    for a in (0, 1):
        for b in (0, 1):
            plan, labels = _setting_plan(config, order, a, b)
            for outcomes, p in exact_branch_enumeration(initial, plan).items():
                named = dict(zip(labels, outcomes))
                key = (a, b, named["A"], named["B"], named.get("C"))
                table[key] = table.get(key, 0.0) + 0.25 * p
    return table


def closed_form_table(config: ExperimentConfig) -> dict[tuple, float]:
    """The exact joint table in closed form, keyed as
    ``exact_experiment_distribution``'s, from no amplitude walk.

    With C on, P(a, b, A, B, c) = (1 + A*B*E_c) / 64 at ta = angles_a[a]
    and tb = angles_b[b], where E_psi- = -cos(ta - tb), E_psi+ = -cos(ta +
    tb), E_phi+ = cos(ta - tb) and E_phi- = cos(ta + tb); a partial BSM
    reports the Bell states it resolves and NO_HERALD, the sum of its
    folded states' entries. With C off every P(a, b, A, B) is 1/16. No
    layout enters: the table is the same in every execution order.
    """
    table: dict[tuple, float] = {}
    for a, b, A, B in itertools.product((0, 1), (0, 1), (1, -1), (1, -1)):
        if not config.c_enabled:
            table[(a, b, A, B, None)] = 1.0 / 16.0
            continue
        ta, tb = config.angles_a[a], config.angles_b[b]
        minus, plus = math.cos(ta - tb), math.cos(ta + tb)
        correlator = {
            BellOutcome.PHI_PLUS: minus, BellOutcome.PHI_MINUS: plus,
            BellOutcome.PSI_PLUS: -plus, BellOutcome.PSI_MINUS: -minus,
        }
        p = {c: (1.0 + A * B * e) / 64.0 for c, e in correlator.items()}
        if config.bsm_partial:
            p = {**{c: p[c] for c in _RESOLVED}, BellOutcome.NO_HERALD: sum(p[c] for c in _FOLDED)}
        table.update({(a, b, A, B, c): value for c, value in p.items()})
    return table


# The exact diagnostics as they were while the joint table was a dict keyed
# by (a, b, A, B, c) with BellOutcome members, each walking that dict; here
# they read the table built above.

def marginal_over_c(table: dict[tuple, float]) -> dict[tuple, float]:
    """P(a, b, A, B) from a joint table, summing over the C outcome."""
    out: dict[tuple, float] = {}
    for (a, b, A, B, _c), p in table.items():
        key = (a, b, A, B)
        out[key] = out.get(key, 0.0) + p
    return out


def conditional_given_c(
    table: dict[tuple, float], accept: frozenset[BellOutcome]
) -> dict[tuple, float]:
    """P(a, b, A, B | c_outcome in accept) from a joint table."""
    kept = {k: p for k, p in table.items() if k[4] is not None and k[4] in accept}
    total = sum(kept.values())
    if total <= 0.0:
        raise ValueError("conditioning event has zero probability")
    out: dict[tuple, float] = {}
    for (a, b, A, B, _c), p in kept.items():
        key = (a, b, A, B)
        out[key] = out.get(key, 0.0) + p / total
    return out


def herald_probability(config: ExperimentConfig) -> float:
    """Exact probability that a trial is heralded under the config."""
    table = exact_experiment_distribution(config)
    accept = HERALD_PREDICATES[config.herald]
    return sum((p for k, p in table.items() if k[4] is not None and k[4] in accept), 0.0)


def exact_heralded_correlators(config: ExperimentConfig) -> CorrelatorTable:
    """Correlators of the event-ready subensemble from the exact joint table."""
    return heralded_correlators(exact_experiment_distribution(config),
                                HERALD_PREDICATES[config.herald])


def heralded_correlators(table: dict[tuple, float], accept: frozenset) -> CorrelatorTable:
    """Correlators of the subensemble a joint table heralds with ``accept``."""
    cond = conditional_given_c(table, accept)
    sums: dict[tuple[int, int], float] = {cell: 0.0 for cell in SETTING_PAIRS}
    mass: dict[tuple[int, int], float] = {cell: 0.0 for cell in SETTING_PAIRS}
    for (a, b, A, B), p in cond.items():
        sums[(a, b)] += A * B * p
        mass[(a, b)] += p
    values = {
        cell: (sums[cell] / mass[cell] if mass[cell] > 0.0 else None)
        for cell in SETTING_PAIRS
    }
    return CorrelatorTable(values, {cell: 0 for cell in SETTING_PAIRS})


def exact_chsh(config: ExperimentConfig) -> CHSHResult:
    return chsh(exact_heralded_correlators(config))


def no_difference_check(config: ExperimentConfig, tol: float = 1e-12) -> NdaReport:
    """Compare exact P(a,b,A,B) with the central measurement present
    (marginalized over its outcome) and absent."""
    with_c = marginal_over_c(exact_experiment_distribution(replace(config, c_enabled=True)))
    without_c = marginal_over_c(
        exact_experiment_distribution(replace(config, c_enabled=False))
    )
    keys = set(with_c) | set(without_c)
    diff = max(abs(with_c.get(k, 0.0) - without_c.get(k, 0.0)) for k in keys)
    verdict = NdaVerdict.NO_DIFFERENCE if diff < tol else NdaVerdict.DIFFERENCE
    return NdaReport(diff, verdict)


def fragility(config: ExperimentConfig, tol: float = 1e-15) -> FragilityReport:
    if not config.c_enabled:
        raise ValueError("fragility requires the central measurement to be enabled")
    table = exact_experiment_distribution(config)
    accept = HERALD_PREDICATES[config.herald]
    mass: dict[tuple, float] = defaultdict(float)
    hit: dict[tuple, float] = defaultdict(float)
    for (a, b, A, B, c), p in table.items():
        mass[(a, b, A, B)] += p
        if c is not None and c in accept:
            hit[(a, b, A, B)] += p
    cells = {
        key: (hit[key] / mass[key] if mass[key] > tol else None) for key in mass
    }
    spread = 0.0
    for (a, b, A, B), p in cells.items():
        for flipped in ((1 - a, b, A, B), (a, 1 - b, A, B)):
            q = cells.get(flipped)
            if p is not None and q is not None:
                spread = max(spread, abs(p - q))
    return FragilityReport(dict(cells), spread)


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
    herald_set = HERALD_PREDICATES[config.herald]
    initial = make_two_singlets().amplitudes
    records = []
    for trial_id in range(config.n_trials):
        rng = trial_rng(config.seed, trial_id)
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
                    config.bsm_partial,
                )
        heralded = c_outcome is not None and c_outcome in herald_set
        records.append(TrialRecord(trial_id, a, b, out_a, out_b, c_outcome, heralded))
    return tuple(records)


def _run_toy(n: int, seed: int, rule: AcceptanceRule, record_lambda: bool) -> list[ToyTrial]:
    if n < 1:
        raise ValueError("n must be >= 1")
    weight = rule.weight
    trials = []
    for trial_id in range(n):
        rng = trial_rng(seed, trial_id)
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
    trials = []
    for trial_id in range(n):
        rng = trial_rng(seed, trial_id)
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
    for trial_id in range(n):
        rng = trial_rng(seed, trial_id)
        x = 0 if rng.random() < 0.5 else 1
        outcome, amps = _bsm_step(inputs[x], 3, 0, 1, rng.random(), False)
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


# The column CSV writer as io ran it before it formatted each row from one
# row code: a token list per column per chunk, each line joined field by field.


def _text(trials: Trials, name: str, rows: slice) -> list:
    """Rows ``rows`` of a column as fields: its values looked up in its token
    table, or in decimal for a column without one (trial_id); empty when the
    table lacks the column (the collider toy's lambda pair)."""
    if name not in trials.columns:
        return [""] * (rows.stop - rows.start)
    values = trials[name][rows]
    if name not in _TOKEN_TABLES:
        return list(map(str, values.tolist()))
    offset, tokens = _TOKEN_TABLES[name]
    return tokens[values.astype(np.intp) - offset].tolist()


def _chunks(trials: Trials, names):
    """The fields of the named columns, CHUNK_ROWS rows at a time."""
    for start in range(0, len(trials), CHUNK_ROWS):
        rows = slice(start, min(start + CHUNK_ROWS, len(trials)))
        yield [_text(trials, name, rows) for name in names]


def write_csv(path: str | Path, header: list[str], trials: Trials) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for fields in _chunks(trials, header):
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


# The JSON mirror as io built it before it streamed the records as text:
# one dict per trial, dumped whole with sort_keys and indent=2.


def ensemble_json_payload(ensemble: Trials, meta: dict) -> dict:
    columns = [ensemble[name].tolist() for name in ("trial_id", "a", "b", "A", "B", "heralded")]
    c_tokens = [outcome_token(None if c < 0 else OUTCOMES[c]) for c in ensemble["c_outcome"].tolist()]
    return {
        "meta": dict(meta),
        "records": [
            {"trial_id": i, "a": a, "b": b, "A": A, "B": B, "c_outcome": c, "heralded": h}
            for i, a, b, A, B, h, c in zip(*columns, c_tokens)
        ],
    }


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Records <-> tables, and column-by-column comparison.


# Each builder gives trial_id an integer dtype, which an empty list lacks.
def ensemble_table(records: Sequence[TrialRecord]) -> Trials:
    return Trials({
        "trial_id": np.array([r.trial_id for r in records], dtype=np.int64),
        "a": [r.a for r in records],
        "b": [r.b for r in records],
        "A": [r.A for r in records],
        "B": [r.B for r in records],
        "c_outcome": [-1 if r.c_outcome is None else OUTCOMES.index(r.c_outcome)
                      for r in records],
        "heralded": [r.heralded for r in records],
    })


def toy_table(trials: Sequence[ToyTrial]) -> Trials:
    columns = {"trial_id": np.array([t.trial_id for t in trials], dtype=np.int64)}
    columns.update({
        name: [getattr(t, name) for t in trials] for name in ("a", "b", "A", "B", "accepted")
    })
    if trials and trials[0].lam is not None:
        columns["lambda_A"] = [t.lam[0] for t in trials]
        columns["lambda_B"] = [t.lam[1] for t in trials]
    return Trials(columns)


def rps_table(trials: Sequence[RpsTrial]) -> Trials:
    return Trials({
        "trial_id": np.array([t.trial_id for t in trials], dtype=np.int64),
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
