"""Exact statevector core for small spin systems.

Pure-state representation for up to five qubits, planar spin measurements,
full and partial Bell-state measurements, exhaustive branch enumeration of
measurement plans, and a sampler that draws many trials of several plans
at once. Both walk plans that differ only in spin angles one depth at a
time, a spin measured at one angle per block of rows (one block per plan),
and both order a depth's rows as the plans' outcome tree: plan first, then
the ``_plan_codes`` order of the outcomes so far. The sampler's leaves are
therefore the exact walk's rows. Collapses and the sampler draw through
``_draw``.

One kernel, ``_products``, projects onto a step's outcomes: gathers,
products and sums on contiguous vectors through integer index tables that
depend only on the step's shape (its kind and measured qubits) and the
stack's block and row counts (``_branch_tables``), built once per shape. It
returns every term's product and a trailing +0, and a post map gathers any
post from them, +0 where no product lands. ``_branches`` lays every post
out, and ``_draw`` normalizes them into a depth's children;
``_one_state_weights`` lays out none. The exact walk, ``_walk``, lays none
out either, but composes each depth's gathers through the previous depth's
post map (``_walk_tables``), so a depth is a gather and ``_products``. Its
values come from one vector per walk, each distinct angle's spin
components once, through an index composed with the plans' angle picks; a
layout binds its tables once (``engine.exact_leaf_rows``). A partial BSM
shares a full one's tables; ``_fold`` alone merges its unresolved Bell
states into NO_HERALD, for posts and weights alike.
Every squared norm (a state's norm check, the sampler's branch weights, an
exact leaf's probability) is ``_norm_sq`` of C-contiguous rows, which
equals ``np.vdot`` of each row bit for bit; the exact walk takes norms only
at its leaves. All operations return new values; states are immutable
after construction.

Conventions: qubit 0 is the most significant bit of the basis-state index,
|0> is spin-up, and the singlet is (|01> - |10>)/sqrt(2) with the |01>
amplitude positive. Spin measurements live in the x-z plane: the observable
for angle t is cos(t)*Z + sin(t)*X.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

MAX_QUBITS = 5
NORM_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class BellOutcome(Enum):
    """Outcomes of a Bell-state measurement.

    Declaration order fixes the cumulative-threshold order used when
    collapsing with a uniform draw; values double as the ASCII tokens used
    in CSV/JSON artifacts. NO_HERALD only occurs in partial mode.
    """

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    NO_HERALD = "none"


# Bell-basis tensors indexed [left_bit, right_bit].
_BELL_TENSORS: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PHI_PLUS: np.array([[1, 0], [0, 1]], dtype=np.complex128) * _SQRT_HALF,
    BellOutcome.PHI_MINUS: np.array([[1, 0], [0, -1]], dtype=np.complex128) * _SQRT_HALF,
    BellOutcome.PSI_PLUS: np.array([[0, 1], [1, 0]], dtype=np.complex128) * _SQRT_HALF,
    BellOutcome.PSI_MINUS: np.array([[0, 1], [-1, 0]], dtype=np.complex128) * _SQRT_HALF,
}


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        with np.errstate(invalid="ignore"):  # an inf amplitude: a nan norm, rejected below
            norm_sq = float(_norm_sq(amps[None])[0])
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # also rejects a nan norm
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, basis_index: int) -> complex:
        return complex(self.amplitudes[basis_index])


@dataclass(frozen=True)
class SpinMeasurement:
    """Projective spin measurement of cos(angle)*Z + sin(angle)*X on one qubit."""

    qubit: int
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"spin measurement angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class BsmStep:
    """Bell-state measurement step for use in measurement plans."""

    q_left: int
    q_right: int
    partial: bool = False
    resolve_psi_plus: bool = True


PlanStep = Union[SpinMeasurement, BsmStep]


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def bell_state(outcome: BellOutcome) -> StateVector:
    """Two-qubit Bell state for one of the four resolvable outcomes."""
    if outcome not in _BELL_TENSORS:
        raise ValueError(f"{outcome} does not name a Bell state")
    return StateVector(2, _BELL_TENSORS[outcome].reshape(-1))


def singlet() -> StateVector:
    """The singlet (|01> - |10>)/sqrt(2), alias for bell_state(PSI_MINUS)."""
    return bell_state(BellOutcome.PSI_MINUS)


def make_two_singlets() -> StateVector:
    """Four-qubit state singlet(0,1) (x) singlet(2,3)."""
    s = _BELL_TENSORS[BellOutcome.PSI_MINUS].reshape(-1)
    return StateVector(4, np.kron(s, s))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def product_of_pair_states(
    num_qubits: int, pairs: Mapping[tuple[int, int], StateVector]
) -> StateVector:
    """Build an n-qubit state as a product of two-qubit states on disjoint pairs.

    Every qubit index must be covered exactly once; pair order within a key
    matters (first index supplies the first bit of the pair state).
    """
    covered = [q for pair in pairs for q in pair]
    if sorted(covered) != list(range(num_qubits)):
        raise ValueError("pairs must cover all qubit indices exactly once")
    for st in pairs.values():
        if st.num_qubits != 2:
            raise ValueError("pair states must be two-qubit states")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    for idx in range(2**num_qubits):
        val = 1.0 + 0.0j
        for (qi, qj), st in pairs.items():
            bi = (idx >> (num_qubits - 1 - qi)) & 1
            bj = (idx >> (num_qubits - 1 - qj)) & 1
            val *= st.amplitudes[(bi << 1) | bj]
        amps[idx] = val
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit index {q} out of range for {state.num_qubits}-qubit state")


def _spin_components(angle: float) -> tuple[float, float]:
    """+1 eigenvector of cos(angle)*Z + sin(angle)*X (real, the measurement
    plane is x-z); the -1 eigenvector is the +1 eigenvector of angle + pi."""
    return math.cos(angle / 2.0), math.sin(angle / 2.0)


# The two nonzero terms of each Bell tensor, outcomes in enum order: their
# bits, indexed [left/right, term, outcome], and their values, flat at
# [4 * term + outcome]. The values are real with a +0 imaginary part, so
# products with them round as real ones.
_BELL_BITS = np.array([np.nonzero(m) for m in _BELL_TENSORS.values()]).transpose(1, 2, 0)
_BELL_VALUES = np.array(
    [m[m != 0].real for m in _BELL_TENSORS.values()], dtype=np.complex128
).T.ravel()
_BELL_VALUES.flags.writeable = False


def _partial_outcomes(resolve_psi_plus: bool) -> tuple[list[BellOutcome], list[BellOutcome]]:
    """(resolved outcomes in enum order, outcomes folded into NO_HERALD)."""
    resolved = [BellOutcome.PSI_MINUS]
    folded = [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS]
    if resolve_psi_plus:
        resolved.insert(0, BellOutcome.PSI_PLUS)
    else:
        folded.append(BellOutcome.PSI_PLUS)
    return resolved, folded


# How many Bell states a partial BSM folds into NO_HERALD, by
# resolve_psi_plus: the folded ones lead the enum order, the resolved the rest.
_FOLDED = {resolve: len(_partial_outcomes(resolve)[1]) for resolve in (True, False)}


def _branch_outcomes(step: PlanStep) -> list:
    if isinstance(step, SpinMeasurement):
        return [1, -1]
    if not step.partial:
        return list(_BELL_TENSORS)
    resolved, _ = _partial_outcomes(step.resolve_psi_plus)
    return resolved + [BellOutcome.NO_HERALD]


def _norm_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of an (m, n) complex stack, shape (m,).

    Each is the BLAS dot of a C-contiguous row's conjugate with the row, as
    ``np.vdot`` of that row computes it: ``np.vecdot`` on contiguous complex
    rows calls ``zdotc`` once per row, the kernel ``vdot`` calls, so the two
    agree bit for bit. The input is made C-contiguous first, because a
    strided dot sums in another order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    return np.vecdot(rows, rows).real


def _step_shape(step: PlanStep) -> tuple:
    """A step's kind and measured qubits: all of it that ``_branch_tables``
    reads. A BSM's partial and resolve_psi_plus only matter to ``_fold``
    (and so to the exact walk's ``_walk_key``)."""
    if isinstance(step, SpinMeasurement):
        return (SpinMeasurement, step.qubit)
    return (BsmStep, step.q_left, step.q_right)


@functools.lru_cache(maxsize=256)
def _branch_tables(
    shape: tuple, size: int, blocks: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of ``_products`` for a step of one
    ``_step_shape`` on ``blocks`` blocks of ``rows`` states of ``size``
    amplitudes (a spin's blocks each have their own angle): (src, val, post).

    Every coefficient is the sum of two terms, a value times an amplitude.
    ``src`` and ``val`` list term 0 of every coefficient, then term 1,
    coefficients in (row, outcome, position) order: ``src`` indexes the
    stack's flat amplitudes and ``val`` the values (``_spin_values`` of the
    blocks' angles, or ``_BELL_VALUES``). Each term's value times the
    coefficient is a product, and ``post`` maps each flat position of the
    (row, spin outcome or Bell state, amplitude) posts to the product that
    lands there, or to the trailing +0 past the last product where none
    does; no two positions share a product. The tables are one row's
    amplitude positions indexed as the step's (pre, qubit, post) or (pre,
    lower qubit, mid, higher qubit, post) view of the row selects a term,
    then offset row by row; they hold no amplitude, angle or weight.
    """
    if shape[0] is SpinMeasurement:
        amp = np.arange(size).reshape(2 ** shape[1], 2, -1)
        post = np.arange(2 * size).reshape(2, *amp.shape)
        # Term b of outcome k reads bit b of the qubit, with value 2k + b.
        src = [np.broadcast_to(amp[:, bit], (2,) + amp[:, bit].shape) for bit in (0, 1)]
        dst = [post[:, :, bit] for bit in (0, 1)]
        val = [np.arange(bit, 4, 2)[:, None, None] for bit in (0, 1)]
        per_block = 4
    else:
        q_left, q_right = shape[1:]
        qa, qb = sorted((q_left, q_right))
        amp = np.arange(size).reshape(2**qa, 2, 2 ** (qb - qa - 1), 2, -1)
        post = np.arange(len(_BELL_TENSORS) * size).reshape(len(_BELL_TENSORS), *amp.shape)
        # A Bell tensor's (left, right) bits swap when q_left is the higher
        # qubit. Index arrays apart put the outcome axis first.
        lower, higher = _BELL_BITS if q_left < q_right else _BELL_BITS[::-1]
        outcome = np.arange(len(_BELL_TENSORS))
        src = [amp[:, lower[term], :, higher[term]] for term in (0, 1)]
        dst = [post[outcome, :, lower[term], :, higher[term]] for term in (0, 1)]
        val = [(4 * term + outcome)[:, None, None, None] for term in (0, 1)]
        per_block = 0
    row = np.arange(blocks * rows)[:, None]
    src, val, dst = (
        np.concatenate([(offset + np.broadcast_to(term, src[0].shape).reshape(1, -1)).ravel()
                        for term in terms])
        for offset, terms in ((row * size, src), (row // rows * per_block, val),
                              (row * post.size, dst))
    )
    post = np.full(len(row) * post.size, len(dst))
    post[dst] = np.arange(len(dst))
    for table in (src, val, post):
        table.flags.writeable = False
    return src, val, post


def _spin_values(angles: Sequence[float]) -> np.ndarray:
    """The values ``_branch_tables`` indexes for a spin step, one block per
    angle, flat at [4 * block + 2 * outcome + bit]: the (up, down)
    components of outcome +1 at the block's angle, then of -1 at the angle
    plus pi; complex, as the products are, so that no operand needs a cast."""
    values: list[float] = []
    for angle in angles:
        values += _spin_components(angle) + _spin_components(angle + math.pi)
    return np.array(values, dtype=np.complex128)


def _products(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one projection kernel. ``v`` and ``x`` hold each coefficient's
    two terms' values and amplitudes, term 0 of every coefficient and then
    term 1, as ``_branch_tables``' ``val`` and ``src`` gather them. Returns
    each term's value times its coefficient with a trailing +0, the vector
    a post map gathers posts from, and the coefficients."""
    terms = v * x
    half = len(terms) // 2
    coeffs = terms[:half] + terms[half:]
    products = np.empty(len(terms) + 1, dtype=np.complex128)
    np.multiply(v.reshape(2, half), coeffs, out=products[:-1].reshape(2, half))
    products[-1] = 0.0
    return products, coeffs


def _project(
    amps: np.ndarray, step: PlanStep, angles: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_products`` of one step on a stack of states, as ``_branches``
    reads them: (products, the coefficient stack of shape (m, j, -1), and
    the post map of shape (m, j, 2**n) into the products)."""
    m, size = np.shape(amps)
    if isinstance(step, SpinMeasurement):
        angles = [step.angle] if angles is None else angles
        values, j, blocks = _spin_values(angles), 2, len(angles)
    else:
        values, j, blocks = _BELL_VALUES, len(_BELL_TENSORS), 1
    src, val, post = _branch_tables(_step_shape(step), size, blocks, m // blocks)
    products, coeffs = _products(values[val], np.ravel(amps)[src])
    return products, coeffs.reshape(m, j, -1), post.reshape(m, j, size)


def _branches(
    amps: np.ndarray, step: PlanStep, angles: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome of one plan step for each row of a stack of states.

    ``amps`` has shape (m, 2**n), one unnormalized state per row. A spin
    step measures every row at its angle or, given ``angles``, each block
    of m // len(angles) consecutive rows at its own angle. Returns the
    unnormalized post-measurement amplitudes, shape (m, k, 2**n), with the
    k outcomes in ``_branch_outcomes(step)`` order and NO_HERALD the sum of
    the folded outcomes' projections; and the coefficient stack that
    ``_weights`` reads, shape (m, j, 2**n // 2**(number of measured
    qubits)), one row per spin outcome or Bell state, before any fold.

    Collapse steps and the sampler lay their posts out through here, one
    call per depth (``_draw``); outcome probabilities read the same
    ``_products`` through ``_project``, and the exact walk composes them
    depth by depth. The work is flat and its index tables depend on the
    shapes alone (``_branch_tables``): two gathers, two products and a sum
    per coefficient, then one product per term; the posts are one gather of
    the products through the post map, ``_fold``-ed for a partial BSM, as
    its weights are. Every ufunc runs on a contiguous vector, and a row's
    results do not depend on the other rows or on the stack's memory
    layout.
    """
    products, coeffs, post = _project(amps, step, angles)
    return _fold(step, products[post]), coeffs


def _fold(step: PlanStep, stack: np.ndarray) -> np.ndarray:
    """A stack with one entry per spin outcome or Bell state on axis 1,
    shape (m, j, ...), put in ``_branch_outcomes(step)`` order: a partial
    BSM keeps its resolved outcomes and sums the folded ones, in enum
    order from +0, into NO_HERALD; any other step's stack is returned as it
    is. This is the one place a partial BSM merges outcomes, for posts and
    ``_weights``' weights alike."""
    if not (isinstance(step, BsmStep) and step.partial):
        return stack
    folded = _FOLDED[step.resolve_psi_plus]
    out = np.empty((len(stack), len(_BELL_TENSORS) - folded + 1) + stack.shape[2:], stack.dtype)
    out[:, :-1] = stack[:, folded:]
    out[:, -1] = sum(stack[:, k] for k in range(folded))  # sum() starts at int 0, so at +0
    return out


def _weights(step: PlanStep, coeffs: np.ndarray) -> np.ndarray:
    """Branch weights of ``_branches``' rows, shape (m, k) in
    ``_branch_outcomes(step)`` order, from its coefficient stack: each
    outcome's squared norm, NO_HERALD the sum of the folded outcomes'."""
    m, j, _ = coeffs.shape
    return _fold(step, _norm_sq(coeffs.reshape(m * j, -1)).reshape(m, j))


def _one_state_weights(amps: np.ndarray, step: PlanStep) -> list[float]:
    """A single state's branch weights as floats, in ``_branch_outcomes(step)``
    order, from its coefficients alone: no post is laid out."""
    return _weights(step, _project(amps[None], step, None)[1])[0].tolist()


def _draw(
    step: PlanStep,
    states: np.ndarray,
    node: np.ndarray,
    draws: np.ndarray,
    angles: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The draw rule of every collapse and sampled depth. Row i draws
    ``draws[i]`` from state ``node[i]`` of the (m, 2**n) ``states``, a spin
    measuring the states at ``angles`` as ``_branches`` does. The slot edges
    are each state's cumulative weights, a spin's first only; a row's slot
    is the count of edges at or below its draw, or, past a BSM's last edge
    (the sum fell short of 1), its last outcome of positive weight. Returns
    each row's child ``node * k + slot``, its slot an index into
    ``_branch_outcomes(step)``, and every state's children, shape (m * k,
    2**n): child ``node * k + outcome`` is that ``_branches`` post over the
    square root of its weight, +0 where the weight is 0.
    """
    posts, coeffs = _branches(states, step, angles)
    weights = _weights(step, coeffs)
    m, k = weights.shape
    edges = np.cumsum(weights, axis=1)  # sequential, as itertools.accumulate adds
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


def _collapse(amps: np.ndarray, step: PlanStep, draw: float) -> tuple[object, np.ndarray]:
    """Raw collapse of one step with a uniform draw; inputs assumed valid."""
    (child,), children = _draw(step, amps[None], np.zeros(1, dtype=np.intp), np.array([draw]))
    return _branch_outcomes(step)[child], children[child]


# Nothing in swapsim calls these two; engine and analysis import them so
# that bench/tracer.py can wrap the names.
def _spin_step(
    amps: np.ndarray, n: int, qubit: int, angle: float, draw: float
) -> tuple[int, np.ndarray]:
    return _collapse(amps, SpinMeasurement(qubit, angle), draw)


def _bsm_step(
    amps: np.ndarray,
    n: int,
    q_left: int,
    q_right: int,
    draw: float,
    partial: bool,
    resolve_psi_plus: bool,
) -> tuple[BellOutcome, np.ndarray]:
    return _collapse(amps, BsmStep(q_left, q_right, partial, resolve_psi_plus), draw)


def prob_spin_up(state: StateVector, m: SpinMeasurement) -> float:
    """Born probability of the +1 outcome."""
    _check_qubit(state, m.qubit)
    return min(max(_one_state_weights(state.amplitudes, m)[0], 0.0), 1.0)


def measure_spin(
    state: StateVector, m: SpinMeasurement, draw: float
) -> tuple[int, StateVector]:
    """Collapse one spin with a uniform draw in [0, 1).

    The +1 outcome occupies [0, P(+1)), the -1 outcome the rest.
    """
    _check_qubit(state, m.qubit)
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must be in [0, 1), got {draw!r}")
    outcome, post = _collapse(state.amplitudes, m, draw)
    return outcome, StateVector(state.num_qubits, post)


def bell_outcome_probabilities(
    state: StateVector,
    q_left: int,
    q_right: int,
    partial: bool = False,
    resolve_psi_plus: bool = True,
) -> dict[BellOutcome, float]:
    """Exact outcome distribution of a Bell-state measurement on (q_left, q_right)."""
    _check_qubit(state, q_left)
    _check_qubit(state, q_right)
    if q_left == q_right:
        raise ValueError("Bell-state measurement needs two distinct qubits")
    step = BsmStep(q_left, q_right, partial, resolve_psi_plus)
    return dict(zip(_branch_outcomes(step), _one_state_weights(state.amplitudes, step)))


def bell_state_measurement(
    state: StateVector,
    q_left: int,
    q_right: int,
    draw: float,
    partial: bool = False,
    resolve_psi_plus: bool = True,
) -> tuple[BellOutcome, StateVector]:
    """Collapse qubits (q_left, q_right) onto the Bell basis.

    Full mode resolves all four Bell states. Partial mode models a
    photonic-style analyzer: PSI_MINUS (and optionally PSI_PLUS) are
    resolved; the remaining outcomes merge into NO_HERALD, projecting the
    state onto their joint subspace.
    """
    _check_qubit(state, q_left)
    _check_qubit(state, q_right)
    if q_left == q_right:
        raise ValueError("Bell-state measurement needs two distinct qubits")
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must be in [0, 1), got {draw!r}")
    step = BsmStep(q_left, q_right, partial, resolve_psi_plus)
    outcome, post = _collapse(state.amplitudes, step, draw)
    return outcome, StateVector(state.num_qubits, post)


def _validate_plan(n: int, plan: Sequence[PlanStep]) -> None:
    for step in plan:
        if isinstance(step, SpinMeasurement):
            if not 0 <= step.qubit < n:
                raise ValueError(f"plan step {step} exceeds the {n}-qubit budget")
        else:
            if step.q_left == step.q_right:
                raise ValueError("Bell-state measurement needs two distinct qubits")
            for q in (step.q_left, step.q_right):
                if not 0 <= q < n:
                    raise ValueError(f"plan step {step} exceeds the {n}-qubit budget")


def _plan_codes(plan: Sequence[PlanStep]) -> np.ndarray:
    """Every outcome sequence of a plan as integer codes, shape (leaves,
    depth), in the order a recursion over the outcomes visits the leaves:
    entry [i, d] indexes ``_branch_outcomes(plan[d])``, as ``sample_branches``'
    codes do. These are the rows of ``_enumerate_plans``' leaves."""
    sizes = [range(len(_branch_outcomes(step))) for step in plan]
    return np.array(list(itertools.product(*sizes)), dtype=np.intp).reshape(-1, len(plan))


def _plan_angles(plan: Sequence[PlanStep], angles: Sequence[Sequence[float]]) -> list:
    """Each step's spin angle per plan, None for a BSM; raises ValueError
    unless every plan has one angle per spin step of ``plan``."""
    spins = [isinstance(step, SpinMeasurement) for step in plan]
    if not angles or any(len(row) != sum(spins) for row in angles):
        raise ValueError(f"plans need {sum(spins)} spin angles each, got {angles!r}")
    columns = zip(*angles)
    return [next(columns) if spin else None for spin in spins]


def _walk_key(step: PlanStep) -> tuple:
    """All of a step that the exact walk's tables read: its shape and, for
    a BSM, whether and how it folds."""
    if isinstance(step, SpinMeasurement):
        return _step_shape(step)
    return _step_shape(step) + (step.partial, step.resolve_psi_plus)


@functools.lru_cache(maxsize=64)
def _walk_tables(keys: tuple, size: int, picks: tuple) -> tuple:
    """Read-only index tables of the exact walk, from one state of ``size``
    amplitudes, of ``len(picks)`` plans of steps with ``_walk_key``s
    ``keys``, plan p measuring its s-th spin step at angle ``picks[p][s]``
    of the walk's angles: (val, depths, leaves).

    ``val`` gathers every depth's values at once from the walk's value
    vector, ``_BELL_VALUES`` and then the angles' ``_spin_values``: it is
    ``_branch_tables``' val with each spin block's index composed through
    ``picks``, so an angle that plans or depths share is read from one
    block. Depth d's entry in ``depths`` is (src, post, step): ``src``
    indexes the previous depth's products (the initial state's amplitudes
    at depth 0), as ``_branch_tables``' src composed through that depth's
    post map, so no post stack is laid out; ``post`` is the post map of a
    partial BSM ``step``, shaped (rows, Bell state, amplitude), whose posts
    are laid out and ``_fold``-ed, and None otherwise. ``leaves`` gathers
    the leaves, rows in plan, then depth-first outcome order, from the last
    products; None when a fold already laid them out. The tables hold no
    angle, amplitude or weight.
    """
    plans = len(picks)
    # Where each flat position of the current stack is read from; None
    # once a fold has laid the stack out.
    position = np.tile(np.arange(size), plans)
    rows, spin, vals, depths = plans, 0, [], []
    for key in keys:
        step = None if key[0] is SpinMeasurement else BsmStep(*key[1:])
        blocks, k = (plans, 2) if step is None else (1, len(_branch_outcomes(step)))
        src, val, post = _branch_tables(key[:3], size, blocks, rows // blocks)
        if step is None:
            # Plan p's block of 4 values is its angle's, past the Bell values.
            block = len(_BELL_VALUES) + 4 * np.array([pick[spin] for pick in picks], np.intp)
            val = block[val // 4] + val % 4
            spin += 1
        vals.append(val)
        if position is not None:
            src = position[src]
            src.flags.writeable = False
        fold = step is not None and step.partial
        depths.append((src, post.reshape(rows, len(_BELL_TENSORS), size) if fold else None, step))
        position = None if fold else post
        rows *= k
    val = np.concatenate(vals) if vals else np.zeros(0, dtype=np.intp)
    for table in (val, position):
        if table is not None:
            table.flags.writeable = False
    return val, tuple(depths), position


def _walk(initial: np.ndarray, angles: Sequence[float], tables: tuple) -> np.ndarray:
    """Leaf probabilities of the exact walk of ``_walk_tables``' ``tables``
    from the amplitudes ``initial``, their picks indexing ``angles``: flat,
    rows in plan, then depth-first outcome order, each the squared norm of
    a leaf's unnormalized amplitudes.

    One gather of every depth's values from ``_BELL_VALUES`` and the
    angles' ``_spin_values``, each angle's computed once; per depth, one
    gather of its amplitudes from the previous depth's products and one
    ``_products`` call, a partial BSM's posts laid out and folded; then
    the leaves' gather and one ``_norm_sq`` call, the walk's only norms.
    """
    val, depths, leaves = tables
    v = np.concatenate([_BELL_VALUES, _spin_values(angles)])[val]
    x, start = initial, 0
    for src, post, step in depths:
        x, _coeffs = _products(v[start : start + len(src)], x[src])
        start += len(src)
        if post is not None:
            x = _fold(step, x[post]).reshape(-1)
    if leaves is not None:
        x = x[leaves]
    return _norm_sq(x.reshape(-1, initial.size))


def _enumerate_plans(
    initial: np.ndarray, plan: Sequence[PlanStep], angles: Sequence[Sequence[float]]
) -> np.ndarray:
    """Leaf probabilities of plans that are ``plan`` but for spin angles,
    shape (len(angles), leaves): plan p measures the template's s-th spin
    step at ``angles[p][s]`` in place of the step's own angle, and each
    probability is the squared norm of a leaf's unnormalized amplitudes.

    The plans are walked together one depth at a time by ``_walk``, one
    block of rows per plan, each plan's angles its own; rows stay in plan,
    then depth-first outcome order, so each plan's leaves are in
    ``_plan_codes(plan)`` order.
    """
    _plan_angles(plan, angles)  # raises unless each plan has its spin angles
    spins = len(angles[0])
    picks = tuple(tuple(range(p * spins, (p + 1) * spins)) for p in range(len(angles)))
    tables = _walk_tables(tuple(map(_walk_key, plan)), initial.size, picks)
    flat = [angle for row in angles for angle in row]
    return _walk(initial, flat, tables).reshape(len(angles), -1)


def exact_branch_enumeration(
    initial: StateVector, plan: Sequence[PlanStep]
) -> dict[tuple, float]:
    """Full joint outcome distribution of a measurement plan, by expanding
    every branch one depth at a time (no sampling).

    Keys are outcome tuples in plan order (ints for spins, BellOutcome for
    BSM steps), in depth-first order, including zero-probability branches;
    values sum to 1. Each branch carries its unnormalized amplitudes, so a
    leaf's probability is its squared norm.
    """
    _validate_plan(initial.num_qubits, plan)
    angles = [step.angle for step in plan if isinstance(step, SpinMeasurement)]
    (probs,) = _enumerate_plans(initial.amplitudes, plan, [angles])
    codes = _plan_codes(plan)
    outcomes = [_branch_outcomes(step) for step in plan]
    keys = [tuple(outs[c] for outs, c in zip(outcomes, row)) for row in codes.tolist()]
    return dict(zip(keys, probs.tolist()))


def _sample_leaves(
    initials: np.ndarray,
    plan: Sequence[PlanStep],
    angles: Sequence[Sequence[float]],
    plan_of_row: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Sample the plans ``_enumerate_plans`` reads from ``plan`` and
    ``angles`` in one walk: trial i runs plan p = ``plan_of_row[i]`` from
    ``initials[p]`` with draws ``draws[i]``. Returns each trial's leaf as
    its row of ``_enumerate_plans``' flattened leaves, plan first, then
    ``_plan_codes(plan)`` order.

    The walk runs down the plans' whole outcome tree, in that row order: at
    each depth one ``_draw`` lays out every node's children, and each trial
    moves to node ``node * k + slot``. A node's state depends only on its
    plan and outcomes so far, so a trial's draws meet the same weights as a
    step-by-step collapse's."""
    columns = _plan_angles(plan, angles)
    states, node = initials, np.asarray(plan_of_row, dtype=np.intp)
    for step, column, draw in zip(plan, columns, np.asarray(draws).T):
        node, states = _draw(step, states, node, draw, column)
    return node


def sample_branches(
    initial: StateVector, plan: Sequence[PlanStep], draws: np.ndarray
) -> np.ndarray:
    """Sample a measurement plan for many trials at once: ``_sample_leaves``
    with one plan, its leaves decoded through ``_plan_codes``. It lays out
    the plan's full outcome tree, as ``exact_branch_enumeration`` does,
    whatever the trial count.

    ``draws`` has shape (m, len(plan)); row i holds the uniform draws trial
    i feeds to the plan's steps in order. Returns an int8 array of the same
    shape whose entry [i, d] indexes ``_branch_outcomes(plan[d])``: the
    outcomes of the collapse steps called in turn with those draws, as both
    draw through ``_draw``.
    """
    _validate_plan(initial.num_qubits, plan)
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != len(plan):
        raise ValueError(f"draws must have shape (m, {len(plan)}), got {draws.shape}")
    if draws.size and not (draws.min() >= 0.0 and draws.max() < 1.0):
        raise ValueError("draws must lie in [0, 1)")
    angles = [[step.angle for step in plan if isinstance(step, SpinMeasurement)]]
    leaves = _sample_leaves(initial.amplitudes[None], plan, angles, np.zeros(len(draws), int), draws)
    return _plan_codes(plan)[leaves].astype(np.int8)
