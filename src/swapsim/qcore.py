"""Exact statevector core for small spin systems.

Pure-state representation for up to five qubits, planar spin measurements,
full and partial Bell-state measurements, exhaustive branch enumeration of
measurement plans, and a sampler that draws many trials of one plan at
once. Enumeration and sampling both walk a plan one depth at a time, each
depth one stacked ``_branches`` call (a spin measured at one angle per
block of rows: one block per plan when enumerating, one block when
sampling), and both report outcomes as integer codes into
``_branch_outcomes``. ``_branches`` is flat: gathers, products and sums on
contiguous vectors through integer index tables that depend only on the
step's shape and the stack's block and row counts, built once per shape.
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

import bisect
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


_BELL_INDEX = {outcome: k for k, outcome in enumerate(_BELL_TENSORS)}
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


# A partial BSM's (resolved, folded) Bell indices in enum order, by
# resolve_psi_plus.
_FOLDS = {
    resolve: tuple([_BELL_INDEX[o] for o in outcomes] for outcomes in _partial_outcomes(resolve))
    for resolve in (True, False)
}
# +0 and -0 as complex: x + (-0 - 0j) is x for every x.
_SIGNED_ZEROS = np.array([complex(0.0, 0.0), complex(-0.0, -0.0)])
_SIGNED_ZEROS.flags.writeable = False


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
    ``np.vdot`` of that row computes it: a stacked vector-vector ``matmul``
    on contiguous complex data calls ``zdotu``, the kernel family of the
    ``zdotc`` that ``vdot`` calls, so the two agree bit for bit. The input is
    made C-contiguous first, because a strided dot sums in another order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    return np.matmul(rows.conj()[:, None, :], rows[:, :, None])[:, 0, 0].real


def _step_shape(step: PlanStep) -> tuple:
    """A step but a spin's angle: all of it that ``_branch_tables`` reads."""
    if isinstance(step, SpinMeasurement):
        return (SpinMeasurement, step.qubit)
    return (BsmStep, step.q_left, step.q_right, step.partial, step.resolve_psi_plus)


@functools.lru_cache(maxsize=256)
def _branch_tables(
    shape: tuple, size: int, blocks: int, rows: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Read-only index tables of ``_branches`` for a step of one
    ``_step_shape`` on ``blocks`` blocks of ``rows`` states of ``size``
    amplitudes (a spin's blocks each have their own angle): (src, val,
    gathers).

    Every coefficient is the sum of two terms, a value times an amplitude.
    ``src`` and ``val`` list term 0 of every coefficient, then term 1,
    coefficients in (row, outcome, position) order: ``src`` indexes the
    stack's flat amplitudes and ``val`` the values (``_spin_values`` of the
    blocks' angles, or ``_BELL_VALUES``). Each term's value times the
    coefficient is a product; the products, then +0 and -0, are the vector
    the ``gathers`` index, and the flat posts are the sum of its gathers in
    order. Without a fold there is one gather, which reads each post
    amplitude from the product that lands there, or +0. The tables are one
    row's amplitude positions indexed as the step's (pre, qubit, post) or
    (pre, lower qubit, mid, higher qubit, post) view of the row selects a
    term, then offset row by row; they hold no amplitude, angle or weight.
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
        q_left, q_right = shape[1:3]
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
    place = np.full(len(row) * post.size, len(dst))  # +0 where no product lands
    place[dst] = np.arange(len(dst))
    if shape[0] is BsmStep and shape[3]:
        gathers = _fold_gathers(place.reshape(len(row), len(post), size), len(dst), shape[4])
    else:
        gathers = (place,)
    for table in (src, val) + gathers:
        table.flags.writeable = False
    return src, val, gathers


def _fold_gathers(
    place: np.ndarray, zero: int, resolve_psi_plus: bool
) -> tuple[np.ndarray, ...]:
    """The three gathers of a partial BSM's posts, from the place in the
    product vector of each unfolded post amplitude, shape (m, 4, size):
    ``zero``, +0's place, where no product lands, and -0's is next.

    A resolved outcome's amplitude is its place's, plus -0 twice, which
    changes no value. NO_HERALD's is +0 plus the folded outcomes'
    amplitudes in enum order, as ``_fold`` sums them. Only two of those can
    be products (two folded Bell states share their places; the third uses
    the other two). The rest are +0, and adding +0 changes no sum that
    starts from +0, since such a sum is never -0.
    """
    resolved, folded = _FOLDS[resolve_psi_plus]
    # The folded outcomes' products at each place, in enum order, then -0s.
    terms = place[:, folded]
    terms = np.take_along_axis(terms, np.argsort(terms == zero, axis=1, kind="stable"), axis=1)
    assert (terms[:, 2:] == zero).all()
    terms[terms == zero] = zero + 1
    none = np.full((len(place), len(resolved), place.shape[2]), zero + 1)
    gathers = (
        [place[:, resolved], np.full_like(terms[:, :1], zero)],
        [none, terms[:, :1]],
        [none, terms[:, 1:2]],
    )
    return tuple(np.concatenate(parts, axis=1).ravel() for parts in gathers)


def _spin_values(angles: Sequence[float]) -> np.ndarray:
    """The values ``_branch_tables`` indexes for a spin step, one block per
    angle, flat at [4 * block + 2 * outcome + bit]: the (up, down)
    components of outcome +1 at the block's angle, then of -1 at the angle
    plus pi; complex, as the products are, so that no operand needs a cast."""
    values: list[float] = []
    for angle in angles:
        values += _spin_components(angle) + _spin_components(angle + math.pi)
    return np.array(values, dtype=np.complex128)


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

    This is the one projection onto a step's outcomes: collapse steps, the
    sampler, outcome probabilities and exact enumeration all read it; only
    the first three need weights, so it takes no norms. The work is flat
    and its index tables depend on the shapes alone (``_branch_tables``):
    two gathers, two products and a sum per coefficient, then one product
    per term and the posts gathered from them (and summed, for a partial
    BSM's fold). Every ufunc runs on a contiguous vector, and a row's
    results do not depend on the other rows or on the stack's memory
    layout.
    """
    m, size = np.shape(amps)
    if isinstance(step, SpinMeasurement):
        angles = [step.angle] if angles is None else angles
        values, j, blocks = _spin_values(angles), 2, len(angles)
    else:
        values, j, blocks = _BELL_VALUES, len(_BELL_TENSORS), 1
    src, val, gathers = _branch_tables(_step_shape(step), size, blocks, m // blocks)
    v = values[val]
    terms = v * np.ravel(amps)[src]
    half = len(terms) // 2
    coeffs = terms[:half] + terms[half:]
    products = np.empty(len(terms) + 2, dtype=np.complex128)
    np.multiply(v.reshape(2, half), coeffs, out=products[:-2].reshape(2, half))
    products[-2:] = _SIGNED_ZEROS
    posts = products[gathers[0]]
    for gather in gathers[1:]:
        posts += products[gather]
    return posts.reshape(m, -1, size), coeffs.reshape(m, j, -1)


def _fold(step: PlanStep, stack: np.ndarray) -> np.ndarray:
    """A stack with one entry per Bell state on axis 1, shape (m, 4, ...), in
    ``_branch_outcomes(step)`` order: a partial BSM keeps its resolved
    outcomes and sums the folded ones, in enum order, into NO_HERALD."""
    if not (isinstance(step, BsmStep) and step.partial):
        return stack
    resolved, folded = _FOLDS[step.resolve_psi_plus]
    out = np.zeros((len(stack), len(resolved) + 1) + stack.shape[2:], dtype=stack.dtype)
    out[:, :-1] = stack[:, resolved]
    for k in folded:
        out[:, -1] += stack[:, k]
    return out


def _weights(step: PlanStep, coeffs: np.ndarray) -> np.ndarray:
    """Branch weights of ``_branches``' rows, shape (m, k) in
    ``_branch_outcomes(step)`` order, from its coefficient stack: each
    outcome's squared norm, NO_HERALD the sum of the folded outcomes'."""
    m, j, _ = coeffs.shape
    return _fold(step, _norm_sq(coeffs.reshape(m * j, -1)).reshape(m, j))


def _step_thresholds(step: PlanStep, weights: list[float]) -> list[float]:
    """Upper edges of the draw slots of one step: its cumulative weights.

    Slot i covers [edge i-1, edge i). A spin keeps only its first edge, so
    the -1 outcome takes every draw at or above P(+1); a BSM draw at or
    above its last edge falls in an extra slot (see ``_take``).
    """
    edges = list(itertools.accumulate(weights))
    return edges[:-1] if isinstance(step, SpinMeasurement) else edges


def _take(weights: list[float], posts: np.ndarray, slot: int) -> tuple[int, np.ndarray]:
    """(outcome index, normalized post-state) for a draw in ``slot``, from
    one state's branch weights and unnormalized posts.

    The slot past a BSM's last edge, where cumulative rounding fell short
    of 1, takes the last outcome of positive weight. Raises RuntimeError
    when the slot's outcome has zero weight.
    """
    if slot == len(weights):
        positive = [i for i, weight in enumerate(weights) if weight > 0.0]
        if not positive:
            raise RuntimeError("no Bell outcome has positive probability")
        slot = positive[-1]
    weight = weights[slot]
    if weight <= 0.0:
        raise RuntimeError("drew an outcome with zero-norm projection")
    return slot, posts[slot] / math.sqrt(weight)


def _one_state_branches(amps: np.ndarray, step: PlanStep) -> tuple[list[float], np.ndarray]:
    """``_branches`` of a single state: (weights as floats, posts (k, 2**n))."""
    posts, coeffs = _branches(amps[None], step)
    return _weights(step, coeffs)[0].tolist(), posts[0]


def _collapse(amps: np.ndarray, step: PlanStep, draw: float) -> tuple[object, np.ndarray]:
    """Raw collapse of one step with a uniform draw; inputs assumed valid."""
    weights, posts = _one_state_branches(amps, step)
    index, post = _take(weights, posts, bisect.bisect_right(_step_thresholds(step, weights), draw))
    return _branch_outcomes(step)[index], post


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
    return min(max(_one_state_branches(state.amplitudes, m)[0][0], 0.0), 1.0)


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
    return dict(zip(_branch_outcomes(step), _one_state_branches(state.amplitudes, step)[0]))


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


def _enumerate_plans(
    initial: np.ndarray, plan: Sequence[PlanStep], angles: Sequence[Sequence[float]]
) -> np.ndarray:
    """Leaf probabilities of plans that are ``plan`` but for spin angles,
    shape (len(angles), leaves): plan p measures the template's s-th spin
    step at ``angles[p][s]`` in place of the step's own angle, and each
    probability is the squared norm of a leaf's unnormalized amplitudes.

    One ``_branches`` call per depth expands every plan's rows, one block
    of rows per plan; rows stay in plan, then depth-first outcome order, so
    each plan's leaves are in ``_plan_codes(plan)`` order. The only norms
    are one ``_norm_sq`` call over the leaves.
    """
    spins = sum(isinstance(step, SpinMeasurement) for step in plan)
    if not angles or any(len(row) != spins for row in angles):
        raise ValueError(f"plans need {spins} spin angles each, got {angles!r}")
    states = initial[None].repeat(len(angles), axis=0)
    spin = 0
    for step in plan:
        if isinstance(step, SpinMeasurement):
            posts, _coeffs = _branches(states, step, [row[spin] for row in angles])
            spin += 1
        else:
            posts, _coeffs = _branches(states, step)
        states = posts.reshape(-1, initial.size)
    return _norm_sq(states).reshape(len(angles), -1)


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


def sample_branches(
    initial: StateVector, plan: Sequence[PlanStep], draws: np.ndarray
) -> np.ndarray:
    """Sample a measurement plan for many trials at once.

    ``draws`` has shape (m, len(plan)); row i holds the uniform draws trial
    i feeds to the plan's steps in order. Returns an int8 array of the same
    shape whose entry [i, d] indexes ``_branch_outcomes(plan[d])``. Each
    row's outcomes are those of calling the collapse steps one after another
    with that row's draws: the post-measurement state depends only on the
    outcomes so far, so the walk goes one depth at a time with one group
    per slot sequence drawn so far, its collapsed state and its rows. One
    ``_branches`` call expands every group's state; a group's slot edges are
    its state's cumulative weights.
    """
    n = initial.num_qubits
    _validate_plan(n, plan)
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != len(plan):
        raise ValueError(f"draws must have shape (m, {len(plan)}), got {draws.shape}")
    if draws.size and not (draws.min() >= 0.0 and draws.max() < 1.0):
        raise ValueError("draws must lie in [0, 1)")
    codes = np.full(draws.shape, -1, dtype=np.int8)
    if not draws.size:
        return codes
    groups = [(initial.amplitudes, np.arange(len(draws)))]
    for depth, step in enumerate(plan):
        posts, coeffs = _branches(np.stack([state for state, _ in groups]), step)
        weights = _weights(step, coeffs)
        next_groups = []
        for (_, rows), group_posts, group_weights in zip(groups, posts, weights.tolist()):
            edges = _step_thresholds(step, group_weights)
            slots = np.searchsorted(edges, draws[rows, depth], side="right")
            for slot in range(len(edges) + 1):
                sel = rows[slots == slot]
                if sel.size:
                    code, post = _take(group_weights, group_posts, slot)
                    codes[sel, depth] = code
                    next_groups.append((post, sel))
        groups = next_groups
    return codes
