"""Exact statevector core for small spin systems.

Pure-state representation for up to five qubits, planar spin measurements,
full and partial Bell-state measurements, exhaustive branch enumeration of
measurement plans, and a sampler that draws many trials of one plan at
once. Enumeration and sampling both walk a plan one depth at a time, each
depth one stacked ``_branches`` call with one step per block of rows (one
block per plan when enumerating, one block when sampling), and both report
outcomes as integer codes into ``_branch_outcomes``. Every squared norm (a
state's norm check, the sampler's branch weights, an exact leaf's
probability) is ``_norm_sq`` of C-contiguous rows, which equals ``np.vdot``
of each row bit for bit; the exact walk takes norms only at its leaves.
All operations return new values; states are immutable after construction.

Conventions: qubit 0 is the most significant bit of the basis-state index,
|0> is spin-up, and the singlet is (|01> - |10>)/sqrt(2) with the |01>
amplitude positive. Spin measurements live in the x-z plane: the observable
for angle t is cos(t)*Z + sin(t)*X.
"""

from __future__ import annotations

import bisect
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
# bits, indexed [left/right, term, outcome], and their values, indexed
# [term, outcome] and shaped to broadcast over (outcome, row, pre, mid,
# post). The values are real with a +0 imaginary part, so products with them
# round as real ones.
_BELL_BITS = np.array([np.nonzero(m) for m in _BELL_TENSORS.values()]).transpose(1, 2, 0)
_BELL_VALUES = np.array(
    [m[m != 0].real for m in _BELL_TENSORS.values()], dtype=np.complex128
).T.reshape(2, len(_BELL_TENSORS), 1, 1, 1, 1)


def _partial_outcomes(resolve_psi_plus: bool) -> tuple[list[BellOutcome], list[BellOutcome]]:
    """(resolved outcomes in enum order, outcomes folded into NO_HERALD)."""
    resolved = [BellOutcome.PSI_MINUS]
    folded = [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS]
    if resolve_psi_plus:
        resolved.insert(0, BellOutcome.PSI_PLUS)
    else:
        folded.append(BellOutcome.PSI_PLUS)
    return resolved, folded


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


def _branches(amps: np.ndarray, steps: Sequence[PlanStep]) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome of one plan step for each row of a stack of states.

    ``amps`` has shape (m, 2**n), one unnormalized state per row, and
    ``steps`` holds one step per block of m // len(steps) consecutive rows.
    The steps share their kind and qubits (and a BSM's mode); spin angles
    may differ by block. Returns the unnormalized post-measurement
    amplitudes, shape (m, k, 2**n), with the k outcomes in
    ``_branch_outcomes(steps[0])`` order and NO_HERALD the sum of the folded
    outcomes' projections; and the coefficient stack that ``_weights`` reads,
    shape (m, j, 2**n // 2**(number of measured qubits)), one row per spin
    outcome or Bell state, before any fold.

    This is the one projection onto a step's outcomes: collapse steps, the
    sampler, outcome probabilities and exact enumeration all read it; only
    the first three need weights, so it takes no norms. A row's results do
    not depend on the other rows or on the stack's memory layout: the
    arithmetic is elementwise, and each weight is ``_norm_sq`` of a
    C-contiguous coefficient row.
    """
    amps = np.ascontiguousarray(amps)
    m, size = amps.shape
    step = steps[0]
    if isinstance(step, SpinMeasurement):
        # Axes (block, row, outcome, pre, qubit, post).
        t = amps.reshape(len(steps), m // len(steps), 1, 2**step.qubit, 2, -1)
        # comps[b, k]: block b's (up, down) for outcome +1 (k = 0) at its
        # angle and -1 (k = 1) at the angle plus pi; complex, as the products
        # below are, so that no operand needs a cast.
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
    # Axes (row, pre, lower qubit, mid, higher qubit, post); a Bell tensor's
    # (left, right) bits swap when q_left is the higher qubit.
    qa, qb = sorted((step.q_left, step.q_right))
    t = amps.reshape(m, 2**qa, 2, 2 ** (qb - qa - 1), 2, -1)
    lower, higher = _BELL_BITS if step.q_left < step.q_right else _BELL_BITS[::-1]
    c = _BELL_VALUES
    # Two index arrays apart put the outcome axis first: (outcome, row, pre,
    # mid, post).
    coeffs = c[0] * t[:, :, lower[0], :, higher[0], :] + c[1] * t[:, :, lower[1], :, higher[1], :]
    posts = np.zeros((m, len(_BELL_TENSORS)) + t.shape[1:], dtype=np.complex128)
    outcome = np.arange(len(_BELL_TENSORS))
    for term in (0, 1):
        posts[:, outcome, :, lower[term], :, higher[term], :] = c[term] * coeffs
    posts = posts.reshape(m, len(_BELL_TENSORS), size)
    return _fold(step, posts), coeffs.swapaxes(0, 1).reshape(m, len(_BELL_TENSORS), -1)


def _fold(step: PlanStep, stack: np.ndarray) -> np.ndarray:
    """A stack with one entry per Bell state on axis 1, shape (m, 4, ...), in
    ``_branch_outcomes(step)`` order: a partial BSM keeps its resolved
    outcomes and sums the folded ones, in enum order, into NO_HERALD."""
    if not (isinstance(step, BsmStep) and step.partial):
        return stack
    resolved, folded = _partial_outcomes(step.resolve_psi_plus)
    out = np.zeros((len(stack), len(resolved) + 1) + stack.shape[2:], dtype=stack.dtype)
    out[:, :-1] = stack[:, [_BELL_INDEX[o] for o in resolved]]
    for o in folded:
        out[:, -1] += stack[:, _BELL_INDEX[o]]
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
    posts, coeffs = _branches(amps[None], [step])
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


def _step_shape(step: PlanStep) -> tuple:
    """A step but a spin's angle: what the steps that one ``_branches`` call
    expands together must share."""
    if isinstance(step, SpinMeasurement):
        return (SpinMeasurement, step.qubit)
    return (BsmStep, step.q_left, step.q_right, step.partial, step.resolve_psi_plus)


def _enumerate_plans(
    initial: np.ndarray, plans: Sequence[Sequence[PlanStep]]
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf outcome codes and, for each plan, the leaf probabilities.

    The plans must have equal length, and at each depth their steps must
    share kind, qubits and BSM mode (spin angles may differ), or ValueError:
    one ``_branches`` call, one step per plan's block of rows, expands every
    plan's rows one depth further. Rows stay in plan, then depth-first
    outcome order. Returns the codes, shape (leaves,
    depth), whose entry [i, d] indexes ``_branch_outcomes(plans[0][d])``
    as ``sample_branches``' codes do, in the order a recursion over the
    outcomes visits the leaves; and the probabilities, shape (len(plans),
    leaves), each the squared norm of a leaf's unnormalized amplitudes.
    """
    if not plans:
        raise ValueError("no plans to enumerate")
    shape = list(map(_step_shape, plans[0]))
    for plan in plans[1:]:
        if list(map(_step_shape, plan)) != shape:
            raise ValueError(
                f"plans must match step for step but for spin angles: {plans[0]} vs {plan}"
            )
    states = initial[None].repeat(len(plans), axis=0)
    for depth in range(len(plans[0])):
        posts, _coeffs = _branches(states, [plan[depth] for plan in plans])
        states = posts.reshape(-1, initial.size)
    sizes = [range(len(_branch_outcomes(step))) for step in plans[0]]
    codes = np.array(list(itertools.product(*sizes)), dtype=np.intp).reshape(-1, len(sizes))
    return codes, _norm_sq(states).reshape(len(plans), -1)


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
    codes, (probs,) = _enumerate_plans(initial.amplitudes, [plan])
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
        posts, coeffs = _branches(np.stack([state for state, _ in groups]), [step])
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
