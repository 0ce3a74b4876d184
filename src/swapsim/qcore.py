"""Exact statevector core for small spin systems.

Pure states of up to five qubits, and two entries over plans of planar spin
and full or partial Bell-state measurements: exhaustive branch enumeration
(``exact_branch_enumeration``) and sampling (``sample_branches``). One walk
serves both: ``_walk_tables`` lays out plans that differ only in spin
angles one depth at a time, a spin measured at one angle per block of rows
(one block per plan), rows in the plans' outcome tree order: plan first,
then the ``_plan_codes`` order of the outcomes so far. The exact walk
(``_walk``) takes the squared norms of the leaves; the sampler
(``_sample_leaves``) draws each trial's child per depth from the branch
weights (``_draw``), so its leaves are the exact walk's rows. A collapse
(``_collapse``, kept for the step names bench/tracer.py wraps) is a
one-trial sample of a one-step plan, down to its normalized leaves.

One kernel, ``_products``, projects onto a step's outcomes: gathers,
products and sums on contiguous vectors through integer index tables that
depend only on the step's shape (its kind and measured qubits) and the
stack's block and row counts (``_branch_tables``), built once per shape. It
returns every term's product and a trailing +0, and a post map gathers any
post from them, +0 where no product lands. The walk lays no post out but
composes each depth's gathers through the previous depth's post map, so a
depth is a gather and ``_products``; only a partial BSM's posts are laid
out. A partial BSM has one form: it resolves psi+ and psi-, and ``_fold``
alone merges phi+ and phi- into NO_HERALD, for posts and weights alike.
``_bind_walk`` binds the tables to a start state and runs once all that
reads no angle: the first gather of amplitudes and any leading BSM depth;
each engine layout binds its walk once, on first use
(``engine.exact_leaf_rows``). A call's values come from one vector,
the Bell values and each distinct angle's spin components once, through an
index composed with the plans' angle picks.
Every squared norm (a state's norm check, the sampler's branch weights, an
exact leaf's probability) is ``_norm_sq`` of C-contiguous complex rows,
which equals ``np.vdot`` of each row bit for bit. ``_products`` keeps its
inputs' dtype: the exact walk runs on float64 rows, complex only in its
leaf norms. All operations return new values; states are immutable after
construction.

Conventions: qubit 0 is the most significant bit of the basis-state index,
|0> is spin-up, and the singlet is (|01> - |10>)/sqrt(2) with the |01>
amplitude positive. Spin measurements live in the x-z plane: the observable
for angle t is cos(t)*Z + sin(t)*X.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

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
        object.__setattr__(self, "num_qubits", _int_field(self.num_qubits, "num_qubits"))
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


# The field checks of every module's inputs; each raises ValueError naming the field.
def _int_field(value, name: str) -> int:
    """``value`` as an int, if it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _bool_field(value, name: str) -> bool:
    """``value`` as a bool, if it is one (a Python or numpy bool)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _real_field(value, name: str) -> float:
    """``value`` as a float, if it is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SpinMeasurement:
    """Projective spin measurement of cos(angle)*Z + sin(angle)*X on one qubit."""

    qubit: int
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _int_field(self.qubit, "qubit"))
        object.__setattr__(self, "angle", _real_field(self.angle, "spin measurement angle"))


@dataclass(frozen=True)
class BsmStep:
    """Bell-state measurement step for use in measurement plans."""

    q_left: int
    q_right: int
    partial: bool = False

    def __post_init__(self) -> None:
        for name in ("q_left", "q_right"):
            object.__setattr__(self, name, _int_field(getattr(self, name), name))
        object.__setattr__(self, "partial", _bool_field(self.partial, "partial"))


PlanStep = Union[SpinMeasurement, BsmStep]


def basis_state(num_qubits: int, index: int) -> StateVector:
    index = _int_field(index, "index")
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"index must be in [0, 2**{num_qubits}), got {index}")
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


def _spin_components(angle: float) -> tuple[float, float]:
    """+1 eigenvector of cos(angle)*Z + sin(angle)*X (real, the measurement
    plane is x-z); the -1 eigenvector is the +1 eigenvector of angle + pi."""
    return math.cos(angle / 2.0), math.sin(angle / 2.0)


# The two nonzero terms of each Bell tensor, outcomes in enum order: their
# bits, indexed [left/right, term, outcome], and their values, flat at
# [4 * term + outcome]. The values are real (float64): a complex stack
# reads them with a +0 imaginary part, so its products round as real ones.
_BELL_BITS = np.array([np.nonzero(m) for m in _BELL_TENSORS.values()]).transpose(1, 2, 0)
_BELL_VALUES = np.array([m[m != 0].real for m in _BELL_TENSORS.values()]).T.ravel()
_BELL_VALUES.flags.writeable = False
_BELL_FLOATS = tuple(_BELL_VALUES.tolist())


# A partial BSM resolves psi+ and psi- and folds the two Bell states that
# lead the enum order, phi+ and phi-, into NO_HERALD.
_FOLDED = 2


def _branch_outcomes(step: PlanStep) -> list:
    if isinstance(step, SpinMeasurement):
        return [1, -1]
    if not step.partial:
        return list(_BELL_TENSORS)
    return list(BellOutcome)[_FOLDED:]  # the resolved Bell states, then NO_HERALD


def _norm_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of an (m, n) real or complex stack, shape (m,).

    Each is the BLAS dot of a C-contiguous complex row's conjugate with the
    row, as ``np.vdot`` of that row computes it: ``np.vecdot`` on contiguous
    complex rows calls ``zdotc`` once per row, the kernel ``vdot`` calls, so
    the two agree bit for bit. The input is made C-contiguous and complex
    first, because a strided dot sums in another order, and ``ddot`` on real
    rows in another again; a real row is read with +0 imaginary parts.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    return np.vecdot(rows, rows).real


@functools.lru_cache(maxsize=256)
def _branch_tables(
    shape: tuple, size: int, blocks: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of ``_products`` for a step of one shape, its
    kind and measured qubits (``_walk_key``'s first three entries), on
    ``blocks`` blocks of ``rows`` states of ``size`` amplitudes (a spin's
    blocks each have their own angle): (src, val, post).

    Every coefficient is the sum of two terms, a value times an amplitude.
    ``src`` and ``val`` list term 0 of every coefficient, then term 1,
    coefficients in (row, outcome, position) order: ``src`` indexes the
    stack's flat amplitudes and ``val`` the values (``_walk_values`` past the
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


def _walk_values(angles: Sequence[float]) -> np.ndarray:
    """The walk's value vector: ``_BELL_VALUES``, then one block per angle,
    flat at [4 * block + 2 * outcome + bit] past them, as ``_branch_tables``
    indexes a spin step's: the (up, down) components of outcome +1 at the
    block's angle, then of -1 at the angle plus pi; real (float64)."""
    values = list(_BELL_FLOATS)
    for angle in angles:
        values += _spin_components(angle)
        values += _spin_components(angle + math.pi)
    return np.array(values)


def _products(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one projection kernel. ``v`` and ``x`` hold each coefficient's
    two terms' values and amplitudes, term 0 of every coefficient and then
    term 1, as ``_branch_tables``' ``val`` and ``src`` gather them. Returns
    each term's value times its coefficient with a trailing +0, the vector
    a post map gathers posts from, and the coefficients, in ``v * x``'s dtype."""
    terms = v * x
    half = len(terms) // 2
    coeffs = terms[:half] + terms[half:]
    products = np.empty(len(terms) + 1, dtype=terms.dtype)
    np.multiply(v.reshape(2, half), coeffs, out=products[:-1].reshape(2, half))
    products[-1] = 0.0
    return products, coeffs


def _fold(step: PlanStep | None, stack: np.ndarray) -> np.ndarray:
    """A stack with one entry per spin outcome or Bell state on axis 1,
    shape (m, j, ...), put in ``_branch_outcomes(step)`` order: a partial
    BSM keeps its resolved outcomes and sums the folded ones, in enum
    order from +0, into NO_HERALD; any other step's stack (a spin's is None
    in the walk's tables) is returned as it is."""
    if not (isinstance(step, BsmStep) and step.partial):
        return stack
    out = np.empty((len(stack), len(_BELL_TENSORS) - _FOLDED + 1) + stack.shape[2:], stack.dtype)
    out[:, :-1] = stack[:, _FOLDED:]
    np.add.reduce(stack[:, :_FOLDED], axis=1, out=out[:, -1], initial=0.0)
    return out


def _weights(step: PlanStep | None, coeffs: np.ndarray, size: int) -> np.ndarray:
    """Branch weights of one depth of states of ``size`` amplitudes, shape
    (rows, k) in ``_branch_outcomes(step)`` order, from its flat
    coefficients: each outcome's squared norm, NO_HERALD the folded ones'."""
    j = len(_BELL_TENSORS) if isinstance(step, BsmStep) else 2
    return _fold(step, _norm_sq(coeffs.reshape(-1, size // j)).reshape(-1, j))


def _draw(
    step: PlanStep | None, weights: np.ndarray, node: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """The draw rule of every collapse and sampled depth: row i draws
    ``draws[i]`` against node ``node[i]``'s row of the (m, k) ``weights``.
    The slot edges are the node's cumulative weights, a spin's first only;
    a row's slot is the count of edges at or below its draw, or, past a
    BSM's last edge (the sum fell short of 1), its last outcome of positive
    weight. Returns each row's child ``node * k + slot``."""
    k = weights.shape[1]
    edges = np.cumsum(weights, axis=1)  # sequential, as itertools.accumulate adds
    slot = np.zeros(len(node), dtype=np.intp)
    for edge in edges.T[: k if isinstance(step, BsmStep) else 1]:
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
    return child


def _collapse(amps: np.ndarray, step: PlanStep, draw: float) -> tuple[object, np.ndarray]:
    """Raw collapse of one step with a uniform draw; inputs assumed valid."""
    tables, angles = _plan_walk(amps, [step])
    (child,), leaves = _sample_leaves(amps, tables, angles, np.zeros(1, dtype=np.intp),
                                      np.array([[draw]]))
    return _branch_outcomes(step)[child], leaves[child]


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
) -> tuple[BellOutcome, np.ndarray]:
    return _collapse(amps, BsmStep(q_left, q_right, partial), draw)


def _validate_plan(n: int, plan: Sequence[PlanStep]) -> None:
    """ValueError unless every entry of ``plan`` is a SpinMeasurement or a
    BsmStep of distinct qubits, each qubit in [0, n). Both plan entries
    check their plans here."""
    for step in plan:
        if not isinstance(step, (SpinMeasurement, BsmStep)):
            raise ValueError(f"plan steps must be SpinMeasurement or BsmStep, got {step!r}")
        qubits = _walk_key(step)[1:3]  # the measured qubits
        if len(set(qubits)) < len(qubits):
            raise ValueError("Bell-state measurement needs two distinct qubits")
        if not all(0 <= q < n for q in qubits):
            raise ValueError(f"plan step {step} exceeds the {n}-qubit budget")


def _uniform_draws(draws, steps: int) -> np.ndarray:
    """``draws`` as float64 of shape (m, steps), or ValueError unless it
    holds real numbers (not bools) in [0, 1) in that shape. An array is
    checked by its dtype, anything else value by value (``_real_field``),
    since numpy reads [[0.5, False]] as floats."""
    if not isinstance(draws, np.ndarray) or draws.dtype == object:
        for value in np.ravel(np.asarray(draws, dtype=object)):
            _real_field(value, "draws")
    elif draws.dtype.kind not in "iuf":
        raise ValueError(f"draws must be real numbers, got {draws.dtype} {draws.ravel()[:4]}")
    array = np.asarray(draws, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != steps:
        raise ValueError(f"draws must have shape (m, {steps}), got {array.shape}")
    if array.size and not (array.min() >= 0.0 and array.max() < 1.0):
        raise ValueError(f"draws must lie in [0, 1), got {array.min()!r}..{array.max()!r}")
    return array


def _plan_codes(plan: Sequence[PlanStep]) -> np.ndarray:
    """Every outcome sequence of a plan as integer codes, shape (leaves,
    depth), in the order a recursion over the outcomes visits the leaves:
    entry [i, d] indexes ``_branch_outcomes(plan[d])``, as ``sample_branches``'
    codes do, and the order of ``exact_branch_enumeration``'s keys."""
    codes = list(itertools.product(*[range(len(_branch_outcomes(step))) for step in plan]))
    return np.array(codes, dtype=np.intp).reshape(len(codes), len(plan))


def _walk_key(step: PlanStep) -> tuple:
    """All of a step that the walk's tables read: its kind and measured
    qubits (its shape, all that ``_branch_tables`` reads) and, for a BSM,
    whether ``_fold`` folds it."""
    if isinstance(step, SpinMeasurement):
        return (SpinMeasurement, step.qubit)
    return (BsmStep, step.q_left, step.q_right, step.partial)


@functools.lru_cache(maxsize=64)
def _walk_tables(keys: tuple, size: int, picks: tuple) -> tuple:
    """Read-only index tables of the exact walk and the sampler, from one
    state of ``size`` amplitudes, of ``len(picks)`` plans of steps with
    ``_walk_key``s ``keys``, plan p measuring its s-th spin step at angle
    ``picks[p][s]`` of the walk's angles: (start, depths).

    ``start`` gathers depth 0's amplitudes from the start state (the
    leaves', for no step). Depth d's entry in ``depths`` is (val, post,
    step, next, child). ``val`` gathers its values from the walk's value
    vector (``_walk_values``): it is
    ``_branch_tables``' val, a spin block's index composed through
    ``picks``, so an angle that plans or depths share is read from one
    block. ``post`` is the post map of a partial BSM ``step``, shaped
    (rows, Bell state, amplitude), whose posts are laid out and
    ``_fold``-ed, and None otherwise; ``step`` is None for a spin. ``next``
    gathers the next depth's amplitudes from the products, as
    ``_branch_tables``' src composed through this depth's post map; at the
    last depth it gathers the leaves, rows in plan, then depth-first
    outcome order, and is None when a fold laid them out. ``child`` is the
    child row (node ``node * k + slot``) of each element ``next`` gathers:
    the next depth's src, or the leaves' positions, over ``size``. The
    tables hold no angle, amplitude or weight.
    """
    plans = len(picks)
    # Where each flat position of the current stack is read from; None
    # once a fold has laid the stack out.
    position = np.tile(np.arange(size), plans)
    rows, spin, gathers, depths = plans, 0, [], []
    for key in keys:
        step = None if key[0] is SpinMeasurement else BsmStep(*key[1:])
        blocks, k = (plans, 2) if step is None else (1, len(_branch_outcomes(step)))
        src, val, post = _branch_tables(key[:3], size, blocks, rows // blocks)
        if step is None:
            # Plan p's block of 4 values is its angle's, past the Bell values.
            block = len(_BELL_VALUES) + 4 * np.array([pick[spin] for pick in picks], np.intp)
            val = block[val // 4] + val % 4
            spin += 1
        gathers.append((src if position is None else position[src], src // size))
        fold = step is not None and step.partial
        depths.append((val, post.reshape(rows, len(_BELL_TENSORS), size) if fold else None, step))
        position = None if fold else post
        rows *= k
    gathers.append((position, np.arange(rows * size) // size))
    for table in [t for pair in gathers for t in pair] + [val for val, *_ in depths]:
        if table is not None:
            table.flags.writeable = False
    return gathers[0][0], tuple(depth + nxt for depth, nxt in zip(depths, gathers[1:]))


def _plan_walk(initial: np.ndarray, plan: Sequence[PlanStep]) -> tuple[tuple, list[float]]:
    """The ``_walk_tables`` of the one plan ``plan`` from the start state
    ``initial``, and the angles its picks index: its spin steps' own, in
    plan order."""
    angles = [step.angle for step in plan if isinstance(step, SpinMeasurement)]
    picks = (tuple(range(len(angles))),)
    return _walk_tables(tuple(map(_walk_key, plan)), initial.size, picks), angles


def _walk_depths(x: np.ndarray, values: np.ndarray, depths: tuple) -> np.ndarray:
    """The amplitudes after ``_walk_tables``' ``depths`` from depth 0's
    amplitudes ``x``, their values read from ``values``: per depth, one
    gather of its values and one ``_products`` call, a partial BSM's posts
    laid out and folded, and one gather of the next depth's amplitudes or
    the leaves'. The values are real, so the rows keep ``x``'s dtype."""
    for val, post, step, nxt, _child in depths:
        x, _coeffs = _products(values[val], x)
        if post is not None:
            x = _fold(step, x[post]).reshape(-1)
        if nxt is not None:
            x = x[nxt]
    return x


def _bind_walk(initial: np.ndarray, tables: tuple) -> tuple:
    """``_walk_tables``' ``tables`` bound to the start amplitudes
    ``initial``, all that reads no angle done once: (x, depths, size).

    ``x`` is the read-only amplitudes of the first spin depth, after the
    leading BSM depths, whose values are ``_BELL_VALUES`` (the leaves', if
    no spin follows), ``depths`` the depths from there and ``size`` the
    amplitudes per leaf. The operands and operations are those of a walk
    from ``initial``, so the bytes are too.
    """
    start, depths = tables
    lead = 0
    while lead < len(depths) and depths[lead][2] is not None:  # a BSM
        lead += 1
    x = _walk_depths(initial[start], _BELL_VALUES, depths[:lead])
    x.flags.writeable = False
    return x, depths[lead:], initial.size


def _walk(walk: tuple, angles: Sequence[float]) -> np.ndarray:
    """Leaf probabilities of a ``_bind_walk`` walk, its picks indexing
    ``angles``: flat, rows in plan, then depth-first outcome order, each
    the squared norm of a leaf's unnormalized amplitudes.

    One value vector, ``_BELL_VALUES`` and then each angle's spin
    components, computed once; the depths left (``_walk_depths``); then
    one ``_norm_sq`` call over the leaves, the walk's only norms.
    """
    x, depths, size = walk
    v = _walk_values(angles)
    return _norm_sq(_walk_depths(x, v, depths).reshape(-1, size))


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
    tables, angles = _plan_walk(initial.amplitudes, plan)
    probs = _walk(_bind_walk(initial.amplitudes, tables), angles)
    codes = _plan_codes(plan)
    outcomes = [_branch_outcomes(step) for step in plan]
    keys = [tuple(outs[c] for outs, c in zip(outcomes, row)) for row in codes.tolist()]
    return dict(zip(keys, probs.tolist()))


def _sample_leaves(
    initial: np.ndarray,
    tables: tuple,
    angles: Sequence[float],
    plan_of_row: np.ndarray,
    draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the plans of ``_walk_tables``' ``tables``, their picks
    indexing ``angles``, from the start state ``initial``: trial i runs
    plan ``plan_of_row[i]`` with draws ``draws[i]``. Returns each trial's
    leaf, its row of the exact walk's leaves, and every leaf's normalized
    state, shape (leaves, size).

    The walk runs down the plans' whole outcome tree. Per depth: one gather
    of its values, one ``_products`` call, the branch weights from the
    coefficients, each trial's child by ``_draw``, then the next depth's
    amplitudes: ``next`` of the products (a partial BSM's ``_fold``-ed
    first), each over the square root of its ``child``'s weight, +0 where
    that is 0. So a trial's draws meet the weights of a step-by-step
    collapse. Each division, the leaves' too, runs once per tree node,
    not per trial."""
    start, depths = tables
    values, size = _walk_values(angles), initial.size
    x, node = initial[start], np.asarray(plan_of_row, dtype=np.intp)
    for (val, post, step, nxt, child), draw in zip(depths, np.asarray(draws).T):
        products, coeffs = _products(values[val], x)
        weights = _weights(step, coeffs, size)
        node = _draw(step, weights, node, draw)
        if post is not None:
            products = _fold(step, products[post]).reshape(-1)
        x = products if nxt is None else products[nxt]
        norm = np.sqrt(weights).ravel()[child]
        x = np.divide(x, norm, out=np.zeros_like(x), where=norm > 0.0)
    return node, x.reshape(-1, size)


def sample_branches(
    initial: StateVector, plan: Sequence[PlanStep], draws: np.ndarray
) -> np.ndarray:
    """Sample a measurement plan for many trials at once: ``_sample_leaves``
    with one plan, its leaves decoded through ``_plan_codes``. It walks the
    plan's full outcome tree, as ``exact_branch_enumeration`` does,
    whatever the trial count.

    ``draws`` has shape (m, len(plan)); row i holds the uniform draws trial
    i feeds to the plan's steps in order. Returns an int8 array of the same
    shape whose entry [i, d] indexes ``_branch_outcomes(plan[d])``: the
    outcomes of the collapse steps called in turn with those draws, as both
    draw through ``_draw``.
    """
    _validate_plan(initial.num_qubits, plan)
    draws = _uniform_draws(draws, len(plan))
    tables, angles = _plan_walk(initial.amplitudes, plan)
    trials = np.zeros(len(draws), int)
    leaves = _sample_leaves(initial.amplitudes, tables, angles, trials, draws)[0]
    return _plan_codes(plan)[leaves].astype(np.int8)
