"""Trial engine for the two-source, three-measurement experiment.

Each trial prepares two singlets, draws binary settings for the outer
measurements A and B, and executes A, B, and the central Bell-state
measurement C in the time order dictated by the chosen spacetime layout.
Heralded trials (C outcome matching the herald predicate) form the
event-ready subensemble.

Wing layout: A measures qubit 0, the Bell-state measurement acts on qubits
(1, 2), and B measures qubit 3.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .geometry import EventLabel, boosted_time_order, preset_by_name
from .qcore import (
    BellOutcome,
    BsmStep,
    PlanStep,
    SpinMeasurement,
    _bind_walk,
    _bool_field,
    _branch_outcomes,
    _int_field,
    _plan_codes,
    _real_field,
    _sample_leaves,
    _walk,
    _walk_key,
    _walk_tables,
    make_two_singlets,
)

# Not called here; bench/tracer.py wraps these names in this module to
# count the collapse and enumeration calls made from it.
from .qcore import _bsm_step, _spin_step, exact_branch_enumeration  # noqa: F401

A_QUBIT = 0
B_QUBIT = 3
BSM_PAIR = (1, 2)

# CHSH-optimal planar angles for the singlet: with these, the +,+,+,- CHSH
# combination evaluates to +2*sqrt(2) exactly.
DEFAULT_ANGLES_A = (0.0, math.pi / 2.0)
DEFAULT_ANGLES_B = (5.0 * math.pi / 4.0, 3.0 * math.pi / 4.0)

HERALD_PREDICATES: dict[str, frozenset[BellOutcome]] = {
    "psi-minus": frozenset({BellOutcome.PSI_MINUS}),
    "psi-plus": frozenset({BellOutcome.PSI_PLUS}),
    "any-psi": frozenset({BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS}),
    "phi-plus": frozenset({BellOutcome.PHI_PLUS}),
    "phi-minus": frozenset({BellOutcome.PHI_MINUS}),
    "all": frozenset(BellOutcome),
}

GEOMETRY_NAMES = ("early", "delayed", "spacelike")

# A seed and a trial id key the first and second 64-bit words of the Philox key.
SEED_LIMIT = ID_LIMIT = 2**64


def check_seed(seed) -> int:
    """Return ``seed`` as an int, or raise ValueError unless it is an integer
    in [0, 2**64) (a bool is not). ExperimentConfig, counter_uniforms (and
    so every runner) and the CLI take their seed through here."""
    value = _int_field(seed, "seed")
    if not 0 <= value < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {value}")
    return value


def check_draws(trial_ids, k) -> tuple[np.ndarray, int]:
    """Return ``trial_ids`` as a flat uint64 array and ``k`` as an int, or
    raise ValueError unless each trial id is an integer in [0, 2**64) and k
    an integer >= 0 (a bool is neither). trial_rng and counter_uniforms take
    their stream keys and draw count through here. An array costs one min;
    a list or scalar is read id by id, since numpy reads [True] as 1 and a
    list with an id past 2**63 as float64."""
    k = _int_field(k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not isinstance(trial_ids, np.ndarray):
        values = [_int_field(v, "trial id") for v in np.asarray(trial_ids, dtype=object).ravel()]
        if values and not (min(values) >= 0 and max(values) < ID_LIMIT):
            raise ValueError(f"trial ids must be in [0, 2**64), got {min(values)}..{max(values)}")
        return np.array(values, dtype=np.uint64), k
    # An empty array may have any dtype; an unsigned one holds only ids in range.
    kind = trial_ids.dtype.kind
    if trial_ids.size and (kind not in "iu" or kind == "i" and trial_ids.min() < 0):
        raise ValueError(f"trial ids must be integers in [0, 2**64), got {trial_ids.dtype} "
                         f"{trial_ids.ravel()[:4]}")
    return trial_ids.astype(np.uint64).ravel(), k


def check_trials(n_trials) -> int:
    """Return ``n_trials`` as an int, or raise ValueError unless it is an
    integer >= 1 (a bool is not). ExperimentConfig and every runner take
    their trial count through here."""
    value = _int_field(n_trials, "n_trials")
    if value < 1:
        raise ValueError(f"n_trials must be >= 1, got {value}")
    return value


def check_angle_pair(angles, name: str) -> tuple[float, float]:
    """Return ``angles`` as a tuple of two floats, or raise ValueError naming
    ``name`` unless it is a tuple, list or 1-D array of exactly two finite
    reals (a bool is not). ExperimentConfig and toys.singlet_weight_rule
    take their setting angles through here."""
    # A tuple, list or 1-D array only: a str, bytes or mapping of two items
    # would read as two numbers.
    if not (isinstance(angles, (tuple, list))
            or isinstance(angles, np.ndarray) and angles.ndim == 1) or len(angles) != 2:
        raise ValueError(f"{name} must list exactly two angles (binary settings), "
                         f"got {angles!r}")
    return tuple(_real_field(angle, f"{name}[{i}]") for i, angle in enumerate(angles))


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: str = "spacelike"
    n_trials: int = 1
    seed: int = 0
    angles_a: tuple[float, float] = DEFAULT_ANGLES_A
    angles_b: tuple[float, float] = DEFAULT_ANGLES_B
    herald: str = "psi-minus"
    c_enabled: bool = True
    bsm_partial: bool = False

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRY_NAMES:
            raise ValueError(
                f"unknown geometry {self.geometry!r}; expected one of {GEOMETRY_NAMES}"
            )
        object.__setattr__(self, "n_trials", check_trials(self.n_trials))
        object.__setattr__(self, "seed", check_seed(self.seed))
        for name in ("c_enabled", "bsm_partial"):
            object.__setattr__(self, name, _bool_field(getattr(self, name), name))
        for name in ("angles_a", "angles_b"):
            object.__setattr__(self, name, check_angle_pair(getattr(self, name), name))
        _herald_outcomes(self.herald)


def _herald_outcomes(name: str) -> frozenset[BellOutcome]:
    if not isinstance(name, str) or name not in HERALD_PREDICATES:
        raise ValueError(f"unknown herald {name!r}; expected one of {sorted(HERALD_PREDICATES)}")
    return HERALD_PREDICATES[name]


# c_outcome codes index this tuple; -1 means the C measurement was off.
OUTCOMES = tuple(BellOutcome)


def _outcome_codes(outcomes: Iterable[BellOutcome]) -> list[int]:
    """Each outcome's code; ValueError unless ``outcomes`` iterates over
    BellOutcome members (a bare member is not a set)."""
    if not isinstance(outcomes, Iterable):
        raise ValueError(f"outcome sets must hold BellOutcome members, got {outcomes!r}")
    outcomes = list(outcomes)
    for outcome in outcomes:
        if not isinstance(outcome, BellOutcome):
            raise ValueError(f"outcome sets must hold BellOutcome members, got {outcome!r}")
    return [OUTCOMES.index(o) for o in outcomes]


def _herald_mask(outcomes: Iterable[BellOutcome]) -> np.ndarray:
    member = np.zeros(len(OUTCOMES) + 1, dtype=bool)  # the last entry is -1's
    member[_outcome_codes(outcomes)] = True
    member.flags.writeable = False
    return member


# Read-only masks by herald name, indexed by a c_outcome code built here
# (each in -1..4): HERALD_MASKS[name][c_outcome] flags the heralded rows,
# and -1 (C off) is never set.
HERALD_MASKS = {name: _herald_mask(outcomes) for name, outcomes in HERALD_PREDICATES.items()}

# The values each known column may hold, setting 0 and outcome +1 first as
# CELLS takes them. c_outcome indexes OUTCOMES (-1: C off), alice, bob and
# verdict toys.RPS_CHOICES and RPS_VERDICTS; trial_id and others hold any.
_COLUMN_VALUES = {
    **dict.fromkeys(("a", "b"), (0, 1)),
    **dict.fromkeys(("A", "B", "lambda_A", "lambda_B"), (1, -1)),
    "c_outcome": tuple(range(-1, len(OUTCOMES))),
    **dict.fromkeys(("heralded", "accepted"), (False, True)),
    **dict.fromkeys(("alice", "bob", "verdict"), (0, 1, 2)),
}


@dataclass(frozen=True, eq=False)
class Trials:
    """Trials of one run as equal-length, read-only numpy columns, named like
    the CSV headers; rows are in strictly increasing integer trial_id order.

    An ensemble from run_trials holds trial_id, a, b (settings 0/1), A, B
    (outcomes +1/-1), c_outcome (an index into OUTCOMES, -1 with C off) and
    heralded (bool). toys.py documents the toy and rock-paper-scissors
    columns.
    """

    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        columns = {name: np.asarray(values).view() for name, values in self.columns.items()}
        if "trial_id" not in columns:
            raise ValueError(f"table lacks column trial_id, has {list(columns)}")
        ids = columns["trial_id"]
        if ids.dtype.kind not in "iu":
            raise ValueError(f"trial_id must hold integers, got dtype {ids.dtype}")
        for name, column in columns.items():
            column.flags.writeable = False
            if column.shape != (len(ids),):
                raise ValueError(f"column {name!r} has shape {column.shape}, not ({len(ids)},)")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("trial_ids must be strictly increasing")
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def __len__(self) -> int:
        return len(self.columns["trial_id"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def select(self, rows) -> Trials:
        """The rows a boolean mask (or an index array, list or slice) picks,
        in order. A mask is turned into row indices once, not once per
        column; one whose length differs from the table's raises IndexError."""
        if isinstance(rows, np.ndarray) and rows.dtype == bool:
            if rows.shape != (len(self),):
                raise IndexError(f"boolean mask of shape {rows.shape} for {len(self)} rows")
            rows = np.flatnonzero(rows)
        return Trials({name: column[rows] for name, column in self.columns.items()})


def _code_rows(trials: Trials, names) -> np.ndarray:
    """Check the named known columns, then code each row over them as
    ``io.RowCode`` reads it, in the smallest signed integer type that holds
    every code. Raise ValueError if a column holds a value that is not an
    integer in ``_COLUMN_VALUES``; a float column is checked for whole values
    first, so 0.7 is not coded as 0."""
    radix = math.prod(max(values) - min(values) + 1 for values in map(_COLUMN_VALUES.get, names))
    code = np.zeros(len(trials), dtype=np.min_scalar_type(-radix))
    if not len(trials):
        return code
    for name in names:
        column, values = trials[name], _COLUMN_VALUES[name]
        if column.dtype.kind not in "biuf" or (column.dtype.kind == "f" and not (
                np.isfinite(column).all() and (np.trunc(column) == column).all())):
            raise ValueError(f"column {name} holds a value that is not an integer")
        # Bounds in the column's own dtype, then one compare per hole (the outcomes' 0).
        span = range(min(values), max(values) + 1)
        if (int(column.min()) < span[0] or int(column.max()) > span[-1]
                or any((column == hole).any() for hole in span if hole not in values)):
            raise ValueError(f"column {name} holds a value outside {sorted(values)}")
        if not np.can_cast(column.dtype, np.intp):  # floats and uint64, now in range
            column = column.astype(np.intp)
        code *= len(span)
        code += column
        code -= span[0]
    return code


def config_meta(config: ExperimentConfig) -> dict:
    """Serializable echo of a fully resolved configuration, a pair as a list."""
    meta = {field.name: getattr(config, field.name) for field in fields(config)}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in meta.items()}


def trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    """Independent per-trial stream: Philox keyed by (seed, trial_id).

    The key construction makes trial streams addressable out of order, so
    trials may be generated in parallel with output identical to sequential
    execution. ``counter_uniforms`` draws the same numbers for many trials
    at once.
    """
    (trial_id,), _ = check_draws(trial_id, 0)
    key = np.array([check_seed(seed), trial_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _TrialStream:
    """Not used by swapsim: bench/tracer.py wraps ``reset``, the name it
    counts trial streams by, which returns ``trial_rng(seed, trial_id)``."""

    def reset(self, seed: int, trial_id: int) -> np.random.Generator:
        return trial_rng(seed, trial_id)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Trials per Philox batch: bounds the temporaries whatever the trial count.
PHILOX_CHUNK_TRIALS = 1 << 12


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, elementwise,
    from 32-bit halves (Hacker's Delight, mulhu); no partial sum overflows."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _S32)
    w1 = x_lo * m_hi + (t & _LO32)
    hi = x_hi * m_hi + (t >> _S32) + (w1 >> _S32)
    return hi, x * np.uint64(m)


def _philox_blocks(seed: int, ids: np.ndarray, blocks: int) -> np.ndarray:
    """Output words of counter blocks 1..blocks under keys (seed, id):
    shape (len(ids), 4 * blocks), in the order numpy's Philox emits them.

    The rounds that read no id are folded into ints: round 0 multiplies the
    counter (block, 0, 0, 0), one product per block and a zero, and round
    1's word 0 is the seed, one product."""
    block_hi, block_lo = np.array(
        [divmod(_PHILOX_M[0] * block, 1 << 64) for block in range(1, blocks + 1)], dtype=np.uint64
    ).reshape(blocks, 2).T
    seed_hi, seed_lo = divmod(_PHILOX_M[0] * seed, 1 << 64)
    key0 = (seed + _PHILOX_W[0]) & _U64
    key1 = np.repeat(ids, blocks)
    # Round 0 leaves (seed, 0, block_hi ^ id, block_lo); round 1 then:
    hi1, lo1 = _mulhilo(_PHILOX_M[1], np.tile(block_hi, ids.size) ^ key1)
    key1 = key1 + np.uint64(_PHILOX_W[1])
    ctr = [hi1 ^ np.uint64(key0), lo1,
           np.tile(block_lo ^ np.uint64(seed_hi), ids.size) ^ key1, np.uint64(seed_lo)]
    for _ in range(2, _PHILOX_ROUNDS):
        key0 = (key0 + _PHILOX_W[0]) & _U64
        key1 = key1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(key0), lo1, hi0 ^ ctr[3] ^ key1, lo0]
    return np.stack(ctr, axis=-1).reshape(ids.size, 4 * blocks)


def counter_uniforms(seed: int, trial_ids, k: int) -> np.ndarray:
    """The first k uniforms of each trial's stream, shape (len(trial_ids), k).

    Row i equals ``trial_rng(seed, trial_ids[i]).random(k)`` bit for bit:
    the uniforms are a pure function of (seed, trial_id, draw index), so any
    set of trials is drawn at once, in chunks of PHILOX_CHUNK_TRIALS.
    """
    seed = check_seed(seed)
    ids, k = check_draws(trial_ids, k)
    out = np.empty((ids.size, k), dtype=np.float64)
    blocks = -(-k // 4)
    for start in range(0, ids.size, PHILOX_CHUNK_TRIALS):
        chunk = ids[start : start + PHILOX_CHUNK_TRIALS]
        words = _philox_blocks(seed, chunk, blocks)[:, :k]
        out[start : start + chunk.size] = (words >> np.uint64(11)) * 2.0**-53
    return out


def measurement_order(geometry: str) -> tuple[EventLabel, ...]:
    """Execution order of A, B, C implied by the layout's time order at v=0.

    Label-order tie-breaking yields the canonical A, B, C order for the
    spacelike layout, where all three measurements are simultaneous.
    """
    order = boosted_time_order(preset_by_name(geometry), 0.0)
    wanted = (EventLabel.A, EventLabel.B, EventLabel.C)
    return tuple(label for label in order if label in wanted)


_TWO_SINGLETS = make_two_singlets()  # the start state, built once at import
_REAL_SINGLETS = _TWO_SINGLETS.amplitudes.real  # read-only; the exact walk's float64 start


def run_trials(config: ExperimentConfig) -> Trials:
    """Run the configured number of trials; deterministic given (seed, config).

    Per-trial draw order: setting a, setting b, then one uniform per executed
    measurement in geometry time order (the C draw is skipped when the C
    measurement is disabled). A setting is 0 when its draw is below 1/2.
    One walk down the layout's exact-walk tables samples the four setting
    plans of ``exact_leaf_rows``, plan 2a + b, and each trial's columns are
    its leaf's row of that table.
    """
    n = config.n_trials
    layout = _layout(config.geometry, config.bsm_partial, config.c_enabled)
    draws = counter_uniforms(config.seed, np.arange(n), 2 + len(layout.plan))
    setting = 2 * (draws[:, 0] >= 0.5) + (draws[:, 1] >= 0.5)
    leaf = _sample_leaves(_TWO_SINGLETS.amplitudes, layout.tables,
                          config.angles_a + config.angles_b, setting, draws[:, 2:])[0]
    a, b, A, B = np.take(_CELL_COLUMNS, layout.cell[leaf], axis=1)
    c_outcome = layout.c_outcome[leaf]
    return Trials({
        "trial_id": np.arange(n),
        "a": a,
        "b": b,
        "A": A,
        "B": B,
        "c_outcome": c_outcome,
        "heralded": HERALD_MASKS[config.herald][c_outcome],
    })


def post_select(ensemble, herald: str | Iterable[BellOutcome] | None = None):
    """Event-ready subensemble; original trial_ids are preserved.

    With no predicate, keeps trials flagged heralded at generation time.
    A predicate (name or outcome set) keeps trials whose recorded C outcome
    matches it; trials without a C outcome never match. ``ensemble`` may
    also be an ``analysis.CountTable``; its subensemble is then a slice of
    its cells.
    """
    if herald is None:
        return ensemble.select(ensemble["heralded"])
    accept = _herald_outcomes(herald) if isinstance(herald, str) else herald
    # np.isin, not a lookup: a table built elsewhere may hold any code.
    return ensemble.select(np.isin(ensemble["c_outcome"], _outcome_codes(accept)))


# The (a, b, A, B) cells of an exact table: row cell 8a + 4b + 2[A=-1] + [B=-1].
CELLS = tuple(itertools.product(*(_COLUMN_VALUES[name] for name in ("a", "b", "A", "B"))))
# The a, b, A and B columns of CELLS, int8 as a trial's are.
_CELL_COLUMNS = np.array(CELLS, dtype=np.int8).T
_CELL_COLUMNS.flags.writeable = False


class _ExactLayout(NamedTuple):
    """The part of a layout's exact table that no angle changes.

    ``plan`` is the template every setting plan follows, its spin steps at
    angle 0, which the plan walks ignore, ``picks[2a + b]`` indexes
    ``angles_a + angles_b`` for each spin step of setting pair (a, b),
    ``cell`` and ``c_outcome`` are the read-only columns of
    ``exact_leaf_rows``, which ``run_trials`` reads at each trial's leaf,
    ``tables`` is the four plans' read-only ``qcore._walk_tables`` from one
    start state, whose value index reads each of ``angles_a + angles_b``
    through ``picks`` (``run_trials`` samples down them), ``walk`` is
    ``tables`` bound to the two-singlet state (``qcore._bind_walk``), and
    ``heralds`` holds each herald name's read-only heralded rows and cells.
    """

    plan: tuple[PlanStep, ...]
    picks: tuple[tuple[int, ...], ...]
    cell: np.ndarray
    c_outcome: np.ndarray
    tables: tuple
    walk: tuple
    heralds: Mapping[str, tuple[np.ndarray, np.ndarray]]


@functools.cache
def _exact_layout(order: tuple[EventLabel, ...], partial: bool) -> _ExactLayout:
    """The layout that measures ``order``'s events in turn, C as a full or
    ``partial`` BSM: any order of A, B and C, or of A and B with C off."""
    spins = {EventLabel.A: A_QUBIT, EventLabel.B: B_QUBIT}
    plan = tuple(SpinMeasurement(spins[label], 0.0) if label in spins
                 else BsmStep(*BSM_PAIR, partial=partial) for label in order)
    codes = _plan_codes(plan)
    picks = tuple(tuple(a if label is EventLabel.A else 2 + b for label in order if label in spins)
                  for a in (0, 1) for b in (0, 1))
    outcome_cell = 2 * codes[:, order.index(EventLabel.A)] + codes[:, order.index(EventLabel.B)]
    # Plan i = 2a + b holds cells 4i = 8a + 4b onward.
    cell = (4 * np.arange(len(picks))[:, None] + outcome_cell).ravel()
    # The C step's codes as OUTCOMES codes, or -1 in every row when C is off.
    if EventLabel.C in order:
        d = order.index(EventLabel.C)
        c_codes = np.array(_outcome_codes(_branch_outcomes(plan[d])))[codes[:, d]]
    else:
        c_codes = np.full(len(codes), -1)
    c_outcome = np.tile(c_codes, len(picks)).astype(np.int8)
    kept = {name: np.flatnonzero(mask[c_outcome]) for name, mask in HERALD_MASKS.items()}
    heralds = MappingProxyType({name: (rows, cell[rows]) for name, rows in kept.items()})
    for column in (cell, c_outcome, *itertools.chain(*heralds.values())):
        column.flags.writeable = False
    tables = _walk_tables(tuple(map(_walk_key, plan)), _REAL_SINGLETS.size, picks)
    walk = _bind_walk(_REAL_SINGLETS, tables)
    return _ExactLayout(plan, picks, cell, c_outcome, tables, walk, heralds)


@functools.cache
def _layout(geometry: str, partial: bool, c_enabled: bool) -> _ExactLayout:
    """The layout of a config's executed plan, built on first use: its
    geometry's measurement order with C dropped when it is off, and C a
    partial BSM only when it runs. Configs of one plan share its layout."""
    order = tuple(label for label in measurement_order(geometry)
                  if c_enabled or label is not EventLabel.C)
    return _exact_layout(order, partial and c_enabled)


def exact_leaf_rows(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact joint table as one row per leaf of the four setting plans:
    (cell, an index into CELLS; c_outcome, an OUTCOMES code, -1 with C off;
    probability, with settings weighted 1/4).

    The four plans are expanded together one depth at a time, by exhaustive
    branch enumeration in the geometry's execution order; rows come in
    (a, b, leaf) order, one per (a, b, A, B, c_outcome) key, including
    zero-probability ones. Summing rows in this order is summing the table.
    The cell and c_outcome columns and the bound walk depend on the layout
    alone: they are built on first use, read-only and shared by every call,
    the walk with all of it that reads no angle already run (with C first,
    the whole BSM depth). Only the probabilities are computed here, by one
    ``qcore._walk`` from the config's four angles, each angle's spin
    components once.
    """
    return _exact_rows(config, config.c_enabled)[0]


def _exact_rows(config: ExperimentConfig, c_enabled: bool) -> tuple[tuple, tuple]:
    """``exact_leaf_rows`` with C on or off, from that layout, and the herald's selection."""
    layout = _layout(config.geometry, config.bsm_partial, c_enabled)
    probs = _walk(layout.walk, config.angles_a + config.angles_b)
    return (layout.cell, layout.c_outcome, 0.25 * probs), layout.heralds[config.herald]


def exact_experiment_distribution(config: ExperimentConfig) -> dict[tuple, float]:
    """Exact joint table P(a, b, A, B, c_outcome) with settings weighted 1/4:
    ``exact_leaf_rows`` as a dict in row order, c_outcome a BellOutcome or
    None with C off. Entries (including zero-probability ones) sum to 1."""
    cell, c_outcome, prob = exact_leaf_rows(config)
    c_keys = OUTCOMES + (None,)  # index -1 is C off
    return {
        CELLS[i] + (c_keys[c],): p
        for i, c, p in zip(cell.tolist(), c_outcome.tolist(), prob.tolist())
    }


def herald_probability(config: ExperimentConfig) -> float:
    """Exact probability that a trial is heralded under the config."""
    (_cell, _c_outcome, prob), (rows, _cells) = _exact_rows(config, config.c_enabled)
    # sum() over the rows in order, as over the table (no term is -0): 0.0 when none herald.
    return sum(prob[rows].tolist(), 0.0)
