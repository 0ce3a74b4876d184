"""The array code against the scalar reference loops in scalar_oracle.py.

Every comparison is exact: the array runners draw the same uniforms and
compare them against the same thresholds, so their tables must equal the
oracle's records column by column, and teleport reports field for field.
The column correlators and G-test must give the oracle loops' results bit
for bit, and the column CSV writers its bytes. The projection kernel must
give the oracle's exact tables (in key order), the exact diagnostics and
Bell outcome probabilities bit for bit, and its collapse steps the oracle's
outcomes.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from scalar_oracle import assert_same_table
from swapsim import analysis, engine, io, qcore, toys
from swapsim.engine import ExperimentConfig, Trials, run_trials
from swapsim.geometry import EventLabel as L
from swapsim.qcore import BellOutcome, BsmStep, SpinMeasurement, StateVector

SEEDS = (0, 2**64 - 1)
ODD_ANGLES = {"angles_a": (0.3, 1.9), "angles_b": (2.2, -0.7)}

# Every (geometry, bsm_partial, c_enabled) config, and every layout that
# engine._exact_layout builds, as (order, partial): each order of A, B and C
# with a full or partial BSM, then each order of A and B with C off.
CONFIG_KEYS = sorted(itertools.product(engine.GEOMETRY_NAMES, (False, True), (True, False)))
LAYOUT_KEYS = [(order, partial) for order in itertools.permutations((L.A, L.B, L.C))
               for partial in (False, True)] + [((L.A, L.B), False), ((L.B, L.A), False)]
LAYOUT_IDS = ["".join(label.value for label in order) + ("-partial" if partial else "")
              for order, partial in LAYOUT_KEYS]


@pytest.mark.parametrize("geometry,partial,c_enabled", CONFIG_KEYS)
def test_run_trials_matches_oracle(geometry, partial, c_enabled):
    for seed, herald, angles in itertools.product(
        SEEDS, sorted(engine.HERALD_PREDICATES), ({}, ODD_ANGLES)
    ):
        cfg = ExperimentConfig(
            geometry=geometry, n_trials=150, seed=seed, herald=herald,
            c_enabled=c_enabled, bsm_partial=partial, **angles,
        )
        assert_same_table(
            run_trials(cfg), scalar_oracle.ensemble_table(scalar_oracle.run_trials(cfg))
        )


@pytest.mark.parametrize("controlled", [True, False])
def test_teleport_matches_oracle(controlled):
    for seed, n in itertools.product(SEEDS + (11,), (1, 2, 700)):
        assert analysis.teleport_channel_demo(controlled, n, seed) == (
            scalar_oracle.teleport_channel_demo(controlled, n, seed)
        ), (seed, n)


@pytest.mark.parametrize("record_lambda", [False, True])
def test_toy_matches_oracle(record_lambda):
    rules = (
        toys.singlet_weight_rule(),
        toys.singlet_weight_rule((0.1, 2.0), (1.0, -3.0)),
        toys.constant_rule(0.5),
        toys.constant_rule(1),
        toys.AcceptanceRule("a-only", lambda a, b, A, B: 0.2 + 0.6 * a * (A == 1)),
    )
    for seed, rule, n in itertools.product(SEEDS + (5,), rules, (1, 900)):
        assert_same_table(
            toys._run_toy(n, seed, rule, record_lambda),
            scalar_oracle.toy_table(scalar_oracle._run_toy(n, seed, rule, record_lambda)),
        )


def test_rps_matches_oracle():
    for seed, n in itertools.product(SEEDS + (13,), (1, 2000)):
        assert_same_table(
            toys.run_rps(n, seed), scalar_oracle.rps_table(scalar_oracle.run_rps(n, seed))
        )


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_trials=st.integers(1, 40),
    geometry=st.sampled_from(engine.GEOMETRY_NAMES),
    herald=st.sampled_from(sorted(engine.HERALD_PREDICATES)),
    c_enabled=st.booleans(),
    partial=st.booleans(),
    angles_a=st.tuples(angles, angles),
    angles_b=st.tuples(angles, angles),
)
def test_run_trials_matches_oracle_property(
    seed, n_trials, geometry, herald, c_enabled, partial, angles_a, angles_b
):
    cfg = ExperimentConfig(
        geometry=geometry, n_trials=n_trials, seed=seed, herald=herald,
        c_enabled=c_enabled, bsm_partial=partial, angles_a=angles_a, angles_b=angles_b,
    )
    assert_same_table(run_trials(cfg), scalar_oracle.ensemble_table(scalar_oracle.run_trials(cfg)))


TWO_SINGLETS = qcore.make_two_singlets()
# psi- on (0, 3) and (1, 2) already in phi+: a Bell-state measurement there
# has three outcomes of exactly zero weight.
_OUTER, _INNER = (qcore.bell_state(o).amplitudes.reshape(2, 2)
                  for o in (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS))
BSM_EIGENSTATE = StateVector(4, (_OUTER[:, None, None, :] * _INNER[:, :, None]).ravel())
# |1> on qubit 0, normalized within tolerance only: at angle -pi its -1
# branch has zero weight but a draw above P(+1) < 1 still reaches it.
SPIN_EIGENSTATE = StateVector(4, np.eye(16)[8] * math.sqrt(1.0 - 1e-13))


@st.composite
def states(draw):
    """A random normalized 4-qubit state."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    amps = parts[:16] + 1j * parts[16:]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return StateVector(4, amps / norm)


initial_states = st.one_of(st.sampled_from([TWO_SINGLETS, BSM_EIGENSTATE]), states())
qubit_pairs = st.permutations(range(4)).map(lambda qubits: tuple(qubits[:2]))


@settings(max_examples=100, deadline=None, database=None)
@given(
    initial=initial_states,
    order=st.permutations("ABC"),
    c_enabled=st.booleans(),
    theta_a=angles,
    theta_b=angles,
    pair=st.sampled_from([(1, 2), (2, 1)]),
    partial=st.booleans(),
)
@example(initial=BSM_EIGENSTATE, order=("C", "A", "B"), c_enabled=True, theta_a=0.4,
         theta_b=0.4, pair=(1, 2), partial=True)
@example(initial=TWO_SINGLETS, order=("C", "A", "B"), c_enabled=True, theta_a=1.0,
         theta_b=1.0, pair=(2, 1), partial=False)
def test_exact_branch_enumeration_matches_oracle_property(
    initial, order, c_enabled, theta_a, theta_b, pair, partial
):
    steps = {
        "A": SpinMeasurement(0, theta_a),
        "B": SpinMeasurement(3, theta_b),
        "C": BsmStep(*pair, partial=partial),
    }
    plan = [steps[name] for name in order if c_enabled or name != "C"]
    # Key order too: it sets the order the diagnostics sum the table in.
    assert list(qcore.exact_branch_enumeration(initial, plan).items()) == list(
        scalar_oracle.exact_branch_enumeration(initial, plan).items()
    )


def exact_outputs(cfg: ExperimentConfig, side) -> str:
    """repr of every exact output of a config: its joint tables with C on and
    off, items in order, and the five diagnostics with C on and off (or the
    error each raises),
    as ``side`` (the swapsim modules or the oracle) computes them."""
    out: list = [
        list(side.exact_experiment_distribution(replace(cfg, c_enabled=c)).items())
        for c in (True, False)
    ]
    for diagnostic, c in itertools.product(
        (side.herald_probability, side.exact_heralded_correlators, side.exact_chsh,
         side.no_difference_check, side.fragility),
        (True, False),
    ):
        try:
            result = diagnostic(replace(cfg, c_enabled=c))
        except ValueError as exc:  # C off, or a herald the partial analyzer never gives
            result = exc
        out.append(result)
    return repr(out)


# The exact outputs under test, named as the oracle names them.
SWAPSIM_EXACT = SimpleNamespace(
    exact_experiment_distribution=engine.exact_experiment_distribution,
    herald_probability=engine.herald_probability,
    exact_heralded_correlators=analysis.exact_heralded_correlators,
    exact_chsh=analysis.exact_chsh,
    no_difference_check=analysis.no_difference_check,
    fragility=analysis.fragility,
)


finite_angles = st.one_of(angles, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, database=None)
@given(
    geometry=st.sampled_from(engine.GEOMETRY_NAMES),
    herald=st.sampled_from(sorted(engine.HERALD_PREDICATES)),
    partial=st.booleans(),
    angles_a=st.tuples(finite_angles, finite_angles),
    angles_b=st.tuples(finite_angles, finite_angles),
)
@example(geometry="early", herald="psi-minus", partial=False,
         angles_a=engine.DEFAULT_ANGLES_A, angles_b=engine.DEFAULT_ANGLES_B)
@example(geometry="delayed", herald="phi-plus", partial=True, angles_a=(0.3, 1.9),
         angles_b=(2.2, -0.7))
def test_exact_outputs_match_oracle_property(geometry, herald, partial, angles_a, angles_b):
    """The leaf rows of the four stacked plans, as the public table and as
    every diagnostic reads them, equal the oracle's per-plan recursion and
    its dict-walking diagnostics bit for bit and in key order."""
    cfg = ExperimentConfig(geometry=geometry, herald=herald, bsm_partial=partial,
                           angles_a=angles_a, angles_b=angles_b)
    assert exact_outputs(cfg, SWAPSIM_EXACT) == exact_outputs(cfg, scalar_oracle)


@pytest.mark.parametrize("herald,partial",
                         list(itertools.product(sorted(engine.HERALD_PREDICATES), (False, True))))
@settings(max_examples=15, deadline=None, database=None)
@given(geometry=st.sampled_from(engine.GEOMETRY_NAMES),
       angles_a=st.tuples(finite_angles, finite_angles),
       angles_b=st.tuples(finite_angles, finite_angles))
def test_fragility_matches_oracle_property(herald, partial, geometry, angles_a, angles_b):
    """The array spread over the 16 cells gives the oracle's cells and
    max_spread bit for bit, for every herald under full and partial BSM
    (a herald the partial analyzer never gives has every cell 0.0)."""
    cfg = ExperimentConfig(geometry=geometry, herald=herald, bsm_partial=partial,
                           angles_a=angles_a, angles_b=angles_b)
    assert repr(analysis.fragility(cfg)) == repr(scalar_oracle.fragility(cfg))


FRAGILITY_CASES = [
    (geometry, herald, partial)
    for geometry in engine.GEOMETRY_NAMES
    for herald in sorted(engine.HERALD_PREDICATES)
    for partial in (False, True)
]


@pytest.mark.parametrize("geometry,herald,partial", FRAGILITY_CASES)
@pytest.mark.parametrize("shared", [0.0, 0.4])
def test_fragility_matches_oracle_at_equal_angles(geometry, herald, partial, shared):
    """With angles_a[0] == angles_b[0], A and B measure along one axis in
    setting pair (0, 0), and psi-minus leaves the outer pair a singlet, so
    it heralds equal outcomes there with probability (near) zero. Every
    cell's mass is 1/16 all the same, so none is None, and every report
    equals the oracle's repr, for every herald, full and partial."""
    cfg = ExperimentConfig(geometry=geometry, herald=herald, bsm_partial=partial,
                           angles_a=(shared, 1.3), angles_b=(shared, 2.9))
    report = analysis.fragility(cfg)
    assert repr(report) == repr(scalar_oracle.fragility(cfg))
    if herald == "psi-minus":
        assert report.cells[0, 0, 1, 1] < 1e-30 and report.cells[0, 0, -1, -1] < 1e-30


@pytest.mark.parametrize("geometry,herald,partial", FRAGILITY_CASES)
def test_fragility_tol_equal_to_a_cell_mass(geometry, herald, partial, monkeypatch):
    """A cell whose mass equals the tolerance exactly is None (mass <= tol),
    a cell of larger mass is not, and the report, max_spread skipping the
    None cells, equals the oracle's repr."""
    cfg = ExperimentConfig(geometry=geometry, herald=herald, bsm_partial=partial,
                           angles_a=(0.3, 1.9), angles_b=(2.2, -0.7))
    cell, _c_outcome, prob = engine.exact_leaf_rows(cfg)
    mass = np.bincount(cell, weights=prob, minlength=len(engine.CELLS)).tolist()
    for tol in sorted(set(mass))[:2]:
        monkeypatch.setattr(analysis, "_FRAGILITY_TOL", tol)
        report = analysis.fragility(cfg)
        assert repr(report) == repr(scalar_oracle.fragility(cfg, tol))
        assert [p is None for p in report.cells.values()] == [m <= tol for m in mass]


@settings(max_examples=100, deadline=None, database=None)
@given(state=initial_states, pair=qubit_pairs, partial=st.booleans())
@example(state=BSM_EIGENSTATE, pair=(2, 1), partial=True)
def test_bell_outcome_probabilities_match_oracle_property(state, pair, partial):
    """The branch weights a BSM's draw reads, one depth of its walk's
    coefficients, are the oracle's outcome probabilities bit for bit."""
    step = BsmStep(*pair, partial)
    weights = scalar_oracle.plan_branches(state.amplitudes, [step])[2][0].tolist()
    assert dict(zip(qcore._branch_outcomes(step), weights)) == (
        scalar_oracle.bell_outcome_probabilities(state, *pair, partial)
    )


plan_steps = st.one_of(
    st.builds(SpinMeasurement, st.integers(0, 3), angles),
    st.builds(lambda pair, partial: BsmStep(*pair, partial), qubit_pairs, st.booleans()),
)


@settings(max_examples=200, deadline=None, database=None)
@given(state=initial_states, step=plan_steps, edge=st.integers(-1, 3),
       u=st.floats(0.0, 1.0, exclude_max=True))
@example(state=SPIN_EIGENSTATE, step=SpinMeasurement(0, -math.pi), edge=-1, u=1.0 - 2.0**-53)
@example(state=BSM_EIGENSTATE, step=BsmStep(1, 2), edge=-1, u=1.0 - 2.0**-53)
@example(state=TWO_SINGLETS, step=BsmStep(1, 2), edge=3, u=0.0)  # rounding shortfall
@example(  # a +1 branch of weight ~1e-279 with a subnormal embedded amplitude
    state=StateVector(4, np.r_[np.zeros(7), 3.04016391e-140, np.zeros(7), 1.0]),
    step=SpinMeasurement(0, 1.7391347178657812e-175), edge=-1, u=0.0)
def test_collapse_steps_match_oracle_property(state, step, edge, u):
    """Same outcome, or the same RuntimeError, for a random draw or one on a
    slot edge. Bell post-states are bit-identical. A spin post-state is now
    normalized after embedding: each amplitude is rounded once more, and an
    embedded amplitude in the subnormal range (a branch weight near 1e-280)
    loses up to 2**-1074 before the division by sqrt(weight) scales it up."""
    # Slot edges: the cumulative weights in outcome order, a spin's first only.
    weights = scalar_oracle.plan_branches(state.amplitudes, [step])[2][0].tolist()
    edges = list(itertools.accumulate(weights))
    if isinstance(step, SpinMeasurement):
        edges = edges[:1]
    draw = edges[edge] if 0 <= edge < len(edges) and edges[edge] < 1.0 else u
    if isinstance(step, SpinMeasurement):
        args = (state.amplitudes, 4, step.qubit, step.angle, draw)
        new, old = qcore._spin_step, scalar_oracle._spin_step
    else:
        args = (state.amplitudes, 4, step.q_left, step.q_right, draw, step.partial)
        new, old = qcore._bsm_step, scalar_oracle._bsm_step
    try:
        want = old(*args)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            new(*args)
        return
    got = new(*args)
    assert got[0] == want[0]
    if isinstance(step, SpinMeasurement):
        weight = dict(zip(qcore._branch_outcomes(step), weights))[got[0]]
        subnormal_loss = 4 * 2.0**-1074 / math.sqrt(weight)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=subnormal_loss)
    else:
        assert np.array_equal(got[1], want[1])


@settings(max_examples=200, deadline=None, database=None)
@given(state=initial_states, step=plan_steps, edge=st.integers(-1, 3),
       u=st.floats(0.0, 1.0, exclude_max=True))
@example(state=SPIN_EIGENSTATE, step=SpinMeasurement(0, -math.pi), edge=-1, u=1.0 - 2.0**-53)
@example(state=BSM_EIGENSTATE, step=BsmStep(1, 2, True), edge=-1, u=1.0 - 2.0**-53)
@example(state=TWO_SINGLETS, step=BsmStep(2, 1, True), edge=1, u=0.0)
def test_collapse_posts_match_oracle_sampler_property(state, step, edge, u):
    """A collapse, the sampler's one-trial walk of a one-step plan down to
    its normalized leaves, gives the outcome and the post, byte for byte,
    signed zeros included, or the RuntimeError, of the sampler that laid
    out every post (``scalar_oracle.collapse``), for a random draw or one
    on a slot edge."""
    weights = scalar_oracle.plan_branches(state.amplitudes, [step])[2][0].tolist()
    edges = list(itertools.accumulate(weights))
    draw = edges[edge] if 0 <= edge < len(edges) and edges[edge] < 1.0 else u
    try:
        want = scalar_oracle.collapse(state.amplitudes, step, draw)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            qcore._collapse(state.amplitudes, step, draw)
        return
    got = qcore._collapse(state.amplitudes, step, draw)
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


FOLD_PARTS = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0]


@settings(max_examples=300, deadline=None, database=None)
@given(posts=st.booleans(), m=st.integers(0, 6), data=st.data())
def test_fold_matches_generator_sum_property(posts, m, data):
    """``_fold``'s NO_HERALD entry, one ``np.add.reduce`` from +0, equals
    the generator ``sum()`` from int 0 it replaced byte for byte, signed
    zeros included, on post stacks (complex, (m, 4, 4)) and weight stacks
    (float64, (m, 4)) of +-0, +-1e-300, +-0.5 and 1."""
    shape = (m, 4, 4) if posts else (m, 4)
    parts = st.lists(st.sampled_from(FOLD_PARTS), min_size=math.prod(shape),
                     max_size=math.prod(shape))
    stack = np.array(data.draw(parts)).reshape(shape)
    if posts:
        stack = stack.astype(np.complex128)
        stack.imag = np.array(data.draw(parts)).reshape(shape)
    step = BsmStep(1, 2, True)
    got = qcore._fold(step, stack)
    want = scalar_oracle.sum_fold(step, stack)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _oracle_edges(amps: np.ndarray, step) -> list[float]:
    """Slot edges of one step at a state, from the oracle's own weights: the
    collapse steps compare a draw with these running sums."""
    if isinstance(step, SpinMeasurement):
        vec = qcore._spin_components(step.angle)
        return [scalar_oracle._project_spin(amps, step.qubit, vec)[1]]
    _proj, probs, _folded = scalar_oracle._bsm_probs(
        amps, step.q_left, step.q_right, step.partial
    )
    return list(itertools.accumulate(w for _o, w in probs))


def _oracle_walk(initial: StateVector, plan, picks):
    """Collapse one trial step by step with the oracle's steps. ``picks`` has
    one (edge, u) per step: the draw is the state's slot edge ``edge`` when
    that is below 1, else u. Returns (draws, codes or the RuntimeError,
    whether every draw has one answer). A spin's post-state may differ from
    the sampler's in the last bit (see the collapse property above), so a
    draw after a spin is drawn only off the edges and within 1e-12 of one
    it has no single answer."""
    amps, draws, codes, defined = initial.amplitudes, [], [], True
    after_spin = False
    for step, (edge, u) in zip(plan, picks):
        edges = _oracle_edges(amps, step)
        draw = edges[edge] if 0 <= edge < len(edges) and edges[edge] < 1.0 else u
        if after_spin:
            draw = u
            defined &= all(abs(draw - e) > 1e-12 for e in edges)
        draws.append(draw)
        try:
            if isinstance(step, SpinMeasurement):
                outcome, amps = scalar_oracle._spin_step(amps, 4, step.qubit, step.angle, draw)
            else:
                outcome, amps = scalar_oracle._bsm_step(
                    amps, 4, step.q_left, step.q_right, draw, step.partial
                )
        except RuntimeError as exc:
            draws += [u for _edge, u in picks[len(draws):]]
            return draws, exc, defined
        codes.append(qcore._branch_outcomes(step).index(outcome))
        after_spin |= isinstance(step, SpinMeasurement)
    return draws, codes, defined


@st.composite
def sampled_plans(draw):
    """A 1-3-step plan of spins at any angle and full or partial BSMs in
    either qubit order, and 1-6 trials of (edge, u) picks per step."""
    plan = draw(st.lists(plan_steps, min_size=1, max_size=3))
    pick = st.tuples(st.integers(-1, 4), st.floats(0.0, 1.0, exclude_max=True))
    trials = draw(st.lists(st.lists(pick, min_size=len(plan), max_size=len(plan)),
                           min_size=1, max_size=6))
    return plan, trials


# No shrink phase, as for the G-test property.
@settings(max_examples=200, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(initial=initial_states, case=sampled_plans())
@example(initial=TWO_SINGLETS, case=([BsmStep(1, 2), SpinMeasurement(0, 0.3)],
                                     [[(3, 0.5), (-1, 0.1)], [(-1, 1.0 - 2.0**-53), (0, 0.9)]]))
@example(initial=SPIN_EIGENSTATE, case=([SpinMeasurement(0, -math.pi), BsmStep(1, 2)],
                                        [[(-1, 0.0), (-1, 0.3)], [(-1, 1.0 - 2.0**-53), (-1, 0.3)]]))
@example(initial=BSM_EIGENSTATE, case=([BsmStep(2, 1, partial=True)],
                                       [[(-1, 1.0 - 2.0**-53)], [(1, 0.2)], [(-1, 0.0)]]))
def test_sample_branches_matches_oracle_collapse_property(initial, case):
    """Every trial's codes equal a step-by-step oracle collapse with its
    draws, or the sampler raises a RuntimeError the oracle raised."""
    plan, trials = case
    walks = [_oracle_walk(initial, plan, picks) for picks in trials]
    walks = [(draws, codes) for draws, codes, defined in walks if defined]
    if not walks:
        return
    draws = np.array([draws for draws, _codes in walks])
    errors = [str(codes) for _draws, codes in walks if isinstance(codes, RuntimeError)]
    if errors:
        with pytest.raises(RuntimeError) as exc:
            qcore.sample_branches(initial, plan, draws)
        assert str(exc.value) in errors
    for row, (_draws, codes) in zip(draws, walks):
        if isinstance(codes, RuntimeError):
            with pytest.raises(RuntimeError, match=str(codes)):
                qcore.sample_branches(initial, plan, row[None])
        else:
            assert qcore.sample_branches(initial, plan, row[None]).tolist() == [codes]
    if not errors:
        want = [codes for _draws, codes in walks]
        assert qcore.sample_branches(initial, plan, draws).tolist() == want


@st.composite
def complex_stacks(draw):
    """An (m, n) complex stack, C-ordered, Fortran-ordered, strided or
    reversed, whose parts are zero, subnormal, near 1e-150, near 1 or near
    1e150."""
    m, n = draw(st.integers(0, 70)), draw(st.integers(1, 32))
    kinds = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.array([0.0, 2.0**-1054, 1e-150, 1.0, 1e150])[rng.choice(kinds, (m, 4 * n))]
    parts = scales * rng.uniform(-1.0, 1.0, (m, 4 * n))
    wide = parts[:, : 2 * n] + 1j * parts[:, 2 * n :]
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    if layout == "strided":
        return wide[:, ::2]
    contiguous = np.ascontiguousarray(wide[:, :n])
    return {"C": contiguous, "F": np.asfortranarray(contiguous),
            "reversed": contiguous[::-1, ::-1]}[layout]


@settings(max_examples=300, deadline=None, database=None)
@given(rows=complex_stacks())
def test_norm_sq_matches_vdot_property(rows):
    """``_norm_sq`` is ``np.vdot`` of each row bit for bit. The rows are
    made C-contiguous first on both sides: ``vdot`` of a strided row passes
    its stride to BLAS, which sums in another order."""
    got = qcore._norm_sq(rows)
    assert got.shape == (len(rows),) and got.dtype == np.float64
    want = [np.vdot(row, row).real for row in np.ascontiguousarray(rows)]
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def _branch_stack(rng: np.random.Generator, m: int, n: int, kinds, layout: str) -> np.ndarray:
    """An (m, 2**n) complex stack in the given memory layout, whose parts
    are zero, subnormal, near 1e-160, near 1e-80 or near 1."""
    size = 2**n
    scales = np.array([0.0, 2.0**-1074, 1e-160, 1e-80, 1.0])[rng.choice(kinds, (m, 4 * size))]
    parts = scales * rng.uniform(-1.0, 1.0, (m, 4 * size))
    wide = parts[:, : 2 * size] + 1j * parts[:, 2 * size :]
    if layout == "strided":
        return wide[:, ::2]
    contiguous = np.ascontiguousarray(wide[:, :size])
    return {"C": contiguous, "F": np.asfortranarray(contiguous),
            "reversed": contiguous[::-1, ::-1]}[layout]


def _step_shapes(n: int) -> list:
    """One step of every shape on n qubits: a spin on each qubit, and a BSM
    on each ordered pair, full and partial."""
    spins = [SpinMeasurement(q, 0.0) for q in range(n)]
    bsms = [BsmStep(left, right, partial)
            for left, right in itertools.permutations(range(n), 2) for partial in (False, True)]
    return spins + bsms


def _assert_branches_match_oracle(stack: np.ndarray, steps) -> None:
    posts, coeffs, weights = scalar_oracle.walk_branches(stack, steps)
    want_posts, want_coeffs = scalar_oracle.branches(stack, steps)
    assert posts.shape == want_posts.shape and posts.tobytes() == want_posts.tobytes()
    assert coeffs.shape == want_coeffs.shape and coeffs.tobytes() == want_coeffs.tobytes()
    assert weights.tobytes() == scalar_oracle.weights(steps[0], want_coeffs).tobytes()


@st.composite
def branch_cases(draw):
    """A stack of 1-4 blocks of 1-5 states on 1-5 qubits, in C, Fortran,
    strided or reversed layout, and one step per block: a spin on any
    qubit, each block at its own angle, or one BSM of any shape."""
    n = draw(st.integers(1, 5))
    blocks, rows = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kinds = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = _branch_stack(rng, blocks * rows, n, kinds, layout)
    step = draw(st.sampled_from(_step_shapes(n)))
    if isinstance(step, SpinMeasurement):
        block_angles = draw(st.lists(finite_angles, min_size=blocks, max_size=blocks))
        return stack, [SpinMeasurement(step.qubit, angle) for angle in block_angles]
    return stack, [step] * blocks


@settings(max_examples=400, deadline=None, database=None)
@given(case=branch_cases())
def test_branches_match_oracle_property(case):
    """One depth of the walk's tables, each row its own plan's start: its
    leaves and coefficients, and the weights read from them, equal the
    broadcast body's posts, coefficients and weights byte for byte."""
    _assert_branches_match_oracle(*case)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_branches_match_oracle_every_step_shape(n):
    """Every step shape on n qubits, against the broadcast body, on stacks
    of 1 and 3 blocks in each layout."""
    rng = np.random.default_rng(n)
    for step, layout, (blocks, rows) in itertools.product(
        _step_shapes(n), ["C", "F", "strided", "reversed"], [(1, 1), (3, 2)]
    ):
        stack = _branch_stack(rng, blocks * rows, n, [0, 2, 4], layout)
        if isinstance(step, SpinMeasurement):
            steps = [SpinMeasurement(step.qubit, angle) for angle in rng.uniform(-7, 7, blocks)]
        else:
            steps = [step] * blocks
        _assert_branches_match_oracle(stack, steps)


# Angles at which spin amplitudes vanish or lose every bit (0, multiples of
# pi/2, the CHSH defaults, 1e17), or any other.
walk_angles = st.one_of(
    st.sampled_from([k * math.pi / 2.0 for k in range(-4, 5)]
                    + list(engine.DEFAULT_ANGLES_A + engine.DEFAULT_ANGLES_B)
                    + [1e17, -1e17, 3e17]),
    st.floats(-7.0, 7.0),
)


@st.composite
def walk_cases(draw):
    """A start state on 1-5 qubits, a plan of 0-3 steps of any shape (a
    BSM full or partial), and 1-6 plans' spin angles."""
    n = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    initial = _branch_stack(rng, 1, n, kinds, "C")[0]
    plan = draw(st.lists(st.sampled_from(_step_shapes(n)), max_size=3))
    spins = sum(isinstance(step, SpinMeasurement) for step in plan)
    row = st.lists(walk_angles, min_size=spins, max_size=spins)
    return initial, plan, draw(st.lists(row, min_size=1, max_size=6))


def _assert_walk_matches_oracle(initial, plan, angles) -> None:
    tables, flat = scalar_oracle.stacked_tables(plan, initial.size, angles)
    got = qcore._walk(qcore._bind_walk(initial, tables), flat)
    want = scalar_oracle.enumerate_plans(initial, plan, angles).ravel()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(case=walk_cases())
@example(case=(TWO_SINGLETS.amplitudes,
               [BsmStep(1, 2, True), SpinMeasurement(0, 0.0), SpinMeasurement(3, 0.0)],
               [[0.0, math.pi / 2.0], [1e17, 5.0 * math.pi / 4.0], [math.pi, -math.pi / 2.0]]))
def test_exact_walk_matches_oracle_property(case):
    """The composed walk's leaf probabilities, the plans stacked from one
    start state, equal a walk that lays out every depth's posts, byte for
    byte."""
    _assert_walk_matches_oracle(*case)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_walk_matches_oracle_every_step_shape(n):
    """Every step shape on n qubits as the first, middle and last of a
    three-step plan, for 1 and 4 plans at angles that zero amplitudes."""
    rng = np.random.default_rng(n)
    initial = _branch_stack(rng, 1, n, [0, 4], "C")[0]
    shapes = _step_shapes(n)
    for step, at, plans in itertools.product(shapes, range(3), (1, 4)):
        plan = [shapes[i] for i in rng.integers(0, len(shapes), 2)]
        plan.insert(at, step)
        spins = sum(isinstance(s, SpinMeasurement) for s in plan)
        angles = (rng.integers(-4, 5, (plans, spins)) * (math.pi / 2.0)).tolist()
        _assert_walk_matches_oracle(initial, plan, angles)


def _layout_tables(layout) -> list:
    """Every array a layout carries: its columns, its bound walk's start
    (the first gather of amplitudes, from the folded products when the walk
    starts with C) and index tables, the unbound tables it was bound from
    and the sampler descends, with their child rows, and its herald
    selections."""
    x, depths, _size = layout.walk
    start, unbound = layout.tables
    walk = [x, start] + [table for val, post, _step, nxt, child in depths + unbound
                         for table in (val, post, nxt, child)]
    heralds = [table for selection in layout.heralds.values() for table in selection]
    return [layout.cell, layout.c_outcome] + [t for t in walk if t is not None] + heralds


def test_exact_leaf_rows_share_read_only_columns(monkeypatch):
    """The cell and c_outcome columns and the walk's index tables of a
    layout are built once and shared by every call, so no caller may write
    them."""
    walked = []
    monkeypatch.setattr(engine, "_walk", lambda *args: walked.append(args[0]) or
                        qcore._walk(*args))
    for geometry, partial, c_enabled in CONFIG_KEYS:
        cfg = ExperimentConfig(geometry=geometry, bsm_partial=partial, c_enabled=c_enabled,
                               angles_a=(0.3, 1.9))
        walked.clear()
        cell, c_outcome, prob = engine.exact_leaf_rows(cfg)
        again = engine.exact_leaf_rows(replace(cfg, angles_b=(2.2, -0.7)))
        layout = engine._layout(geometry, partial, c_enabled)
        assert again[0] is cell is layout.cell and again[1] is c_outcome is layout.c_outcome
        assert len(walked) == 2 and all(tables is layout.walk for tables in walked)
        prob[0] = 0.5  # a fresh array per call
    for key in LAYOUT_KEYS:
        layout = engine._exact_layout(*key)
        for table in _layout_tables(layout):
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0
        with pytest.raises(TypeError):
            layout.heralds["psi-minus"] = layout.heralds["all"]


def test_layout_herald_selections_are_the_masked_rows():
    """Each layout's selection for a herald holds the rows its mask flags,
    in row order, and their cells; with C off, none."""
    for order, partial in LAYOUT_KEYS:
        layout = engine._exact_layout(order, partial)
        c_enabled = L.C in order
        assert layout.heralds.keys() == engine.HERALD_MASKS.keys()
        for name, (rows, cells) in layout.heralds.items():
            want = np.flatnonzero(engine.HERALD_MASKS[name][layout.c_outcome])
            assert rows.tolist() == want.tolist() and cells.tolist() == layout.cell[want].tolist()
            assert c_enabled or rows.size == 0


def test_exact_walk_runs_on_float64_rows(monkeypatch):
    """Every projection of an exact table is on float64 values and rows;
    the sampler's stay complex."""
    dtypes = []
    products = qcore._products
    monkeypatch.setattr(qcore, "_products",
                        lambda v, x: dtypes.append((v.dtype, x.dtype)) or products(v, x))
    for key in CONFIG_KEYS:
        engine.exact_leaf_rows(ExperimentConfig(key[0], bsm_partial=key[1], c_enabled=key[2]))
    assert set(dtypes) == {(np.dtype(np.float64),) * 2}
    dtypes.clear()
    run_trials(ExperimentConfig(n_trials=10))
    assert {x for _v, x in dtypes} == {np.dtype(np.complex128)}


def test_exact_leaf_rows_calls_products_once_per_unbound_depth(monkeypatch):
    """A layout's walk reads no angle in a leading BSM depth, so it runs
    that depth (its products and a partial BSM's fold) once, when the layout
    is built: a table takes 2 ``_products`` calls when C comes first (early,
    full or partial), 3 when C comes last (delayed, spacelike), 2 with C
    off."""
    calls = []
    products = qcore._products
    monkeypatch.setattr(qcore, "_products", lambda *args: calls.append(1) or products(*args))
    for geometry, partial, c_enabled in CONFIG_KEYS:
        engine._layout(geometry, partial, c_enabled)
        calls.clear()
        engine.exact_leaf_rows(ExperimentConfig(geometry, bsm_partial=partial,
                                                c_enabled=c_enabled))
        assert len(calls) == (3 if c_enabled and geometry != "early" else 2)


@pytest.mark.parametrize("plan", [
    [],
    [BsmStep(1, 2)],
    [BsmStep(1, 2, partial=True)],
    [BsmStep(2, 1, partial=True), BsmStep(0, 3)],
])
def test_walk_with_every_depth_bound(plan):
    """A plan with no spin step reads no angle: binding it leaves a call
    no depth, only the leaf norms, and the walk still gives the oracle's
    leaf probabilities byte for byte."""
    tables = qcore._walk_tables(tuple(map(qcore._walk_key, plan)), 16, ((),))
    walk = qcore._bind_walk(TWO_SINGLETS.amplitudes, tables)
    assert walk[1] == () and not walk[0].flags.writeable
    want = scalar_oracle.enumerate_plans(TWO_SINGLETS.amplitudes, plan, [[]]).ravel()
    assert qcore._walk(walk, []).tobytes() == want.tobytes()


def test_exact_leaf_rows_computes_each_angle_once(monkeypatch):
    """One table computes the spin components of each of the config's four
    angles once, at the angle and at the angle plus pi, in angles_a +
    angles_b order, however many setting plans or depths read them."""
    calls = []
    components = qcore._spin_components
    monkeypatch.setattr(qcore, "_spin_components",
                        lambda angle: calls.append(angle) or components(angle))
    angles = (0.3, 1.9, 2.2, -0.7)
    for partial, c_enabled in itertools.product((False, True), (True, False)):
        calls.clear()
        engine.exact_leaf_rows(ExperimentConfig(bsm_partial=partial, c_enabled=c_enabled,
                                                angles_a=angles[:2], angles_b=angles[2:]))
        assert calls == [at for angle in angles for at in (angle, angle + math.pi)]


@pytest.mark.parametrize("order,partial", LAYOUT_KEYS, ids=LAYOUT_IDS)
@settings(max_examples=25, deadline=None, database=None)
@given(angles=st.tuples(*[walk_angles] * 4))
def test_layout_walk_matches_enumerate_plans_property(order, partial, angles):
    """A layout's bound walk, reading the four angles through its composed
    value index, gives the oracle walk's leaf probabilities of each of the
    four setting plans at its own angles, byte for byte."""
    layout = engine._exact_layout(order, partial)
    want = np.concatenate([
        scalar_oracle.enumerate_plans(TWO_SINGLETS.amplitudes, layout.plan,
                                      [[angles[i] for i in pick]]).ravel()
        for pick in layout.picks
    ])
    assert qcore._walk(layout.walk, angles).tobytes() == want.tobytes()


# Angles for the closed form: any in [-8pi, 8pi], and the multiples of pi/4,
# at which amplitudes vanish. Huge angles are left to the walk oracle: at
# 1e17, ta - tb rounds by up to 16, so cos(ta - tb) may keep no digit.
closed_form_angles = st.one_of(
    st.floats(-8.0 * math.pi, 8.0 * math.pi),
    st.integers(-32, 32).map(lambda k: k * math.pi / 4.0),
)


@pytest.mark.parametrize("order,partial", LAYOUT_KEYS, ids=LAYOUT_IDS)
@settings(max_examples=25, deadline=None, database=None)
@given(angles=st.tuples(*[st.one_of(closed_form_angles, st.sampled_from([1e17, -1e17]))] * 4))
def test_float_walk_matches_complex_walk_property(order, partial, angles):
    """A layout's walk on float64 rows gives the leaf probabilities of the
    same walk on complex rows (the oracle's), byte for byte: every value is
    real, and the leaf norms are zdotc on complex rows either way."""
    layout = engine._exact_layout(order, partial)
    want = scalar_oracle.complex_walk(TWO_SINGLETS.amplitudes, angles, layout.tables)
    assert qcore._walk(layout.walk, angles).tobytes() == want.tobytes()


@pytest.mark.parametrize("geometry,partial,c_enabled", CONFIG_KEYS)
@settings(max_examples=50, deadline=None, database=None)
@given(angles=st.tuples(*[closed_form_angles] * 4), data=st.data())
def test_exact_outputs_match_closed_form_property(geometry, partial, c_enabled, angles, data):
    """Every layout's exact table, and the diagnostics read from it, against
    the closed form, which no amplitude walk and no execution order enters,
    for every herald the analyzer can give: leaf rows within 1e-15, herald
    probability and fragility cells within 1e-14, S within 1e-13, and the
    closed form's NoDifference verdict."""
    given_outcomes = set(qcore._branch_outcomes(BsmStep(*engine.BSM_PAIR, partial)))
    herald = data.draw(st.sampled_from(
        [name for name, outcomes in sorted(engine.HERALD_PREDICATES.items())
         if outcomes & given_outcomes]))
    cfg = ExperimentConfig(geometry=geometry, bsm_partial=partial, c_enabled=c_enabled,
                           herald=herald, angles_a=angles[:2], angles_b=angles[2:])
    want = scalar_oracle.closed_form_table(cfg)
    got = engine.exact_experiment_distribution(cfg)
    assert got.keys() == want.keys()
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-15
    accept = engine.HERALD_PREDICATES[cfg.herald]
    heralded = {key: p for key, p in want.items() if key[4] in accept}
    assert abs(engine.herald_probability(cfg) - sum(heralded.values())) <= 1e-14

    on, off = (scalar_oracle.marginal_over_c(scalar_oracle.closed_form_table(
        replace(cfg, c_enabled=flag))) for flag in (True, False))
    diff = max(abs(on[key] - off[key]) for key in on)
    verdict = analysis.NdaVerdict.NO_DIFFERENCE if diff < 1e-12 else analysis.NdaVerdict.DIFFERENCE
    assert analysis.no_difference_check(cfg).verdict is verdict
    if not c_enabled:
        return
    mass, hit = scalar_oracle.marginal_over_c(want), scalar_oracle.marginal_over_c(heralded)
    cells = analysis.fragility(cfg).cells
    assert cells.keys() == mass.keys()
    assert max(abs(cells[key] - hit.get(key, 0.0) / mass[key]) for key in mass) <= 1e-14
    s = analysis.chsh(scalar_oracle.heralded_correlators(want, accept)).S
    assert abs(analysis.exact_chsh(cfg).S - s) <= 1e-13


def _layout_rows(layout, angles) -> tuple:
    """A layout's exact leaf rows at the four angles, as ``exact_leaf_rows``
    gives a config's."""
    return layout.cell, layout.c_outcome, 0.25 * qcore._walk(layout.walk, angles)


@pytest.mark.parametrize("order,partial", LAYOUT_KEYS, ids=LAYOUT_IDS)
@settings(max_examples=25, deadline=None, database=None)
@given(angles=st.tuples(*[closed_form_angles] * 4))
def test_layout_rows_match_closed_form_in_every_order_property(order, partial, angles):
    """Every layout's exact rows, in any order of A, B and C, are the
    closed form's table within 1e-15: no execution order enters it."""
    cell, c_outcome, prob = _layout_rows(engine._exact_layout(order, partial), angles)
    want = scalar_oracle.closed_form_table(ExperimentConfig(
        bsm_partial=partial, c_enabled=L.C in order, angles_a=angles[:2], angles_b=angles[2:]))
    c_keys = engine.OUTCOMES + (None,)
    got = {engine.CELLS[i] + (c_keys[c],): p
           for i, c, p in zip(cell.tolist(), c_outcome.tolist(), prob.tolist())}
    assert got.keys() == want.keys()
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-15


@pytest.mark.parametrize("order,partial", LAYOUT_KEYS[:12], ids=LAYOUT_IDS[:12])
def test_paper_numbers_hold_in_every_execution_order(order, partial):
    """Wherever C runs, before, after or between A and B, with a full or
    partial BSM, at the default angles: the table summed over C is the C-off
    table of the same A/B order (NoDifference), the psi- heralded |S| is
    2 sqrt(2), and each fragility cell is (1 - A B cos(ta - tb))/4."""
    layout = engine._exact_layout(order, partial)
    off = engine._exact_layout(tuple(label for label in order if label is not L.C), False)
    angles_a, angles_b = engine.DEFAULT_ANGLES_A, engine.DEFAULT_ANGLES_B
    rows = _layout_rows(layout, angles_a + angles_b)
    nda = analysis._no_difference(rows, _layout_rows(off, angles_a + angles_b))
    assert nda.verdict is analysis.NdaVerdict.NO_DIFFERENCE, nda
    kept = layout.heralds["psi-minus"]
    assert abs(abs(analysis.chsh(analysis._heralded_correlators(rows, kept)).S)
               - 2.0 * math.sqrt(2.0)) <= 1e-15
    for (a, b, A, B), p in analysis._fragility(rows, kept).cells.items():
        assert abs(p - (1.0 - A * B * math.cos(angles_a[a] - angles_b[b])) / 4.0) <= 1e-15


@pytest.mark.parametrize("geometry,partial",
                         sorted({(g, partial) for g, partial, _c in CONFIG_KEYS}))
@settings(max_examples=50, deadline=None, database=None)
@given(angles=st.tuples(*[closed_form_angles] * 4))
def test_singlet_weight_rule_is_twice_the_psi_minus_herald_property(geometry, partial, angles):
    """The collider toy's acceptance rule is the quantum herald's dependence
    on settings and outcomes: in every layout, with a full or partial BSM,
    2 P(psi- | a, b, A, B) is singlet_weight_rule's weight in each of the 16
    cells, within the closed-form test's fragility bound."""
    cfg = ExperimentConfig(geometry=geometry, bsm_partial=partial, herald="psi-minus",
                           angles_a=angles[:2], angles_b=angles[2:])
    cells = analysis.fragility(cfg).cells
    weights = toys.singlet_weight_rule(angles[:2], angles[2:]).table
    assert list(cells) == list(engine.CELLS) and weights.shape == (16,)
    assert max(abs(2.0 * p - w) for p, w in zip(cells.values(), weights.tolist())) <= 1e-14


@pytest.mark.parametrize("geometry,partial,c_enabled", CONFIG_KEYS)
@settings(max_examples=15, deadline=None, database=None)
@given(angles=st.tuples(*[closed_form_angles] * 4), same=st.booleans(),
       seed=st.integers(0, 2**64 - 1))
def test_sampled_trials_land_on_exact_rows_property(geometry, partial, c_enabled, angles,
                                                    same, seed):
    """Every sampled trial's (a, b, A, B, c_outcome) is a row of the
    layout's exact table of positive probability, and sampling warns of
    nothing, also where equal angles or multiples of pi/4 give outcomes of
    zero weight, whose states the walk writes as +0."""
    if same:
        angles = angles[:2] * 2
    cfg = ExperimentConfig(geometry=geometry, n_trials=400, seed=seed, bsm_partial=partial,
                           c_enabled=c_enabled, angles_a=angles[:2], angles_b=angles[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trials = run_trials(cfg)
    cell, c_outcome, prob = engine.exact_leaf_rows(cfg)
    rows = set(zip(cell[prob > 0.0].tolist(), c_outcome[prob > 0.0].tolist()))
    sampled = (8 * trials["a"] + 4 * trials["b"] + 2 * (trials["A"] == -1)
               + (trials["B"] == -1))
    assert set(zip(sampled.tolist(), trials["c_outcome"].tolist())) <= rows


def _slot_edge_draws(initials, plan, angles, rng, trials: int) -> np.ndarray:
    """Draws for ``trials`` trials of the plans ``scalar_oracle.sample_leaves``
    reads from ``plan`` and ``angles``: at each depth, each draw is a slot
    edge of a node of that depth (below 1, from the oracle's weights), the
    float just below one, 0 or a uniform."""
    columns = scalar_oracle.plan_columns(plan, angles)
    states, draws = initials, []
    for step, column in zip(plan, columns):
        _posts, coeffs = scalar_oracle.flat_branches(states, step, column)
        edges = np.cumsum(scalar_oracle.flat_weights(step, coeffs), axis=1)
        edges = edges[:, :1] if isinstance(step, SpinMeasurement) else edges
        edges = edges[edges < 1.0]
        pool = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0], rng.random(edges.size)])
        draws.append(rng.choice(pool, trials))
        nobody = np.zeros(0, dtype=np.intp)
        _child, states = scalar_oracle.post_draw(step, states, nobody, nobody, column)
    return np.column_stack(draws)


def _assert_sampler_matches_oracle(initial, tables, angles, plan, per_plan, plan_of_row, draws):
    """The sampler's leaves on ``tables`` equal the oracle copy's on the
    template ``plan`` at each plan's angles ``per_plan``, byte for byte, or
    both raise the same RuntimeError."""
    initials = np.broadcast_to(initial, (len(per_plan), np.shape(initial)[-1]))
    try:
        want = scalar_oracle.sample_leaves(initials, plan, per_plan, plan_of_row, draws)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            qcore._sample_leaves(initial, tables, angles, plan_of_row, draws)
        return
    got = qcore._sample_leaves(initial, tables, angles, plan_of_row, draws)[0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# No shrink phase: a failing run of a thousand trials shrinks slowly.
@pytest.mark.parametrize("order,partial", LAYOUT_KEYS, ids=LAYOUT_IDS)
@settings(max_examples=15, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(angles=st.tuples(*[walk_angles] * 4), seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_oracle_sampler_property(order, partial, angles, seed):
    """Each layout's sampler, descending the exact walk's tables from the
    one two-singlet state and reading the four angles through its picks,
    gives every trial the leaf of the sampler that laid out every node's
    posts, byte for byte: at random angles, at multiples of pi/2 that zero
    weights, and with draws on and just below slot edges."""
    layout = engine._exact_layout(order, partial)
    per_plan = [[angles[i] for i in pick] for pick in layout.picks]
    rng = np.random.default_rng(seed)
    initials = np.tile(TWO_SINGLETS.amplitudes, (len(per_plan), 1))
    draws = _slot_edge_draws(initials, layout.plan, per_plan, rng, 1000)
    setting = rng.integers(0, len(per_plan), len(draws))
    _assert_sampler_matches_oracle(TWO_SINGLETS.amplitudes, layout.tables, angles, layout.plan,
                                   per_plan, setting, draws)


# Teleport's start states: input bit x on qubit 0 beside a singlet on (1, 2).
TELEPORT_STARTS = np.kron(np.eye(2, dtype=np.complex128), qcore.singlet().amplitudes)


@settings(max_examples=40, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(angles=st.lists(walk_angles, min_size=2, max_size=2),
       pair=st.permutations(range(3)).map(lambda qubits: tuple(qubits[:2])),
       qubit=st.integers(0, 2), partial=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(angles=[0.0, 0.0], pair=(0, 1), qubit=2, partial=False, seed=4)
def test_teleport_sampler_matches_oracle_sampler_property(angles, pair, qubit, partial, seed):
    """From each of teleport's ``|x> (x) singlet`` start states, the one
    plan it samples (here at any spin angle) gives every trial the oracle
    copy's leaf, byte for byte, also with draws on slot edges."""
    rng = np.random.default_rng(seed)
    for initial, angle in zip(TELEPORT_STARTS, angles):
        plan = [BsmStep(*pair, partial), SpinMeasurement(qubit, angle)]
        tables, flat = qcore._plan_walk(initial, plan)
        draws = _slot_edge_draws(initial[None], plan, [[angle]], rng, 1000)
        _assert_sampler_matches_oracle(initial, tables, flat, plan, [[angle]],
                                       np.zeros(len(draws), dtype=np.intp), draws)


def _openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


# Run in a child whose OpenBLAS kernel is forced: the exact tables and the
# sampled trials against the oracle, whose norms are np.vdot's.
KERNEL_CHECK = """
import itertools
from dataclasses import replace
import scalar_oracle
from swapsim import engine
for geometry, partial, angles in itertools.product(
    engine.GEOMETRY_NAMES, (False, True), ({}, dict(angles_a=(0.3, 1.9), angles_b=(2.2, -0.7)))
):
    cfg = engine.ExperimentConfig(geometry=geometry, bsm_partial=partial, n_trials=150,
                                  seed=7, **angles)
    for c_enabled in (True, False):
        c_cfg = replace(cfg, c_enabled=c_enabled)
        got = list(engine.exact_experiment_distribution(c_cfg).items())
        want = list(scalar_oracle.exact_experiment_distribution(c_cfg).items())
        assert repr(got) == repr(want), ("exact table", c_cfg)
        scalar_oracle.assert_same_table(
            engine.run_trials(c_cfg),
            scalar_oracle.ensemble_table(scalar_oracle.run_trials(c_cfg)),
        )
print("ok")
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="needs a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("kernel", ["Sandybridge", "Nehalem"])
def test_norms_track_the_blas_kernel(kernel):
    """Under another OpenBLAS kernel the exact tables and the sampler's
    codes still equal the oracle's under that kernel: ``_norm_sq`` and
    ``np.vdot`` change together."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", KERNEL_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


@pytest.mark.parametrize(
    "run",
    [
        lambda seed: toys.run_toy_collider(3, seed),
        lambda seed: toys.run_toy_source_variant(3, seed),
        lambda seed: toys.run_rps(3, seed),
        lambda seed: analysis.teleport_channel_demo(True, 3, seed),
    ],
    ids=["toy-collider", "toy-source", "rps", "teleport"],
)
def test_runners_reject_seeds_outside_64_bits(run):
    run(2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            run(seed)


@pytest.mark.parametrize(
    "run",
    [
        lambda n: ExperimentConfig(n_trials=n).n_trials,
        lambda n: len(toys.run_toy_collider(n, 0)),
        lambda n: len(toys.run_rps(n, 0)),
        lambda n: analysis.teleport_channel_demo(False, n, 0).n_trials,
    ],
    ids=["config", "toy", "rps", "teleport"],
)
def test_runners_take_integer_trial_counts(run):
    # 2.5 used to run 3 trials in the toys, and True one trial or a TypeError.
    assert run(np.int64(3)) == 3
    for bad in (2.5, 3.0, True, "3", None, 0, -2):
        with pytest.raises(ValueError, match="n_trials"):
            run(bad)


def _table(columns: dict) -> Trials:
    n = len(next(iter(columns.values())))
    return Trials({"trial_id": np.arange(n), **columns})


def _column(draw, n: int) -> np.ndarray:
    """One G-test column of n rows: small ints, int8, bool, wide ints (up to
    +-2**40), strictly increasing trial_id-like ids with gaps, or floats.
    Its name is no known column's, so the count table codes it by rank."""
    kind = draw(st.sampled_from(["small", "int8", "bool", "wide", "ids", "float"]))
    if kind == "ids":
        return np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.int64)
    values = {
        "small": st.integers(-2, 3),
        "int8": st.integers(-128, 127),
        "bool": st.booleans(),
        "wide": st.integers(-2**40, 2**40),
        "float": st.floats(allow_nan=False),
    }[kind]
    dtype = {"int8": np.int8, "bool": bool, "float": float}.get(kind, np.int64)
    choices = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    return np.array(draw(st.lists(st.sampled_from(choices), min_size=n, max_size=n)), dtype=dtype)


@st.composite
def small_tables(draw):
    """A table of 2-5 columns x0.. of up to 300 rows, each column of one
    kind (see _column) drawing from its own 1-3 values, and a G-test over
    disjoint sets of them (target and versus never empty)."""
    n = draw(st.integers(0, 300))
    names = [f"x{i}" for i in range(draw(st.integers(2, 5)))]
    return _table({name: _column(draw, n) for name in names}), *_roles(draw, names)


def _roles(draw, names) -> tuple[tuple, tuple, tuple]:
    """(target, given, versus): disjoint sets of the names, target and
    versus never empty."""
    roles = draw(st.permutations(names))
    n_target = draw(st.integers(1, len(names) - 1))
    n_versus = draw(st.integers(1, len(names) - n_target))
    target, versus = roles[:n_target], roles[n_target:n_target + n_versus]
    return tuple(target), tuple(roles[n_target + n_versus:]), tuple(versus)


_TOY_NAMES = ["a", "b", "A", "B", "accepted"]
_WRITER_LAYOUTS = {  # the columns of a source toy, a collider toy and an rps table
    "source": (io.TOY_HEADER, io.TOY_HEADER[1:]),
    "collider": (io.TOY_HEADER, _TOY_NAMES),
    "rps": (io.RPS_HEADER, io.RPS_HEADER[1:]),
}
# Each writer's header and the token columns of its runs: an ensemble and the above.
_RUN_LAYOUTS = [(io.ENSEMBLE_HEADER, io.ENSEMBLE_HEADER[1:]), *_WRITER_LAYOUTS.values()]


@st.composite
def run_tables(draw):
    """A run table of one writer's layout of up to 300 rows, each column
    drawing from all of its known values (int8, int64 or float but for the
    bools), and a G-test over disjoint sets of its columns."""
    _header, names = draw(st.sampled_from(_RUN_LAYOUTS))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.int8, np.int64, float]))
    columns = {name: rng.choice(np.array(engine._COLUMN_VALUES[name]), n) for name in names}
    columns = {name: c if c.dtype == bool else c.astype(dtype) for name, c in columns.items()}
    return _table(columns), *_roles(draw, names)


_X = np.arange(240) % 2  # alternating 0, 1
_Y = np.arange(240) // 60 % 2  # blocks of 60 zeros, then 60 ones


def _five_bits(n: int):
    """n rows of five binary columns, tested as x0 against x3, x4 given x1,
    x2: the given radix 4 or the radix 8 of target and stratum exceeds n,
    so the running codes are compacted."""
    bits = (np.arange(n)[:, None] * 7 % 32) >> np.arange(5) & 1
    return _table({f"x{i}": bits[:, i] for i in range(5)}), ("x0",), ("x1", "x2"), ("x3", "x4")


# No shrink phase: shrinking a failing 300-row table takes minutes.
@settings(max_examples=300, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(case=small_tables(), min_cell=st.integers(0, 30))
@example(  # empty table
    case=(_table({"x0": _X[:0], "x1": _X[:0]}), ("x0",), (), ("x1",)), min_cell=0)
@example(  # a single stratum
    case=(_table({"x0": _X, "x1": _Y}), ("x0",), (), ("x1",)), min_cell=50)
@example(  # dof 0: a constant target in every stratum
    case=(_table({"x0": 0 * _X, "x1": _X, "x2": _Y}), ("x0",), ("x2",), ("x1",)), min_cell=5)
@example(  # a sparse stratum: x2 == 1 holds only 3 rows per versus value
    case=(_table({"x0": _Y, "x1": _X, "x2": (np.arange(240) < 6).astype(int)}),
          ("x0",), ("x2",), ("x1",)), min_cell=5)
@example(  # float target, bool given, and a versus spanning more than 2**40 values
    case=(_table({"x0": _X * 0.5 - 0.25, "x1": _Y.astype(bool), "x2": _X * 2**40 + _Y}),
          ("x0",), ("x1",), ("x2",)), min_cell=0)
@example(  # int8 outcomes against the trial ids, one rank per row
    case=(_table({"x0": (1 - 2 * _Y).astype(np.int8), "x1": _X.astype(np.int8)}),
          ("x0",), (), ("trial_id", "x1")), min_cell=0)
@example(  # uint64 values above 2**63, ranked in their own dtype
    case=(_table({"x0": _X, "x1": np.uint64(2**64 - 1) - _Y.astype(np.uint64)}),
          ("x0",), (), ("x1",)), min_cell=0)
@example(case=_five_bits(1), min_cell=0)
@example(case=_five_bits(2), min_cell=0)
@example(case=_five_bits(3), min_cell=0)
@example(case=_five_bits(4), min_cell=0)
@example(case=_five_bits(5), min_cell=1)
def test_gtest_matches_oracle_property(case, min_cell):
    table, target, given_, versus = case
    got = analysis.test_conditional_independence(table, target, given_, versus, min_cell=min_cell)
    want = scalar_oracle.test_conditional_independence(
        scalar_oracle.rows(table), target, given_, versus, min_cell=min_cell
    )
    assert got == want


def _cell_keys(table, names) -> list[tuple]:
    """Each row's (or count-table cell's) values of the named columns, as the
    oracle's records hold them."""
    return list(zip(*(table[name].tolist() for name in names)))


def _tally(table: Trials, names, keep: list[bool]):
    """The count table of the named columns, held to a pass over the rows;
    the slice of it that ``keep`` picks; and the oracle records of that
    slice's rows."""
    counts = analysis.count_table(table, names)
    keys = _cell_keys(table, names)
    first: dict = {}
    for row, key in enumerate(keys):
        first.setdefault(key, row)
    cells = _cell_keys(counts, names)
    # One cell per distinct key, in no fixed order; each with its count and first row.
    assert sorted(zip(counts.first.tolist(), cells)) == sorted((r, k) for k, r in first.items())
    tally = Counter(keys)
    assert counts.count.tolist() == [tally[key] for key in cells]
    assert len(counts) == len(table)
    header = _run_header(names)
    if header is not None:
        # A run table: the count table from its writer's row code is the same.
        rows = io.row_code(table, header)
        coded = analysis.count_table(table, rows.names, rows.code)
        assert rows.names == tuple(names)
        for got, want in [(coded.count, counts.count), (coded.first, counts.first),
                          *((coded[name], counts[name]) for name in names)]:
            assert np.array_equal(got, want)
    kept = counts.select(np.array(keep, dtype=bool))
    picked = {key for key, k in zip(cells, keep) if k}
    records = [r for r, key in zip(scalar_oracle.rows(table), keys) if key in picked]
    return counts, kept, records


def _run_header(names) -> list[str] | None:
    """The header of the run layout whose token columns are ``names``, if any."""
    return next((header for header, columns in _RUN_LAYOUTS if list(columns) == list(names)), None)


def _bad_value_raises(table: Trials, names, counts, data) -> None:
    """Put one bad value (2, -1, 0 in an outcome column, 0.5 or NaN) into a
    row of a known column of a run table: the writers' row code, the count
    table, a G-test naming the column and a count table built by hand with
    the value in a cell each raise ValueError, and so do the correlators
    when the column is a, b, A or B."""
    name = data.draw(st.sampled_from(names))
    value = data.draw(st.sampled_from(
        [v for v in (2, -1, 0, 0.5, math.nan) if v not in engine._COLUMN_VALUES[name]]))
    column = table[name].astype(float if isinstance(value, float) else np.int64)
    column[data.draw(st.integers(0, len(table) - 1))] = value
    bad = Trials({**table.columns, name: column})
    cells = counts[name].astype(column.dtype)
    cells[0] = value
    other = next(other for other in names if other != name)
    entries = [lambda: io.row_code(bad, _run_header(names)),
               lambda: analysis.count_table(bad, names),
               lambda: analysis.test_conditional_independence(bad, name, (), (other,)),
               lambda: analysis.CountTable({**counts.columns, name: cells}, counts.count,
                                           counts.first)]
    if name in ("a", "b", "A", "B"):
        entries.append(lambda: analysis.correlators(bad))
    for entry in entries:
        with pytest.raises(ValueError, match=f"column {name} holds a value"):
            entry()


def _wide_table():
    """Target x0 of 6 values against versus x1 of 8: dof 35, above the
    default thresholds, so the threshold comes from chdtri."""
    rows = np.arange(480)
    return _table({"x0": rows % 6, "x1": rows // 60 % 8}), ("x0",), (), ("x1",)


def _one_value_strata():
    """Stratum x2 == 1 holds one target value, stratum x2 == 2 one versus value."""
    x2 = np.arange(240) // 80
    return (_table({"x0": np.where(x2 == 1, 0, _X), "x1": np.where(x2 == 2, 1, _Y), "x2": x2}),
            ("x0",), ("x2",), ("x1",))


@settings(max_examples=300, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(case=st.one_of(small_tables(), run_tables()), min_cell=st.integers(0, 8),
       alpha=st.sampled_from([analysis.DEFAULT_ALPHA, 0.05]), data=st.data())
@example(case=(_table({"x0": _X[:0], "x1": _X[:0]}), ("x0",), (), ("x1",)),  # empty table
         min_cell=0, alpha=analysis.DEFAULT_ALPHA, data=None)
@example(case=_wide_table(), min_cell=8, alpha=analysis.DEFAULT_ALPHA, data=None)
@example(case=_wide_table(), min_cell=0, alpha=0.05, data=None)
@example(case=_one_value_strata(), min_cell=3, alpha=analysis.DEFAULT_ALPHA, data=None)
@example(  # float target, bool given, and a versus spanning more than 2**40 values
    case=(_table({"x0": _X * 0.5 - 0.25, "x1": _Y.astype(bool), "x2": _X * 2**40 + _Y}),
          ("x0",), ("x1",), ("x2",)), min_cell=0, alpha=0.05, data=None)
def test_table_gtest_matches_oracle_property(case, min_cell, alpha, data):
    # One count table over every column the G-test may name serves every
    # role split and every slice of its cells, as the CLI's tables do.
    table, target, given_, versus = case
    names = [name for name in table.columns if name != "trial_id" or name in target + versus]
    m = len(set(_cell_keys(table, names)))
    keep = [True] * m if data is None else data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    counts, kept, records = _tally(table, names, keep)
    # The cells in another order, each with its first row: the G-test takes
    # them in the order of their first rows, so the result is the same.
    order = np.arange(m)[::-1] if data is None else data.draw(st.permutations(range(m)))
    oracle = scalar_oracle.test_conditional_independence
    for part, rows in ((counts, scalar_oracle.rows(table)), (kept, records),
                       (counts.select(np.zeros(m, dtype=bool)), []),
                       (counts.select(np.array(order, dtype=np.intp)), scalar_oracle.rows(table))):
        got = analysis.test_conditional_independence(
            part, target, given_, versus, min_cell=min_cell, alpha=alpha)
        want = oracle(rows, target, given_, versus, min_cell=min_cell, alpha=alpha)
        assert repr(got) == repr(want)
    if data is not None and len(table) and _run_header(names) is not None:
        _bad_value_raises(table, names, counts, data)


@settings(max_examples=100, deadline=None, database=None)
@given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                      max_size=60))
@example(cells=[])
def test_correlators_match_oracle_property(cells):
    table = _table({name: np.array([c[i] for c in cells], dtype=np.int8)
                    for i, name in enumerate(("a", "b", "A", "B"))})
    assert analysis.correlators(table) == scalar_oracle.correlators(scalar_oracle.rows(table))
    # A count table, and the slice of its cells with A = +1, give the rows' correlators.
    counts = analysis.count_table(table, ("a", "b", "A", "B"))
    assert analysis.correlators(counts) == scalar_oracle.correlators(scalar_oracle.rows(table))
    assert analysis.correlators(counts.select(counts["A"] == 1)) == scalar_oracle.correlators(
        [r for r in scalar_oracle.rows(table) if r.A == 1])


def test_batteries_match_oracle():
    # The source-variant oracle records carry the hidden pair as one "lambda"
    # value; the table splits it into two columns with the same partition.
    records = scalar_oracle._run_toy(6000, 3, toys.singlet_weight_rule(), record_lambda=True)
    kept_records = [r for r in records if r.accepted]
    table = toys.run_toy_source_variant(6000, 3)
    kept = toys.accepted(table)
    oracle = scalar_oracle.test_conditional_independence
    assert analysis.statistical_independence_test(kept, post_selected=True) == oracle(
        kept_records, "lambda", (), ("a", "b"), hypothesis="SI_ps"
    )
    assert analysis.local_causality_tests(kept, post_selected=True, include_lambda=True) == [
        oracle(kept_records, "A", ("a", "lambda"), ("b", "B"), hypothesis="LC_ps-A"),
        oracle(kept_records, "B", ("b", "lambda"), ("a", "A"), hypothesis="LC_ps-B"),
    ]
    ensemble = run_trials(ExperimentConfig(geometry="early", n_trials=3000, seed=8))
    event_ready = engine.post_select(ensemble)
    ready_records = [r for r in scalar_oracle.rows(ensemble) if r.heralded]
    assert analysis.local_causality_tests(event_ready, post_selected=True) == [
        oracle(ready_records, "A", ("a",), ("b", "B"), hypothesis="LC_ps-A"),
        oracle(ready_records, "B", ("b",), ("a", "A"), hypothesis="LC_ps-B"),
    ]
    assert analysis.correlators(event_ready) == scalar_oracle.correlators(ready_records)


def test_csv_writers_match_oracle(tmp_path):
    def same_bytes(write, table, oracle_write, records):
        write(tmp_path / "columns.csv", table)
        oracle_write(tmp_path / "records.csv", records)
        return (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()

    for c_enabled, partial in itertools.product((True, False), (False, True)):
        cfg = ExperimentConfig(n_trials=300, seed=4, c_enabled=c_enabled, bsm_partial=partial)
        assert same_bytes(io.write_ensemble_csv, run_trials(cfg),
                          scalar_oracle.write_ensemble_csv, scalar_oracle.run_trials(cfg))
    rule = toys.singlet_weight_rule()
    for record_lambda in (False, True):
        assert same_bytes(io.write_toy_csv, toys._run_toy(300, 4, rule, record_lambda),
                          scalar_oracle.write_toy_csv,
                          scalar_oracle._run_toy(300, 4, rule, record_lambda))
    assert same_bytes(io.write_rps_csv, toys.run_rps(300, 4),
                      scalar_oracle.write_rps_csv, scalar_oracle.run_rps(300, 4))


_N = io.CHUNK_ROWS


# Trial ids whose decimals cross every width, and every four-digit limb
# boundary, within one chunk.
_WIDTH_IDS = [0, 9, 10, 99, 100, 9999, 10000, 10**8 - 1, 10**8, 10**12, 10**17, 10**18 - 1]


def _ensemble(rng: np.random.Generator, c_outcome: np.ndarray, ids=None) -> Trials:
    n = len(c_outcome)
    return Trials({
        "trial_id": np.cumsum(rng.integers(1, 2**40, n)) - 1 if ids is None else np.array(ids),
        "a": rng.integers(0, 2, n).astype(np.int8),
        "b": rng.integers(0, 2, n).astype(np.int8),
        "A": rng.choice(np.array([1, -1], dtype=np.int8), n),
        "B": rng.choice(np.array([1, -1], dtype=np.int8), n),
        "c_outcome": c_outcome.astype(np.int8),
        "heralded": rng.integers(0, 2, n).astype(bool),
    })


def _simulate_meta(angles_a, angles_b, out: str) -> dict:
    meta = engine.config_meta(ExperimentConfig(angles_a=angles_a, angles_b=angles_b))
    meta.update({"command": "simulate", "exact": False, "out": out})
    return meta


_ANGLE_PAIRS = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2)


@st.composite
def mirror_cases(draw):
    """An ensemble of 0, 1 or about one or two chunks of rows, with C off
    (every c_outcome -1) or any C code per row, and a simulate meta with any
    finite float angles and any text as ``out``."""
    n = draw(st.sampled_from([0, 1, 2, _N - 1, _N, _N + 1, 2 * _N - 1, 2 * _N, 2 * _N + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c_off = draw(st.booleans())
    c_outcome = np.full(n, -1) if c_off else rng.integers(0, len(engine.OUTCOMES), n)
    meta = _simulate_meta(draw(_ANGLE_PAIRS), draw(_ANGLE_PAIRS), draw(st.text()))
    return _ensemble(rng, c_outcome), meta


def _oracle_records(ensemble: Trials) -> list:
    return [
        scalar_oracle.TrialRecord(
            r.trial_id, r.a, r.b, r.A, r.B,
            None if r.c_outcome < 0 else engine.OUTCOMES[r.c_outcome], r.heralded,
        )
        for r in scalar_oracle.rows(ensemble)
    ]


# No shrink phase: shrinking a failing table of two chunks takes minutes.
@settings(max_examples=40, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(case=mirror_cases())
@example(case=(  # one row of each C code, C off (-1) first; a non-ASCII out
    _ensemble(np.random.default_rng(0), np.arange(-1, len(engine.OUTCOMES))),
    _simulate_meta((0.1, 1e-300), (-2.5, 3.0), "ρun/Δ [] \"\\"),
))
@example(case=(  # no rows: "records": []
    _ensemble(np.random.default_rng(0), np.arange(0)), _simulate_meta((0.0, 1.0), (2.0, 3.0), "r"),
))
@example(case=(  # ids of every decimal width
    _ensemble(np.random.default_rng(1), np.arange(len(_WIDTH_IDS)) % 6 - 1, _WIDTH_IDS),
    _simulate_meta((0.0, 1.0), (2.0, 3.0), "r"),
))
@example(case=(  # one row, trial 0
    _ensemble(np.random.default_rng(2), np.array([2]), [0]), _simulate_meta((0.0, 1.0), (2.0, 3.0), "r"),
))
def test_streamed_writers_match_oracle_property(case, tmp_path_factory):
    ensemble, meta = case
    path = tmp_path_factory.mktemp("mirror") / "run"
    io.write_json(path.with_suffix(".json"), io.ensemble_json_payload(ensemble, meta))
    want = scalar_oracle.dumps_canonical(scalar_oracle.ensemble_json_payload(ensemble, meta))
    assert path.with_suffix(".json").read_bytes() == want.encode()
    io.write_ensemble_csv(path.with_suffix(".csv"), ensemble)
    scalar_oracle.write_ensemble_csv(path.with_suffix(".oracle.csv"), _oracle_records(ensemble))
    assert path.with_suffix(".csv").read_bytes() == path.with_suffix(".oracle.csv").read_bytes()


def _every_row(header: list[str], names: list[str]) -> tuple[list[str], Trials]:
    """(header, a table with one row for each combination of the named
    columns' tokens, its trial_ids 1 apart up to 10**18 - 1)."""
    rows = list(itertools.product(*(sorted(engine._COLUMN_VALUES[name]) for name in names)))
    columns = {"trial_id": np.arange(10**18 - len(rows), 10**18)}
    columns.update({name: np.array(column) for name, column in zip(names, zip(*rows))})
    return header, Trials(columns)


def _with_ids(header: list[str], names: list[str], ids: list[int]) -> tuple[list[str], Trials]:
    """(header, a table of the given trial_ids, each named column cycling
    through its tokens)."""
    columns = {"trial_id": np.array(ids)}
    columns.update({name: np.resize(sorted(engine._COLUMN_VALUES[name]), len(ids))
                    for name in names})
    return header, Trials(columns)


@st.composite
def writer_cases(draw):
    """A toy table with or without the lambda pair, or an rps table, of 0,
    1 or about one or two chunks of rows: gapped trial ids, ending at
    10**18 - 1 or not, and any token in each column."""
    header, names = _WRITER_LAYOUTS[draw(st.sampled_from(sorted(_WRITER_LAYOUTS)))]
    n = draw(st.sampled_from([0, 1, 2, _N - 1, _N, _N + 1, 2 * _N - 1, 2 * _N, 2 * _N + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.cumsum(rng.integers(1, 2**40, n)) - 1
    if n and draw(st.booleans()):
        ids += 10**18 - 1 - ids[-1]
    columns = {"trial_id": ids}
    columns.update({name: rng.choice(np.array(sorted(engine._COLUMN_VALUES[name])), n)
                    for name in names})
    return header, Trials(columns)


# No shrink phase, as for the streamed writers above.
@settings(max_examples=40, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(case=writer_cases())
@example(case=_every_row(*_WRITER_LAYOUTS["source"]))
@example(case=_every_row(*_WRITER_LAYOUTS["collider"]))
@example(case=_every_row(*_WRITER_LAYOUTS["rps"]))
@example(case=_with_ids(*_WRITER_LAYOUTS["source"], _WIDTH_IDS))
@example(case=_with_ids(*_WRITER_LAYOUTS["rps"], _WIDTH_IDS))
@example(case=_with_ids(*_WRITER_LAYOUTS["collider"], [0]))
def test_toy_and_rps_writers_match_oracle_property(case, tmp_path_factory):
    """write_toy_csv, with and without the lambda pair, and write_rps_csv
    write the bytes of the column writer that joins each line field by
    field."""
    header, table = case
    write = io.write_rps_csv if header == io.RPS_HEADER else io.write_toy_csv
    path = tmp_path_factory.mktemp("writer") / "run.csv"
    write(path, table)
    scalar_oracle.write_csv(path.with_suffix(".oracle.csv"), header, table)
    assert path.read_bytes() == path.with_suffix(".oracle.csv").read_bytes()
