"""Statevector core tests.

Bell-measurement expectations are checked against an independent oracle
that builds full projector matrices with np.kron from explicitly written
Bell vectors, bypassing the library's sliced-tensor implementation.
"""

import collections
import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

import swapsim
from swapsim import analysis, geometry, qcore
from swapsim.qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    StateVector,
    basis_state,
    bell_state,
    exact_branch_enumeration,
    make_two_singlets,
    sample_branches,
    singlet,
)
from swapsim.qcore import (
    _branch_outcomes,
    _branch_tables,
    _bind_walk,
    _collapse,
    _fold,
    _plan_codes,
    _sample_leaves,
    _walk,
    _walk_tables,
)
from scalar_oracle import plan_branches, stacked_tables, walk_branches

SQ = 1.0 / math.sqrt(2.0)

# Oracle Bell vectors in the (left, right) computational basis, written out
# by hand: phi+- = (|00> +- |11>)/sqrt(2), psi+- = (|01> +- |10>)/sqrt(2).
ORACLE_BELL = {
    BellOutcome.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQ,
    BellOutcome.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQ,
    BellOutcome.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQ,
    BellOutcome.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQ,
}


def oracle_projector_12(outcome: BellOutcome) -> np.ndarray:
    """Projector onto a Bell state of qubits (1, 2) in a 4-qubit register,
    built as I (x) |b><b| (x) I (qubit 0 is the most significant bit)."""
    b = ORACLE_BELL[outcome]
    proj = np.outer(b, b.conj())
    return np.kron(np.eye(2), np.kron(proj, np.eye(2)))


def oracle_two_singlets() -> np.ndarray:
    """kron of two hand-written singlets."""
    s = ORACLE_BELL[BellOutcome.PSI_MINUS]
    return np.kron(s, s)


def oracle_swapped_state() -> np.ndarray:
    """psi- on (0, 3) and psi- on (1, 2), assembled index by index."""
    s = ORACLE_BELL[BellOutcome.PSI_MINUS].reshape(2, 2)
    amps = np.zeros(16, dtype=complex)
    for idx in range(16):
        b0, b1, b2, b3 = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        amps[idx] = s[b0, b3] * s[b1, b2]
    return amps


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_qubit_budget(self):
        with pytest.raises(ValueError):
            StateVector(6, np.zeros(64))

    @pytest.mark.parametrize("count,size", [(True, 2), (2.0, 4), ("2", 4), (None, 2)])
    def test_non_int_qubit_count_rejected(self, count, size):
        # True and 2.0 were stored as the qubit count.
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            StateVector(count, np.eye(size)[0])

    def test_numpy_int_qubit_count_stored_as_int(self):
        state = StateVector(np.int64(2), np.eye(4)[0])
        assert type(state.num_qubits) is int and state.num_qubits == 2

    def test_immutable(self):
        s = singlet()
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([bad, 0.0]))


class TestSpinMeasurement:
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            SpinMeasurement(0, angle)

    def test_finite_angles_accepted(self):
        for angle in (0.0, -0.0, 5e-324, -1e308, 2.0**1023):
            assert SpinMeasurement(1, angle).angle == angle

    @pytest.mark.parametrize("angle", [True, False, np.True_, "1.0", None, 1 + 0j])
    def test_non_real_angle_rejected(self, angle):
        # A bool angle read as 1.0 or 0.0.
        with pytest.raises(ValueError, match="angle must be a real number"):
            SpinMeasurement(0, angle)

    @pytest.mark.parametrize("qubit", [1.5, 1.0, True, "1", None])
    def test_non_int_qubit_rejected(self, qubit):
        # 1.5 failed only later, in the walk, with a TypeError.
        with pytest.raises(ValueError, match="qubit must be an int"):
            SpinMeasurement(qubit, 0.0)

    def test_numpy_fields_read_as_python_values(self):
        step = SpinMeasurement(np.int64(2), np.float64(0.25))
        assert type(step.qubit) is int and type(step.angle) is float
        assert step == SpinMeasurement(2, 0.25)


class TestBsmStepFields:
    @pytest.mark.parametrize("field,value", [
        ("q_left", 1.0), ("q_left", True), ("q_right", "2"), ("q_right", None),
        ("partial", "no"), ("partial", 1),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an? "):
            BsmStep(**{"q_left": 1, "q_right": 2, field: value})

    def test_numpy_fields_read_as_python_values(self):
        step = BsmStep(np.int64(2), np.int32(1), np.True_)
        assert step == BsmStep(2, 1, True)
        assert [type(v) for v in vars(step).values()] == [int, int, bool]


class TestBasisState:
    @pytest.mark.parametrize("index", [-1, 4, 7, True, 1.0])
    def test_bad_index_rejected(self, index):
        # -1 gave |11>, and 7 an IndexError.
        with pytest.raises(ValueError, match="index must be"):
            basis_state(2, index)

    def test_every_index(self):
        for index in range(8):
            assert basis_state(3, index).amplitudes.tolist() == np.eye(8)[index].tolist()


_SPIN = SpinMeasurement(0, 0.0)

# Both plan entries given a step that is no step, and the sampler given
# each bad draw; field is what the message must name.
_BAD_ENTRY_CALLS = [
    pytest.param(lambda s: sample_branches(s, [None], [[0.5]]), "plan step",
                 id="sample_branches-step"),
    pytest.param(lambda s: exact_branch_enumeration(s, ["x"]), "plan step",
                 id="exact_branch_enumeration-step"),
]
for _draw in ("0.5", False, math.nan, 1.0):
    _BAD_ENTRY_CALLS.append(
        pytest.param(lambda s, d=_draw: sample_branches(s, [_SPIN, BsmStep(1, 2)], [[0.5, d]]),
                     "draw", id=f"sample_branches-draw-{_draw!r}"))


class TestPublicEntryChecks:
    @pytest.mark.parametrize("call,field", _BAD_ENTRY_CALLS)
    def test_bad_input_raises_value_error_naming_the_field(self, call, field):
        # A non-step entry raised AttributeError; draws False and "0.5" ran
        # as 0.0 and 0.5.
        with pytest.raises(ValueError, match=field):
            call(make_two_singlets())


class TestPublicSurface:
    def test_public_functions_are_the_constructors_and_plan_entries(self):
        public = {
            name for name, value in vars(qcore).items()
            if inspect.isfunction(value) and value.__module__ == "swapsim.qcore"
            and not name.startswith("_")
        }
        assert public == {"basis_state", "bell_state", "singlet", "make_two_singlets",
                          "exact_branch_enumeration", "sample_branches"}

    @pytest.mark.parametrize(
        "name", ["bell_state_measurement", "fidelity", "measure_spin", "prob_spin_up"]
    )
    def test_removed_one_step_helpers_not_exported(self, name):
        assert not hasattr(swapsim, name)

    def test_partial_analyzer_has_one_form(self):
        fields = tuple(field.name for field in dataclasses.fields(BsmStep))
        assert fields == ("q_left", "q_right", "partial")

    def test_geometry_presets_are_read_by_name_only(self):
        public = {name for name, value in vars(geometry).items()
                  if inspect.isfunction(value) and not name.startswith("_")}
        assert not public & {"early_delft", "delayed_delft", "spacelike_delft"}
        assert "preset_by_name" in public and not hasattr(geometry, "PRESET_BUILDERS")

    @pytest.mark.parametrize("name,params", [("no_difference_check", ["config"]),
                                             ("fragility", ["config"]),
                                             ("no_signaling_tests", ["data"])],
                             ids=["no_difference_check", "fragility", "no_signaling_tests"])
    def test_diagnostics_take_no_tolerance_or_suffix(self, name, params):
        assert list(inspect.signature(getattr(analysis, name)).parameters) == params


class TestTwoSinglets:
    def test_amplitude_0101(self):
        # Hand expansion of (|01>-|10>)/sqrt2 (x) (|01>-|10>)/sqrt2.
        s = make_two_singlets()
        assert abs(s.amplitude(0b0101) - 0.5) < 1e-12

    def test_matches_kron_oracle(self):
        s = make_two_singlets()
        assert np.allclose(s.amplitudes, oracle_two_singlets(), atol=1e-12)

    def test_odd_parity_on_first_pair_vanishes(self):
        s = make_two_singlets()
        for idx in range(16):
            b0, b1 = (idx >> 3) & 1, (idx >> 2) & 1
            if b0 == b1:  # singlet holds one excitation per pair
                assert s.amplitude(idx) == 0.0

    def test_norm(self):
        s = make_two_singlets()
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12

    def test_singlet_sign_convention(self):
        s = singlet()
        assert abs(s.amplitude(0b01) - SQ) < 1e-12
        assert abs(s.amplitude(0b10) + SQ) < 1e-12


class TestSpinOutcomes:
    @pytest.mark.parametrize("state,angle,p_up", [
        pytest.param(singlet(), 0.0, 0.5, id="singlet-marginal"),
        pytest.param(basis_state(1, 0), 0.0, 1.0, id="eigenstate"),
        pytest.param(basis_state(1, 0), math.pi / 2, 0.5, id="x-basis-on-z-eigenstate"),
    ])
    def test_spin_up_probability(self, state, angle, p_up):
        table = exact_branch_enumeration(state, [SpinMeasurement(0, angle)])
        assert abs(table[(1,)] - p_up) < 1e-12

    def test_eigenstate_any_draw(self):
        for draw in (0.0, 0.3, 0.999):
            out, post = _collapse(basis_state(1, 0).amplitudes, SpinMeasurement(0, 0.0), draw)
            assert out == 1
            assert abs(post[0] - 1.0) < 1e-12

    def test_threshold_convention(self):
        # P(+1) = 0.5 on a singlet wing; a draw below the threshold selects
        # +1, code 0.
        codes = sample_branches(singlet(), [SpinMeasurement(0, 0.0)], [[0.3], [0.5]])
        assert codes[:, 0].tolist() == [0, 1]

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.1, 5.9])
    def test_singlet_anticorrelation_at_equal_angles(self, theta):
        plan = [SpinMeasurement(0, theta), SpinMeasurement(1, theta)]
        codes = sample_branches(singlet(), plan, np.random.default_rng(42).random((20, 2)))
        assert (codes[:, 0] != codes[:, 1]).all()

    def test_repeated_measurement_is_stable(self):
        plan = [SpinMeasurement(0, 1.234)] * 6
        codes = sample_branches(singlet(), plan, np.random.default_rng(7).random((20, 6)))
        assert (codes == codes[:, :1]).all()

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        amps = make_two_singlets().amplitudes
        for q, angle in ((0, 0.3), (3, 2.0), (1, 4.4)):
            _, amps = _collapse(amps, SpinMeasurement(q, angle), rng.random())
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    def test_born_consistency_frequencies(self):
        # Empirical +1 (code 0) frequency matches the exact P(+1) within 5
        # standard errors.
        rng = np.random.default_rng(2026)
        n = 100_000
        for state, m in (
            (singlet(), SpinMeasurement(0, 0.9)),
            (basis_state(1, 0), SpinMeasurement(0, 1.1)),
        ):
            p = exact_branch_enumeration(state, [m])[(1,)]
            draws = rng.random(n)
            hits = int((sample_branches(state, [m], draws[:, None])[:, 0] == 0).sum())
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(hits / n - p) < 5.0 * se


class TestBellStateMeasurement:
    def test_two_singlet_probabilities_quarter_each(self):
        # Oracle: p = psi^dag P psi with kron-built projectors.
        psi = oracle_two_singlets()
        for outcome in ORACLE_BELL:
            p_oracle = float(np.vdot(psi, oracle_projector_12(outcome) @ psi).real)
            assert abs(p_oracle - 0.25) < 1e-12
        table = exact_branch_enumeration(make_two_singlets(), [BsmStep(1, 2)])
        for outcome in ORACLE_BELL:
            assert abs(table[(outcome,)] - 0.25) < 1e-12

    def test_swap_leaves_outer_pair_in_psi_minus(self):
        psi = oracle_two_singlets()
        proj = oracle_projector_12(BellOutcome.PSI_MINUS)
        collapsed = proj @ psi
        collapsed /= np.linalg.norm(collapsed)
        expected = oracle_swapped_state()
        assert abs(abs(np.vdot(expected, collapsed)) ** 2 - 1.0) < 1e-12

        # Library path: psi- is last in cumulative order, so a high draw hits it.
        outcome, post = _collapse(make_two_singlets().amplitudes, BsmStep(1, 2), 0.99)
        assert outcome is BellOutcome.PSI_MINUS
        assert abs(abs(np.vdot(expected, post)) ** 2 - 1.0) < 1e-12

    def test_collapse_matches_oracle_for_every_outcome(self):
        draws = {  # cumulative order phi+, phi-, psi+, psi- at 1/4 each
            BellOutcome.PHI_PLUS: 0.1,
            BellOutcome.PHI_MINUS: 0.3,
            BellOutcome.PSI_PLUS: 0.6,
            BellOutcome.PSI_MINUS: 0.9,
        }
        psi = oracle_two_singlets()
        for outcome, draw in draws.items():
            got, post = _collapse(make_two_singlets().amplitudes, BsmStep(1, 2), draw)
            assert got is outcome
            expected = oracle_projector_12(outcome) @ psi
            expected /= np.linalg.norm(expected)
            overlap = abs(np.vdot(expected, post)) ** 2
            assert abs(overlap - 1.0) < 1e-12

    def test_eigenstate_returns_certainty(self):
        # phi+ on (0, 1), psi- on (2, 3).
        state = StateVector(
            4, np.kron(bell_state(BellOutcome.PHI_PLUS).amplitudes, singlet().amplitudes)
        )
        step = BsmStep(0, 1)
        assert abs(exact_branch_enumeration(state, [step])[(BellOutcome.PHI_PLUS,)] - 1.0) < 1e-12
        code = sample_branches(state, [step], [[0.5]])[0, 0]
        assert _branch_outcomes(step)[code] is BellOutcome.PHI_PLUS

    def test_partial_mode_conservation(self):
        table = exact_branch_enumeration(make_two_singlets(), [BsmStep(1, 2, True)])
        probs = {c: p for (c,), p in table.items()}
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert list(probs) == [BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS, BellOutcome.NO_HERALD]

    def test_partial_no_herald_projects_onto_folded_subspace(self):
        step = BsmStep(1, 2, partial=True)
        outcome, post = _collapse(make_two_singlets().amplitudes, step, 0.95)
        assert outcome is BellOutcome.NO_HERALD
        # Post state lives in the phi+ / phi- subspace of the pair.
        table = exact_branch_enumeration(StateVector(4, post), [BsmStep(1, 2)])
        folded = {c: p for (c,), p in table.items()}
        assert abs(folded[BellOutcome.PSI_MINUS]) < 1e-12
        assert abs(folded[BellOutcome.PSI_PLUS]) < 1e-12
        assert abs(folded[BellOutcome.PHI_PLUS] + folded[BellOutcome.PHI_MINUS] - 1.0) < 1e-12

    def test_partial_sampling_matches_probabilities(self):
        rng = np.random.default_rng(5)
        n = 20_000
        step = BsmStep(1, 2, partial=True)
        codes = sample_branches(make_two_singlets(), [step], rng.random((n, 1)))[:, 0]
        counts = dict(zip(_branch_outcomes(step), np.bincount(codes, minlength=3).tolist()))
        for o, expected in ((BellOutcome.PSI_MINUS, 0.25), (BellOutcome.NO_HERALD, 0.5)):
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(counts[o] / n - expected) < 5 * se


class TestExactBranchEnumeration:
    def test_single_qubit_table(self):
        table = exact_branch_enumeration(basis_state(1, 0), [SpinMeasurement(0, 0.0)])
        assert table[(1,)] == pytest.approx(1.0, abs=1e-12)
        assert table[(-1,)] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        plan = [
            SpinMeasurement(0, 0.3),
            SpinMeasurement(3, 1.1),
            BsmStep(1, 2),
        ]
        table = exact_branch_enumeration(make_two_singlets(), plan)
        assert len(table) == 16
        assert abs(sum(table.values()) - 1.0) < 1e-12

    def test_bsm_marginal_quarter_each(self):
        plan = [SpinMeasurement(0, 0.0), SpinMeasurement(3, 0.0), BsmStep(1, 2)]
        table = exact_branch_enumeration(make_two_singlets(), plan)
        for outcome in ORACLE_BELL:
            marginal = sum(p for key, p in table.items() if key[2] is outcome)
            assert abs(marginal - 0.25) < 1e-12

    def test_bsm_marginal_independent_of_angles(self):
        # No-signaling to the central measurement: any wing angles give 1/4.
        for ta, tb in ((0.0, 0.0), (0.9, 2.2), (4.0, 1.3)):
            plan = [SpinMeasurement(0, ta), SpinMeasurement(3, tb), BsmStep(1, 2)]
            table = exact_branch_enumeration(make_two_singlets(), plan)
            for outcome in ORACLE_BELL:
                marginal = sum(p for key, p in table.items() if key[2] is outcome)
                assert abs(marginal - 0.25) < 1e-12

    def test_order_invariance_over_commuting_steps(self):
        steps = {
            "A": SpinMeasurement(0, 0.7),
            "B": SpinMeasurement(3, 2.0),
            "C": BsmStep(1, 2),
        }
        names = list(steps)
        reference = None
        for perm in itertools.permutations(names):
            table = exact_branch_enumeration(make_two_singlets(), [steps[k] for k in perm])
            named = {
                tuple(sorted(zip(perm, key))): p for key, p in table.items()
            }
            if reference is None:
                reference = named
            else:
                assert set(named) == set(reference)
                for k in named:
                    assert abs(named[k] - reference[k]) < 1e-12

    def test_bsm_first_vs_last(self):
        early = [BsmStep(1, 2), SpinMeasurement(0, 0.0), SpinMeasurement(3, 0.0)]
        late = [SpinMeasurement(0, 0.0), SpinMeasurement(3, 0.0), BsmStep(1, 2)]
        t_early = exact_branch_enumeration(make_two_singlets(), early)
        t_late = exact_branch_enumeration(make_two_singlets(), late)
        for (c, a, b), p in t_early.items():
            assert abs(p - t_late[(a, b, c)]) < 1e-12

    def test_sampling_agrees_with_enumeration(self):
        # Cross-check the sampler against the enumerated joint distribution.
        plan = [SpinMeasurement(0, 0.6), BsmStep(1, 2)]
        table = exact_branch_enumeration(make_two_singlets(), plan)
        rng = np.random.default_rng(11)
        n = 20_000
        codes = sample_branches(make_two_singlets(), plan, rng.random((n, 2)))
        outcomes = [_branch_outcomes(step) for step in plan]
        counts = collections.Counter(
            tuple(outs[c] for outs, c in zip(outcomes, row)) for row in codes.tolist()
        )
        for key, p in table.items():
            freq = counts.get(key, 0) / n
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) < 5 * se + 1e-9

    def test_empty_plan_is_one_leaf(self):
        # No step: one leaf, the empty outcome sequence, of the state's squared norm.
        for state in (make_two_singlets(), singlet(), basis_state(1, 1)):
            norm = np.vdot(state.amplitudes, state.amplitudes).real
            assert exact_branch_enumeration(state, []) == {(): float(norm)}

    @pytest.mark.parametrize("state,step", [
        pytest.param(singlet(), SpinMeasurement(2, 0.0), id="spin-past-2-qubits"),
        pytest.param(make_two_singlets(), SpinMeasurement(4, 0.0), id="spin-past-4-qubits"),
        pytest.param(make_two_singlets(), BsmStep(1, 1), id="bsm-1-1"),
        pytest.param(make_two_singlets(), BsmStep(2, 2), id="bsm-2-2"),
        pytest.param(make_two_singlets(), BsmStep(1, 4), id="bsm-past-4-qubits"),
    ])
    def test_plan_budget_enforced(self, state, step):
        with pytest.raises(ValueError):
            exact_branch_enumeration(state, [step])
        with pytest.raises(ValueError):
            sample_branches(state, [step], [[0.5]])


_RNG = np.random.default_rng(23)
STACK = _RNG.normal(size=(6, 16)) + 1j * _RNG.normal(size=(6, 16))
# Six one-step plans of each shape; spin angles differ by plan.
STEP_ROWS = {
    **{f"spin-q{q}": [SpinMeasurement(q, angle) for angle in _RNG.uniform(-7.0, 7.0, size=6)]
       for q in range(4)},
    "bsm-full": [BsmStep(1, 2)] * 6,
    "bsm-partial": [BsmStep(1, 2, partial=True)] * 6,
    "bsm-left-above-right": [BsmStep(2, 1)] * 6,
    "bsm-partial-left-above-right": [BsmStep(3, 0, partial=True)] * 6,
}
LAYOUTS = {
    "contiguous": lambda stack: stack,
    "broadcast": lambda stack: np.broadcast_to(stack[1], stack.shape),
    "fortran": np.asfortranarray,
}


class TestStackedBranches:
    """One depth of the walk's tables for stacked one-step plans from one
    start state, a spin at each plan's own angle, gives each plan's rows
    what its own one-plan walk gives, bit for bit, whatever the start
    state's layout and the plan count: its unnormalized leaves, its
    coefficients and the weights read from them."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name", sorted(STEP_ROWS))
    def test_rows_match_one_row_calls(self, name, layout):
        for initial in LAYOUTS[layout](STACK):
            for plans in (1, 2, 3, 6):
                steps = STEP_ROWS[name][:plans]
                posts, coeffs, weights = plan_branches(initial, steps)
                k = len(_branch_outcomes(steps[0]))
                assert posts.shape == (plans, k, 16) and weights.shape == (plans, k)
                for p, step in enumerate(steps):
                    own_posts, own_coeffs, own_weights = plan_branches(initial.copy(), [step])
                    assert posts[p].tobytes() == own_posts[0].tobytes()
                    assert coeffs[p].tobytes() == own_coeffs[0].tobytes()
                    assert weights[p].tobytes() == own_weights[0].tobytes()


def _signed_stack(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """An (m, 2**n) complex stack whose real and imaginary parts are each
    +0, -0, a signed subnormal, a signed 1 or a random value in (-1, 1)."""
    parts = np.array([0.0, -0.0, 2.0**-1074, -(2.0**-1074), 1.0, -1.0, 0.5])
    picked = parts[rng.integers(0, len(parts), (2, m, 2**n))]
    random = picked == 0.5
    picked[random] = rng.uniform(-1.0, 1.0, random.sum())
    # Set the parts apart: picked[0] + 1j * picked[1] turns an imaginary -0 into +0.
    stack = np.empty((m, 2**n), dtype=np.complex128)
    stack.real, stack.imag = picked
    return stack


class TestOneFold:
    """A partial BSM is the full BSM on the same qubits, then ``_fold``: its
    walk tables read the same index tables, and its leaves and weights are
    the fold of the full BSM's, bit for bit, signed zeros included."""

    def test_full_and_partial_bsm_share_tables(self):
        _walk_tables.cache_clear()
        _branch_tables.cache_clear()
        for partial in (False, True):
            walk_branches(STACK, [BsmStep(2, 1, partial)])
        assert _walk_tables.cache_info().misses == 2
        info = _branch_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 1), (0, 3), (3, 0)])
    def test_partial_is_fold_of_full(self, pair):
        rng = np.random.default_rng(sum(pair) * 2 + 1)
        stack = _signed_stack(rng, 40, 4)
        full, partial = BsmStep(*pair), BsmStep(*pair, True)
        full_posts, full_coeffs, full_weights = walk_branches(stack, [full])
        posts, coeffs, weights = walk_branches(stack, [partial])
        assert posts.tobytes() == _fold(partial, full_posts).tobytes()
        assert coeffs.tobytes() == full_coeffs.tobytes()
        assert weights.tobytes() == _fold(partial, full_weights).tobytes()


class TestEnumeratePlansChecks:
    """Plans stacked through ``_walk_tables`` picks are one template plan
    with per-plan spin angles: each plan reads its own angles, and the
    tables read no template angle."""

    @staticmethod
    def walk(plan, angles):
        tables, flat = stacked_tables(plan, 16, angles)
        probs = _walk(_bind_walk(basis_state(4, 1).amplitudes, tables), flat)
        return probs.reshape(len(angles), -1)

    def test_angles_may_differ(self):
        probs = self.walk([SpinMeasurement(3, 0.0)], [[0.0], [math.pi]])
        assert probs[0].tolist() == [0.0, 1.0]
        np.testing.assert_allclose(probs[1], [1.0, 0.0], atol=1e-15)

    def test_template_angles_are_not_read(self):
        plan = [BsmStep(1, 2), SpinMeasurement(3, 0.7)]
        probs = self.walk(plan, [[0.0]])
        assert probs.tobytes() == self.walk(
            [BsmStep(1, 2), SpinMeasurement(3, 0.0)], [[0.0]]
        ).tobytes()


def scalar_codes(initial: StateVector, plan, draws) -> np.ndarray:
    """Outcome codes from collapsing step by step with each row's draws."""
    out = np.empty(np.shape(draws), dtype=np.int8)
    for i, row in enumerate(draws):
        amps = initial.amplitudes
        for d, (step, draw) in enumerate(zip(plan, row)):
            outcome, amps = _collapse(amps, step, draw)
            out[i, d] = _branch_outcomes(step).index(outcome)
    return out


def slot_edges(state, step):
    """A step's draw-slot edges: the cumulative weights in outcome order,
    only the first for a spin."""
    edges = list(itertools.accumulate(plan_branches(state.amplitudes, [step])[2][0].tolist()))
    return edges[:1] if isinstance(step, SpinMeasurement) else edges


class TestSampleBranches:
    PLANS = {
        "bsm-first": [BsmStep(1, 2), SpinMeasurement(0, 0.3), SpinMeasurement(3, 2.0)],
        "bsm-last-partial": [
            SpinMeasurement(0, 1.1), SpinMeasurement(3, -0.4), BsmStep(1, 2, partial=True)
        ],
        "partial-first": [BsmStep(2, 1, partial=True), SpinMeasurement(0, 0.7)],
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_step_by_step_collapse_at_interval_edges(self, name):
        plan = self.PLANS[name]
        initial = make_two_singlets()
        # Draws on and just below every first-step threshold, plus the ends
        # of [0, 1); later steps take random and edge draws.
        edges = slot_edges(initial, plan[0])
        first = [0.0, 1.0 - 2.0**-53] + [e for e in edges if e < 1.0]
        first += [math.nextafter(e, 0.0) for e in edges]
        rng = np.random.default_rng(5)
        rest = rng.random((len(first) * 8, len(plan) - 1))
        rest[::3] = 1.0 - 2.0**-53
        rest[1::5] = 0.0
        draws = np.column_stack([np.repeat(first, 8), rest])
        assert np.array_equal(
            sample_branches(initial, plan, draws), scalar_codes(initial, plan, draws)
        )

    def test_rounding_shortfall_takes_last_positive_outcome(self):
        initial = make_two_singlets()
        plan = [BsmStep(1, 2)]
        total = slot_edges(initial, plan[0])[-1]
        assert total < 1.0  # the four quarter weights sum to just below 1
        draws = np.array([[total], [1.0 - 2.0**-53]])
        codes = sample_branches(initial, plan, draws)
        assert np.array_equal(codes, scalar_codes(initial, plan, draws))
        assert _branch_outcomes(plan[0])[codes[0, 0]] is BellOutcome.PSI_MINUS

    def test_zero_weight_branch_raises_only_when_drawn(self):
        # |1>, normalized within tolerance only, measured at angle -pi: the
        # -1 eigenvector is exactly |0>, so draws above P(+1) < 1 pick a
        # branch of zero weight.
        state = StateVector(1, np.array([0.0, math.sqrt(1.0 - 1e-13)]))
        plan = [SpinMeasurement(0, -math.pi)]
        assert np.array_equal(sample_branches(state, plan, [[0.0], [0.5]]), [[0], [0]])
        with pytest.raises(RuntimeError):
            _collapse(state.amplitudes, plan[0], 1.0 - 2.0**-53)
        with pytest.raises(RuntimeError):
            sample_branches(state, plan, [[0.5], [1.0 - 2.0**-53]])

    def test_rejects_bad_draws(self):
        plan = [SpinMeasurement(0, 0.0)]
        with pytest.raises(ValueError):
            sample_branches(singlet(), plan, [[1.0]])
        with pytest.raises(ValueError):
            sample_branches(singlet(), plan, [[-0.1]])
        with pytest.raises(ValueError):
            sample_branches(singlet(), plan, [[0.1, 0.2]])
        with pytest.raises(ValueError):
            sample_branches(singlet(), [SpinMeasurement(2, 0.0)], [[0.1]])

    def test_empty_plan(self):
        # No step: each trial's outcome row is empty.
        for m in (0, 1, 5):
            codes = sample_branches(make_two_singlets(), [], np.zeros((m, 0)))
            assert codes.shape == (m, 0) and codes.dtype == np.int8

    def test_no_trials(self):
        codes = sample_branches(make_two_singlets(), [BsmStep(1, 2)], np.empty((0, 1)))
        assert codes.shape == (0, 1)


class TestSamplePlans:
    TEMPLATE = [SpinMeasurement(0, 0.0), BsmStep(1, 2, partial=True), SpinMeasurement(3, 0.0)]
    ANGLES = [[0.3, 2.0], [1.1, -0.4], [0.0, math.pi / 2.0], [-math.pi, 0.7]]

    @staticmethod
    def own_plan(template, angles):
        spins = iter(angles)
        return [SpinMeasurement(step.qubit, next(spins)) if isinstance(step, SpinMeasurement)
                else step for step in template]

    @staticmethod
    def edge_draws(state, step):
        edges = slot_edges(state, step)
        return [0.0, 1.0 - 2.0**-53] + [e for e in edges if e < 1.0] + [
            math.nextafter(e, 0.0) for e in edges
        ]

    def test_matches_each_plans_own_sampler_on_slot_edges(self):
        # The plans are stacked from one start state, as the engine's are.
        rng = np.random.default_rng(12)
        noise = rng.normal(size=16) + 1j * rng.normal(size=16)
        tables, angles = stacked_tables(self.TEMPLATE, 16, self.ANGLES)
        codes = _plan_codes(self.TEMPLATE)
        for state in (make_two_singlets(), StateVector(4, noise / np.linalg.norm(noise)),
                      basis_state(4, 5)):
            draws, plan_of_row = self.plan_edge_draws(state, rng)
            leaves = _sample_leaves(state.amplitudes, tables, angles, plan_of_row, draws)[0]
            assert np.array_equal(leaves // len(codes), plan_of_row)
            got = codes[leaves % len(codes)].astype(np.int8)
            assert got.shape == draws.shape
            for p, plan_angles in enumerate(self.ANGLES):
                mine = plan_of_row == p
                own = sample_branches(state, self.own_plan(self.TEMPLATE, plan_angles),
                                      draws[mine])
                assert got[mine].tobytes() == own.tobytes(), p

    def plan_edge_draws(self, state, rng):
        """Each plan's draws on and just below the edges of its first two
        steps (the second's at each first outcome's post-state), plus the
        ends of [0, 1), the last step's random; shuffled, with each row's
        plan."""
        rows, plan_of_row = [], []
        for p, angles in enumerate(self.ANGLES):
            plan = self.own_plan(self.TEMPLATE, angles)
            for u0 in self.edge_draws(state, plan[0]):
                _outcome, post = _collapse(state.amplitudes, plan[0], u0)
                for u1 in self.edge_draws(StateVector(4, post), plan[1]):
                    rows.append([u0, u1, rng.random()])
                    plan_of_row.append(p)
        order = rng.permutation(len(rows))
        return np.array(rows)[order], np.array(plan_of_row)[order]
