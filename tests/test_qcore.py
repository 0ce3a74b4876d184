"""Statevector core tests.

Bell-measurement expectations are checked against an independent oracle
that builds full projector matrices with np.kron from explicitly written
Bell vectors, bypassing the library's sliced-tensor implementation.
"""

import itertools
import math

import numpy as np
import pytest

from swapsim.qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    StateVector,
    basis_state,
    bell_outcome_probabilities,
    bell_state,
    bell_state_measurement,
    exact_branch_enumeration,
    fidelity,
    make_two_singlets,
    measure_spin,
    prob_spin_up,
    product_of_pair_states,
    sample_branches,
    singlet,
)
from swapsim.qcore import (
    _branch_outcomes,
    _branch_tables,
    _collapse,
    _enumerate_plans,
    _fold,
    _one_state_weights,
    _plan_codes,
    _plan_walk,
    _sample_leaves,
    _walk_tables,
)
from scalar_oracle import walk_branches

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
        # 1.5 failed only later, in prob_spin_up, with a TypeError.
        with pytest.raises(ValueError, match="qubit must be an int"):
            SpinMeasurement(qubit, 0.0)

    def test_numpy_fields_read_as_python_values(self):
        step = SpinMeasurement(np.int64(2), np.float64(0.25))
        assert type(step.qubit) is int and type(step.angle) is float
        assert step == SpinMeasurement(2, 0.25)


class TestBsmStepFields:
    @pytest.mark.parametrize("field,value", [
        ("q_left", 1.0), ("q_left", True), ("q_right", "2"), ("q_right", None),
        ("partial", "no"), ("partial", 1), ("resolve_psi_plus", 0), ("resolve_psi_plus", None),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an? "):
            BsmStep(**{"q_left": 1, "q_right": 2, field: value})

    def test_string_partial_is_not_an_analyzer(self):
        # partial="no" ran a partial analyzer.
        with pytest.raises(ValueError, match="partial must be a bool"):
            bell_outcome_probabilities(make_two_singlets(), 1, 2, partial="no")

    def test_numpy_fields_read_as_python_values(self):
        step = BsmStep(np.int64(2), np.int32(1), np.True_, np.False_)
        assert step == BsmStep(2, 1, True, False)
        assert [type(v) for v in vars(step).values()] == [int, int, bool, bool]


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

# Each public entry with a plan entry that is no step (or, for the two
# entries that build their BSM step, a qubit that is no integer), and each
# draw-taking entry with each draw; field is what the message must name.
_BAD_ENTRY_CALLS = [
    pytest.param(lambda s: prob_spin_up(s, "x"), "plan step", id="prob_spin_up-step"),
    pytest.param(lambda s: measure_spin(s, "x", 0.5), "plan step", id="measure_spin-step"),
    pytest.param(lambda s: bell_outcome_probabilities(s, None, 2), "q_left",
                 id="bell_outcome_probabilities-qubit"),
    pytest.param(lambda s: bell_state_measurement(s, None, 2, 0.5), "q_left",
                 id="bell_state_measurement-qubit"),
    pytest.param(lambda s: sample_branches(s, [None], [[0.5]]), "plan step",
                 id="sample_branches-step"),
    pytest.param(lambda s: exact_branch_enumeration(s, ["x"]), "plan step",
                 id="exact_branch_enumeration-step"),
]
for _draw in ("0.5", False, math.nan, 1.0):
    _BAD_ENTRY_CALLS += [
        pytest.param(lambda s, d=_draw: measure_spin(s, _SPIN, d), "draw",
                     id=f"measure_spin-draw-{_draw!r}"),
        pytest.param(lambda s, d=_draw: bell_state_measurement(s, 1, 2, d), "draw",
                     id=f"bell_state_measurement-draw-{_draw!r}"),
        pytest.param(lambda s, d=_draw: sample_branches(s, [_SPIN, BsmStep(1, 2)], [[0.5, d]]),
                     "draw", id=f"sample_branches-draw-{_draw!r}"),
    ]


class TestPublicEntryChecks:
    @pytest.mark.parametrize("call,field", _BAD_ENTRY_CALLS)
    def test_bad_input_raises_value_error_naming_the_field(self, call, field):
        # A non-step entry raised AttributeError, a None qubit or a str draw
        # TypeError; draws False and (in sample_branches) "0.5" ran as 0.0
        # and 0.5.
        with pytest.raises(ValueError, match=field):
            call(make_two_singlets())


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


class TestProbSpinUp:
    def test_singlet_marginal(self):
        assert abs(prob_spin_up(singlet(), SpinMeasurement(0, 0.0)) - 0.5) < 1e-12

    def test_eigenstate(self):
        assert abs(prob_spin_up(basis_state(1, 0), SpinMeasurement(0, 0.0)) - 1.0) < 1e-12

    def test_x_basis_on_z_eigenstate(self):
        p = prob_spin_up(basis_state(1, 0), SpinMeasurement(0, math.pi / 2))
        assert abs(p - 0.5) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            prob_spin_up(singlet(), SpinMeasurement(2, 0.0))


class TestMeasureSpin:
    def test_eigenstate_any_draw(self):
        for draw in (0.0, 0.3, 0.999):
            out, post = measure_spin(basis_state(1, 0), SpinMeasurement(0, 0.0), draw)
            assert out == 1
            assert abs(post.amplitude(0) - 1.0) < 1e-12

    def test_threshold_convention(self):
        # P(+1) = 0.5 on a singlet wing; draw below the threshold selects +1.
        out, _ = measure_spin(singlet(), SpinMeasurement(0, 0.0), 0.3)
        assert out == 1
        out, _ = measure_spin(singlet(), SpinMeasurement(0, 0.0), 0.5)
        assert out == -1

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.1, 5.9])
    def test_singlet_anticorrelation_at_equal_angles(self, theta):
        rng = np.random.default_rng(42)
        for _ in range(20):
            out1, mid = measure_spin(singlet(), SpinMeasurement(0, theta), rng.random())
            out2, _ = measure_spin(mid, SpinMeasurement(1, theta), rng.random())
            assert out2 == -out1

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(7)
        m = SpinMeasurement(0, 1.234)
        out1, post = measure_spin(singlet(), m, rng.random())
        for _ in range(5):
            out2, post = measure_spin(post, m, rng.random())
            assert out2 == out1

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        state = make_two_singlets()
        for q, angle in ((0, 0.3), (3, 2.0), (1, 4.4)):
            _, state = measure_spin(state, SpinMeasurement(q, angle), rng.random())
            nrm = np.vdot(state.amplitudes, state.amplitudes).real
            assert abs(nrm - 1.0) < 1e-12

    def test_bad_draw(self):
        with pytest.raises(ValueError):
            measure_spin(singlet(), SpinMeasurement(0, 0.0), 1.0)

    def test_born_consistency_frequencies(self):
        # Empirical +1 frequency matches prob_spin_up within 5 standard errors.
        rng = np.random.default_rng(2026)
        n = 100_000
        for state, m in (
            (singlet(), SpinMeasurement(0, 0.9)),
            (basis_state(1, 0), SpinMeasurement(0, 1.1)),
        ):
            p = prob_spin_up(state, m)
            draws = rng.random(n)
            hits = sum(measure_spin(state, m, d)[0] == 1 for d in draws)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(hits / n - p) < 5.0 * se


class TestBellStateMeasurement:
    def test_two_singlet_probabilities_quarter_each(self):
        # Oracle: p = psi^dag P psi with kron-built projectors.
        psi = oracle_two_singlets()
        for outcome in ORACLE_BELL:
            p_oracle = float(np.vdot(psi, oracle_projector_12(outcome) @ psi).real)
            assert abs(p_oracle - 0.25) < 1e-12
        probs = bell_outcome_probabilities(make_two_singlets(), 1, 2)
        for outcome in ORACLE_BELL:
            assert abs(probs[outcome] - 0.25) < 1e-12

    def test_swap_leaves_outer_pair_in_psi_minus(self):
        psi = oracle_two_singlets()
        proj = oracle_projector_12(BellOutcome.PSI_MINUS)
        collapsed = proj @ psi
        collapsed /= np.linalg.norm(collapsed)
        expected = oracle_swapped_state()
        assert abs(abs(np.vdot(expected, collapsed)) ** 2 - 1.0) < 1e-12

        # Library path: psi- is last in cumulative order, so a high draw hits it.
        outcome, post = bell_state_measurement(make_two_singlets(), 1, 2, 0.99)
        assert outcome is BellOutcome.PSI_MINUS
        lib_expected = product_of_pair_states(4, {(0, 3): singlet(), (1, 2): singlet()})
        assert abs(fidelity(post, lib_expected) - 1.0) < 1e-12
        assert np.allclose(lib_expected.amplitudes, expected, atol=1e-12)

    def test_collapse_matches_oracle_for_every_outcome(self):
        draws = {  # cumulative order phi+, phi-, psi+, psi- at 1/4 each
            BellOutcome.PHI_PLUS: 0.1,
            BellOutcome.PHI_MINUS: 0.3,
            BellOutcome.PSI_PLUS: 0.6,
            BellOutcome.PSI_MINUS: 0.9,
        }
        psi = oracle_two_singlets()
        for outcome, draw in draws.items():
            got, post = bell_state_measurement(make_two_singlets(), 1, 2, draw)
            assert got is outcome
            expected = oracle_projector_12(outcome) @ psi
            expected /= np.linalg.norm(expected)
            overlap = abs(np.vdot(expected, post.amplitudes)) ** 2
            assert abs(overlap - 1.0) < 1e-12

    def test_eigenstate_returns_certainty(self):
        state = product_of_pair_states(
            4, {(0, 1): bell_state(BellOutcome.PHI_PLUS), (2, 3): singlet()}
        )
        probs = bell_outcome_probabilities(state, 0, 1)
        assert abs(probs[BellOutcome.PHI_PLUS] - 1.0) < 1e-12
        outcome, _ = bell_state_measurement(state, 0, 1, 0.5)
        assert outcome is BellOutcome.PHI_PLUS

    def test_index_collision(self):
        with pytest.raises(ValueError):
            bell_state_measurement(make_two_singlets(), 2, 2, 0.5)

    def test_index_range(self):
        with pytest.raises(ValueError):
            bell_state_measurement(make_two_singlets(), 1, 4, 0.5)

    def test_partial_mode_conservation(self):
        for resolve in (True, False):
            probs = bell_outcome_probabilities(
                make_two_singlets(), 1, 2, partial=True, resolve_psi_plus=resolve
            )
            assert abs(sum(probs.values()) - 1.0) < 1e-12
            assert BellOutcome.NO_HERALD in probs
            assert BellOutcome.PHI_PLUS not in probs
            assert (BellOutcome.PSI_PLUS in probs) == resolve

    def test_partial_no_herald_projects_onto_folded_subspace(self):
        outcome, post = bell_state_measurement(
            make_two_singlets(), 1, 2, 0.95, partial=True, resolve_psi_plus=True
        )
        assert outcome is BellOutcome.NO_HERALD
        # Post state lives in the phi+ / phi- subspace of the pair.
        folded = bell_outcome_probabilities(post, 1, 2)
        assert abs(folded[BellOutcome.PSI_MINUS]) < 1e-12
        assert abs(folded[BellOutcome.PSI_PLUS]) < 1e-12
        assert abs(folded[BellOutcome.PHI_PLUS] + folded[BellOutcome.PHI_MINUS] - 1.0) < 1e-12

    def test_partial_sampling_matches_probabilities(self):
        rng = np.random.default_rng(5)
        n = 20_000
        counts = {o: 0 for o in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS, BellOutcome.NO_HERALD)}
        for _ in range(n):
            o, _ = bell_state_measurement(make_two_singlets(), 1, 2, rng.random(), partial=True)
            counts[o] += 1
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
        counts: dict = {}
        for _ in range(n):
            out_a, state = measure_spin(make_two_singlets(), SpinMeasurement(0, 0.6), rng.random())
            out_c, _ = bell_state_measurement(state, 1, 2, rng.random())
            counts[(out_a, out_c)] = counts.get((out_a, out_c), 0) + 1
        for key, p in table.items():
            freq = counts.get(key, 0) / n
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) < 5 * se + 1e-9

    def test_empty_plan_is_one_leaf(self):
        # No step: one leaf, the empty outcome sequence, of the state's squared norm.
        for state in (make_two_singlets(), singlet(), basis_state(1, 1)):
            norm = np.vdot(state.amplitudes, state.amplitudes).real
            assert exact_branch_enumeration(state, []) == {(): float(norm)}

    def test_plan_budget_enforced(self):
        with pytest.raises(ValueError):
            exact_branch_enumeration(make_two_singlets(), [SpinMeasurement(4, 0.0)])
        with pytest.raises(ValueError):
            exact_branch_enumeration(make_two_singlets(), [BsmStep(1, 1)])


_RNG = np.random.default_rng(23)
STACK = _RNG.normal(size=(6, 16)) + 1j * _RNG.normal(size=(6, 16))
# One step per row of STACK; spin angles differ by row.
STEP_ROWS = {
    **{f"spin-q{q}": [SpinMeasurement(q, angle) for angle in _RNG.uniform(-7.0, 7.0, size=6)]
       for q in range(4)},
    "bsm-full": [BsmStep(1, 2)] * 6,
    "bsm-partial": [BsmStep(1, 2, partial=True)] * 6,
    "bsm-partial-psi-plus-folded": [BsmStep(1, 2, partial=True, resolve_psi_plus=False)] * 6,
    "bsm-left-above-right": [BsmStep(2, 1)] * 6,
    "bsm-partial-left-above-right": [BsmStep(3, 0, partial=True)] * 6,
}
LAYOUTS = {
    "contiguous": lambda stack: stack,
    "broadcast": lambda stack: np.broadcast_to(stack[1], stack.shape),
    "fortran": np.asfortranarray,
}


class TestStackedBranches:
    """One depth of the walk's tables on a stack of start states, a spin at
    one angle per block of rows, gives each row what a one-row walk gives,
    bit for bit, whatever the stack's layout and block size: its
    unnormalized leaves, its coefficients and the weights read from them."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name", sorted(STEP_ROWS))
    def test_rows_match_one_row_calls(self, name, layout):
        stack = LAYOUTS[layout](STACK)
        for block in (1, 2, 3, 6):
            steps = STEP_ROWS[name][::block]
            posts, coeffs, weights = walk_branches(stack, steps)
            k = len(_branch_outcomes(steps[0]))
            assert posts.shape == (6, k, 16) and weights.shape == (6, k)
            for i in range(len(stack)):
                step = steps[i // block]
                row_posts, row_coeffs, row_weights = walk_branches(stack[i].copy()[None], [step])
                assert posts[i].tobytes() == row_posts[0].tobytes()
                assert coeffs[i].tobytes() == row_coeffs[0].tobytes()
                assert weights[i].tobytes() == row_weights[0].tobytes()


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
        for partial, resolve in ((False, True), (True, True), (True, False)):
            walk_branches(STACK, [BsmStep(2, 1, partial, resolve)])
        assert _walk_tables.cache_info().misses == 3
        info = _branch_tables.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("resolve_psi_plus", [True, False])
    @pytest.mark.parametrize("pair", [(1, 2), (2, 1), (0, 3), (3, 0)])
    def test_partial_is_fold_of_full(self, pair, resolve_psi_plus):
        rng = np.random.default_rng(sum(pair) * 2 + resolve_psi_plus)
        stack = _signed_stack(rng, 40, 4)
        full, partial = BsmStep(*pair), BsmStep(*pair, True, resolve_psi_plus)
        full_posts, full_coeffs, full_weights = walk_branches(stack, [full])
        posts, coeffs, weights = walk_branches(stack, [partial])
        assert posts.tobytes() == _fold(partial, full_posts).tobytes()
        assert coeffs.tobytes() == full_coeffs.tobytes()
        assert weights.tobytes() == _fold(partial, full_weights).tobytes()


class TestEnumeratePlansChecks:
    """The plans of one ``_enumerate_plans`` call are one template plan with
    per-plan spin angles, so each plan needs one angle per spin step."""

    def test_angles_may_differ(self):
        probs = _enumerate_plans(
            basis_state(4, 1).amplitudes, [SpinMeasurement(3, 0.0)], [[0.0], [math.pi]]
        )
        assert probs[0].tolist() == [0.0, 1.0]
        np.testing.assert_allclose(probs[1], [1.0, 0.0], atol=1e-15)

    def test_template_angles_are_not_read(self):
        plan = [BsmStep(1, 2), SpinMeasurement(3, 0.7)]
        probs = _enumerate_plans(basis_state(4, 1).amplitudes, plan, [[0.0]])
        assert probs.tobytes() == _enumerate_plans(
            basis_state(4, 1).amplitudes, [BsmStep(1, 2), SpinMeasurement(3, 0.0)], [[0.0]]
        ).tobytes()

    @pytest.mark.parametrize("plan,angles", [
        # A plan with more spin steps than the template, or fewer.
        pytest.param([SpinMeasurement(0, 0.0)], [[0.0], [0.0, 0.0]], id="plans1"),
        pytest.param([SpinMeasurement(0, 0.0), SpinMeasurement(1, 0.0)], [[0.0, 0.0], [0.0]],
                     id="plans2"),
        pytest.param([], [], id="plans9"),
    ])
    def test_mismatched_plans_rejected(self, plan, angles):
        with pytest.raises(ValueError, match="plans"):
            _enumerate_plans(basis_state(4, 1).amplitudes, plan, angles)

    @pytest.mark.parametrize("states,plans", [(3, 2), (1, 2), (2, 1)])
    def test_start_state_rows_must_match_plans(self, states, plans):
        # An extra row was ignored, and one row for two plans raised IndexError.
        initials = np.kron(np.eye(2)[[0, 1, 0][:states]], singlet().amplitudes)
        plan = (BsmStep(0, 1), SpinMeasurement(2, 0.0))
        with pytest.raises(ValueError, match=f"{states} start states for {plans} plans"):
            _enumerate_plans(initials, plan, [[0.0]] * plans)


def scalar_codes(initial: StateVector, plan, draws) -> np.ndarray:
    """Outcome codes from collapsing step by step with each row's draws."""
    out = np.empty(np.shape(draws), dtype=np.int8)
    for i, row in enumerate(draws):
        state = initial
        for d, (step, draw) in enumerate(zip(plan, row)):
            if isinstance(step, SpinMeasurement):
                outcome, state = measure_spin(state, step, draw)
            else:
                outcome, state = bell_state_measurement(
                    state, step.q_left, step.q_right, draw, step.partial, step.resolve_psi_plus
                )
            out[i, d] = _branch_outcomes(step).index(outcome)
    return out


def slot_edges(state, step):
    """A step's draw-slot edges: the cumulative weights in outcome order,
    only the first for a spin."""
    edges = list(itertools.accumulate(_one_state_weights(state.amplitudes, step)))
    return edges[:1] if isinstance(step, SpinMeasurement) else edges


class TestSampleBranches:
    PLANS = {
        "bsm-first": [BsmStep(1, 2), SpinMeasurement(0, 0.3), SpinMeasurement(3, 2.0)],
        "bsm-last-partial": [
            SpinMeasurement(0, 1.1), SpinMeasurement(3, -0.4), BsmStep(1, 2, partial=True)
        ],
        "partial-psi-plus-folded": [
            BsmStep(2, 1, partial=True, resolve_psi_plus=False), SpinMeasurement(0, 0.7)
        ],
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
            measure_spin(state, plan[0], 1.0 - 2.0**-53)
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
        rng = np.random.default_rng(12)
        noise = rng.normal(size=16) + 1j * rng.normal(size=16)
        states = [make_two_singlets(), StateVector(4, noise / np.linalg.norm(noise)),
                  make_two_singlets(), basis_state(4, 5)]
        rows, plan_of_row = [], []
        for p, (state, angles) in enumerate(zip(states, self.ANGLES)):
            plan = self.own_plan(self.TEMPLATE, angles)
            # Draws on and just below the edges of the first two steps (the
            # second's at each first outcome's post-state), plus the ends
            # of [0, 1); the last step's draws are random.
            for u0 in self.edge_draws(state, plan[0]):
                _outcome, post = _collapse(state.amplitudes, plan[0], u0)
                for u1 in self.edge_draws(StateVector(4, post), plan[1]):
                    rows.append([u0, u1, rng.random()])
                    plan_of_row.append(p)
        order = rng.permutation(len(rows))
        draws, plan_of_row = np.array(rows)[order], np.array(plan_of_row)[order]
        initials = np.stack([state.amplitudes for state in states])
        tables, angles = _plan_walk(initials, self.TEMPLATE, self.ANGLES)
        leaves = _sample_leaves(initials, tables, angles, plan_of_row, draws)[0]
        codes = _plan_codes(self.TEMPLATE)
        assert np.array_equal(leaves // len(codes), plan_of_row)
        codes = codes[leaves % len(codes)].astype(np.int8)
        assert codes.dtype == np.int8 and codes.shape == draws.shape
        for p, (state, angles) in enumerate(zip(states, self.ANGLES)):
            mine = plan_of_row == p
            own = sample_branches(state, self.own_plan(self.TEMPLATE, angles), draws[mine])
            assert codes[mine].tobytes() == own.tobytes(), p

    def test_rejects_angle_rows_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="2 spin angles each"):
            _plan_walk(make_two_singlets().amplitudes[None], self.TEMPLATE, [[0.1]])
