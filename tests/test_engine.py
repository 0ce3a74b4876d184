"""Trial engine tests: determinism, post-selection, and exact joint tables."""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from swapsim import analysis, engine, io, qcore, toys
from swapsim.engine import (
    DEFAULT_ANGLES_A,
    DEFAULT_ANGLES_B,
    OUTCOMES,
    ExperimentConfig,
    Trials,
    _TrialStream,
    check_seed,
    config_meta,
    counter_uniforms,
    exact_experiment_distribution,
    herald_probability,
    measurement_order,
    post_select,
    run_trials,
    trial_rng,
)
from scalar_oracle import assert_same_table, conditional_given_c, marginal_over_c
from swapsim.geometry import EventLabel
from swapsim.qcore import BellOutcome

L = EventLabel
PSI_MINUS = OUTCOMES.index(BellOutcome.PSI_MINUS)


class TestRngContract:
    def test_stream_reset_equals_documented_construction(self):
        stream = _TrialStream()
        for seed, tid in ((0, 0), (7, 12), (2**40, 999_983), (123, 2**35)):
            fast = stream.reset(seed, tid).random(8)
            slow = trial_rng(seed, tid).random(8)
            assert np.array_equal(fast, slow)

    def test_distinct_trials_distinct_streams(self):
        a = trial_rng(1, 0).random(4)
        b = trial_rng(1, 1).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
    def test_counter_uniforms_equal_trial_streams(self, seed):
        ids = [0, 1, 9, 2**32 - 1, 2**32, 2**40 + 7, 2**63, 2**64 - 1]
        for k in range(1, 10):
            expected = np.array([trial_rng(seed, t).random(k) for t in ids])
            assert np.array_equal(counter_uniforms(seed, ids, k), expected), k

    def test_counter_uniforms_across_chunk_boundaries(self, monkeypatch):
        chunk = engine.PHILOX_CHUNK_TRIALS
        ids = np.arange(2 * chunk + 3)
        got = counter_uniforms(77, ids, 6)
        for t in (0, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 2):
            assert np.array_equal(got[t], trial_rng(77, t).random(6)), t
        # A small chunk size puts many boundaries in a short, unordered run.
        monkeypatch.setattr(engine, "PHILOX_CHUNK_TRIALS", 3)
        ids = [2**33 + 4, 5, 0, 2**64 - 2, 17, 17, 3, 2**32]
        expected = np.array([trial_rng(2**64 - 1, t).random(5) for t in ids])
        assert np.array_equal(counter_uniforms(2**64 - 1, ids, 5), expected)

    @pytest.mark.parametrize("seed, trial_id, draws", [
        (0, 0, ["0x1.7a5d3204726c0p-7", "0x1.eeb1585ce5460p-3", "0x1.c8667a55d9028p-4",
                "0x1.20faf40a5fab6p-1", "0x1.0137e64510730p-1"]),
        (7, 12345, ["0x1.aba9c215abd63p-1", "0x1.47aad4e874a5ap-2", "0x1.7559caf12f0bcp-2",
                    "0x1.6c26d41025633p-1", "0x1.d24257b412e90p-2"]),
        (2**64 - 1, 2**64 - 1, ["0x1.b51b3039c7c2ep-2", "0x1.249d42d27f351p-1",
                                "0x1.fb86be0331922p-1", "0x1.694623e2f54cap-1",
                                "0x1.9f84b07bfe378p-2"]),
    ])
    def test_counter_uniforms_known_answers(self, seed, trial_id, draws):
        # swapsim's own words, pinned apart from numpy's Philox, up to the top key.
        want = [float.fromhex(draw) for draw in draws]
        assert counter_uniforms(seed, [trial_id], 5)[0].tolist() == want
        assert trial_rng(seed, trial_id).random(5).tolist() == want

    def test_counter_uniforms_reject_seeds_outside_64_bits(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                counter_uniforms(seed, [0], 1)

    # Unchecked, each of these keys a wrong stream without an error: numpy
    # wraps -1 to 2**64 - 1 and reads 1.7 and True as trial 1.
    @pytest.mark.parametrize("ids", [
        np.array([-1]), [-1], [0, -5], [2**64], [5, 2**64 + 1], np.array([2**64], dtype=object),
        [1.7], np.array([1.0]), [True], [3, True], np.array([True]), [np.True_], [None], ["1"],
    ])
    def test_rejects_trial_ids_outside_64_bit_integers(self, ids):
        with pytest.raises(ValueError, match="trial ids? must be"):
            counter_uniforms(1, ids, 2)
        with pytest.raises(ValueError, match="trial ids? must be"):
            trial_rng(1, ids[-1])

    @pytest.mark.parametrize("k", [-1, 1.0, 2.5, True, None, "2"])
    def test_rejects_draw_counts_that_are_not_integers_from_0(self, k):
        with pytest.raises(ValueError, match="k must be"):
            counter_uniforms(1, [0], k)

    def test_empty_ids_and_zero_draws_are_valid(self):
        assert counter_uniforms(1, [], 2).shape == (0, 2)
        assert counter_uniforms(1, np.arange(3, dtype=np.uint8), 0).shape == (3, 0)
        assert np.array_equal(counter_uniforms(1, np.uint64(2**64 - 1), 3)[0],
                              trial_rng(1, 2**64 - 1).random(3))
        assert np.array_equal(counter_uniforms(1, [[2], [2**63]], 3),
                              counter_uniforms(1, np.array([2, 2**63], dtype=np.uint64), 3))

    def test_trial_rng_rejects_seeds_outside_64_bits(self):
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError, match="seed must be"):
                trial_rng(seed, 0)


class TestConfig:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ExperimentConfig(geometry="diagonal")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_trials=0)

    def test_rejects_bad_angle_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(angles_a=(0.0, 1.0, 2.0))

    def test_rejects_non_finite_angles(self):
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("angles_a", "angles_b"):
                with pytest.raises(ValueError, match="must be finite"):
                    ExperimentConfig(**{name: (0.0, bad)})

    @pytest.mark.parametrize("field,value", [
        # Each of these used to run, read as two numbers.
        ("angles_a", "01"),  # as (0.0, 1.0)
        ("angles_b", b"01"),  # as (48.0, 49.0)
        ("angles_a", bytearray(b"01")),
        ("angles_b", {0: 1, 1: 2}),  # as (1.0, 2.0)
        ("angles_a", (True, False)),  # as (1.0, 0.0)
        ("angles_b", (np.True_, 0.0)),
        ("angles_a", ("0.1", "0.2")),
        # Each of these raised TypeError.
        ("angles_b", (1 + 0j, 0.0)),
        ("angles_a", 0.3),
        ("herald", ["psi-minus"]),
    ])
    def test_rejects_misread_inputs_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_rejects_unknown_herald(self):
        with pytest.raises(ValueError):
            ExperimentConfig(herald="sometimes")

    def test_seed_range(self):
        # Seeds key 64 bits; 2**64 used to alias seed 0.
        for seed in (2**64, -1, 1.5):
            with pytest.raises(ValueError):
                ExperimentConfig(seed=seed)
        assert ExperimentConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_rejects_bool_seeds(self, seed):
        # seed=True used to run as seed 1.
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(seed)

    @pytest.mark.parametrize("name", ["c_enabled", "bsm_partial"])
    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None])
    def test_rejects_non_bool_flags(self, name, flag):
        # A string used to be taken as true, and echoed by config_meta.
        with pytest.raises(ValueError, match=f"{name} must be a bool"):
            ExperimentConfig(**{name: flag})

    def test_flags_are_stored_as_python_bools(self):
        cfg = ExperimentConfig(c_enabled=np.False_, bsm_partial=np.True_)
        assert cfg.c_enabled is False and cfg.bsm_partial is True
        meta = config_meta(cfg)
        assert meta["c_enabled"] is False and meta["bsm_partial"] is True

    @pytest.mark.parametrize("geometry", engine.GEOMETRY_NAMES)
    @pytest.mark.parametrize("partial", [False, True])
    def test_walk_values_belong_to_the_config_object(self, geometry, partial):
        # The two configs are equal, so a cache keyed by the config or its
        # angles would hand one the other's values, which differ in a sign bit.
        plus, minus = (ExperimentConfig(geometry, 500, seed=3, angles_a=(zero, math.pi / 2),
                                        bsm_partial=partial) for zero in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        assert plus._values.tobytes() != minus._values.tobytes()
        for cfg in (plus, minus):
            want = qcore._walk_values(cfg.angles_a + cfg.angles_b)
            assert cfg._values.tobytes() == want.tobytes() and cfg._values is cfg._values
            assert not cfg._values.flags.writeable
            assert "_values" not in {field.name for field in fields(cfg)}
            assert "_values" not in config_meta(cfg)
        assert config_meta(plus) == config_meta(minus)
        for got, want in zip(engine.exact_leaf_rows(plus), engine.exact_leaf_rows(minus)):
            assert np.array_equal(got, want)
        assert_same_table(run_trials(plus), run_trials(minus))
        assert analysis.exact_report(plus) == analysis.exact_report(minus)


class TestMeasurementOrder:
    def test_orders(self):
        assert measurement_order("early") == (L.C, L.A, L.B)
        assert measurement_order("delayed") == (L.A, L.B, L.C)
        assert measurement_order("spacelike") == (L.A, L.B, L.C)

    def test_configs_share_a_layout_exactly_when_their_executed_plans_match(self):
        # A layout's tables depend only on the plan it executes: its
        # measurement order with C dropped when off, and a partial BSM only
        # when C runs. So spacelike shares delayed's layout with C on, once
        # per BSM form, and all six C-off configs share one: 5 layouts.
        def executed(geometry, partial, c_enabled):
            order = tuple(label for label in measurement_order(geometry)
                          if c_enabled or label is not L.C)
            return order, partial and c_enabled

        keys = itertools.product(engine.GEOMETRY_NAMES, (False, True), (True, False))
        layouts = {key: engine._layout(*key) for key in keys}
        assert len(layouts) == 12 and len({id(layout) for layout in layouts.values()}) == 5
        for (key, layout), (other, other_layout) in itertools.product(layouts.items(), repeat=2):
            assert (layout is other_layout) == (executed(*key) == executed(*other)), (key, other)


class TestRunTrials:
    def test_determinism(self):
        cfg = ExperimentConfig(geometry="early", n_trials=500, seed=99)
        assert_same_table(run_trials(cfg), run_trials(cfg))

    def test_trial_ids_consecutive(self):
        ens = run_trials(ExperimentConfig(n_trials=50, seed=1))
        assert ens["trial_id"].tolist() == list(range(50))

    def test_heralded_flag_matches_outcome(self):
        ens = run_trials(ExperimentConfig(n_trials=400, seed=5))
        assert np.array_equal(ens["heralded"], ens["c_outcome"] == PSI_MINUS)

    def test_heralded_fraction(self):
        n = 20_000
        ens = run_trials(ExperimentConfig(geometry="early", n_trials=n, seed=7))
        frac = ens["heralded"].sum() / n
        assert abs(frac - 0.25) < 5 * math.sqrt(0.25 * 0.75 / n)

    def test_c_disabled(self):
        ens = run_trials(ExperimentConfig(n_trials=100, seed=3, c_enabled=False))
        assert np.all(ens["c_outcome"] == -1) and not ens["heralded"].any()

    def test_partial_bsm_outcomes(self):
        ens = run_trials(ExperimentConfig(n_trials=2_000, seed=11, bsm_partial=True))
        seen = {OUTCOMES[c] for c in ens["c_outcome"]}
        assert BellOutcome.NO_HERALD in seen
        assert BellOutcome.PHI_PLUS not in seen and BellOutcome.PHI_MINUS not in seen

    def test_settings_uniform(self):
        n = 20_000
        ens = run_trials(ExperimentConfig(n_trials=n, seed=17))
        tol = 5 * math.sqrt(0.25 / n)
        assert abs(ens["a"].sum() / n - 0.5) < tol
        assert abs(ens["b"].sum() / n - 0.5) < tol

    @pytest.mark.parametrize("c_enabled, steps", [(True, 3), (False, 2)])
    def test_setting_plans_sampled_in_one_walk(self, monkeypatch, c_enabled, steps):
        # One _products call, the projection kernel, per plan step for all
        # four setting plans together, whatever the layout or the trial count.
        calls = []
        products = qcore._products
        monkeypatch.setattr(qcore, "_products", lambda *args: calls.append(1) or products(*args))
        for geometry in engine.GEOMETRY_NAMES:
            for partial in (False, True):
                for n in (1, 3_000):
                    calls.clear()
                    run_trials(ExperimentConfig(geometry, n, seed=n, c_enabled=c_enabled,
                                                bsm_partial=partial))
                    assert len(calls) == steps, (geometry, partial, n)

    def test_records_independent_of_run_length(self):
        # Trial t depends only on (seed, t), so any prefix run reproduces it;
        # this is what makes parallel generation equivalent to sequential.
        full = run_trials(ExperimentConfig(n_trials=50, seed=19))
        prefix = run_trials(ExperimentConfig(n_trials=38, seed=19))
        assert_same_table(full.select(slice(38)), prefix)


class TestColumnSchema:
    def test_schema_covers_every_table(self):
        # Every token column a writer writes, and every column a runner
        # produces but trial_id, is a known column with declared values.
        known = engine._COLUMN_VALUES.keys()
        for header in (io.ENSEMBLE_HEADER, io.TOY_HEADER, io.RPS_HEADER):
            assert set(header[1:]) <= known, header
        for run in (run_trials(ExperimentConfig(n_trials=20)), toys.run_toy_collider(20, 0),
                    toys.run_toy_source_variant(20, 0), toys.run_rps(20, 0)):
            assert set(run.columns) - {"trial_id"} <= known, list(run.columns)
        for name, members in (("alice", toys.RPS_CHOICES), ("bob", toys.RPS_CHOICES),
                              ("verdict", toys.RPS_VERDICTS)):
            assert engine._COLUMN_VALUES[name] == tuple(range(len(members))), name
        cells = itertools.product(*(engine._COLUMN_VALUES[name] for name in ("a", "b", "A", "B")))
        assert engine.CELLS == tuple(cells)


class TestSelect:
    TABLE = Trials({"trial_id": np.arange(0, 50, 5), "a": np.arange(10, dtype=np.int8) % 2,
                    "B": np.linspace(-1, 1, 10), "heralded": np.arange(10) % 3 == 0})

    @pytest.mark.parametrize("rows", [
        np.arange(10) % 3 == 1, np.zeros(10, dtype=bool), np.ones(10, dtype=bool),
        np.array([1, 4, 9]), np.array([], dtype=np.intp), [0, 2, 3], [-1],
        slice(2, 7), slice(None, None, 3), slice(20),
    ])
    def test_selection_equals_every_column_indexed(self, rows):
        picked = self.TABLE.select(rows)
        for name, column in self.TABLE.columns.items():
            assert picked[name].dtype == column.dtype
            assert np.array_equal(picked[name], column[rows]), name

    @pytest.mark.parametrize("n", [0, 9, 11])
    def test_mask_of_another_length_raises(self, n):
        with pytest.raises(IndexError):
            self.TABLE.select(np.ones(n, dtype=bool))


class TestPostSelect:
    def test_empty_when_nothing_heralded(self):
        ens = run_trials(ExperimentConfig(n_trials=60, seed=2, c_enabled=False))
        assert len(post_select(ens)) == 0

    def test_accept_all_is_identity_on_measured_records(self):
        ens = run_trials(ExperimentConfig(n_trials=300, seed=2))
        kept = post_select(ens, "all")
        assert_same_table(kept, ens)

    def test_preserves_original_ids_and_order(self):
        ens = run_trials(ExperimentConfig(n_trials=400, seed=21))
        kept = post_select(ens)
        ids = kept["trial_id"].tolist()
        assert ids == sorted(ids)
        assert set(ids) <= set(range(400))
        assert np.all(kept["c_outcome"] == PSI_MINUS)

    def test_explicit_outcome_set(self):
        ens = run_trials(ExperimentConfig(n_trials=400, seed=21))
        kept = post_select(ens, {BellOutcome.PHI_PLUS})
        assert np.all(kept["c_outcome"] == OUTCOMES.index(BellOutcome.PHI_PLUS))

    def test_unknown_herald_name_rejected(self):
        ens = run_trials(ExperimentConfig(n_trials=10, seed=2))
        with pytest.raises(ValueError, match="unknown herald 'bogus'.*psi-minus"):
            post_select(ens, "bogus")

    @pytest.mark.parametrize("accept", [["psi-"], {"psi-minus"}, [BellOutcome.PSI_MINUS, 3],
                                        BellOutcome.PSI_MINUS, 3])
    def test_outcome_sets_must_hold_bell_outcomes(self, accept):
        ens = run_trials(ExperimentConfig(n_trials=10, seed=2))
        with pytest.raises(ValueError, match="BellOutcome members, got"):
            post_select(ens, accept)

    def test_herald_masks_match_predicates(self):
        codes = np.arange(-1, len(OUTCOMES))
        for name, outcomes in engine.HERALD_PREDICATES.items():
            mask = engine.HERALD_MASKS[name]
            assert not mask.flags.writeable
            want = [c >= 0 and OUTCOMES[c] in outcomes for c in codes.tolist()]
            assert mask[codes].tolist() == want, name

    def test_ensemble_rejects_disordered_ids(self):
        for ids in ([1, 0], [0, 0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trials({"trial_id": ids, "a": [0, 0]})
        with pytest.raises(ValueError, match="shape"):
            Trials({"trial_id": [0, 1], "a": [0]})
        for columns in ({}, {"a": [0, 1]}):  # used to raise a bare KeyError
            with pytest.raises(ValueError, match="lacks column trial_id"):
                Trials(columns)
        with pytest.raises(ValueError, match="read-only"):
            run_trials(ExperimentConfig(n_trials=3))["a"][0] = 1

    @pytest.mark.parametrize("ids", [[0.5, 1.5], [0.0, 1.5], [False, True]],
                             ids=["0.5-1.5", "0.0-1.5", "False-True"])
    def test_trial_id_must_hold_integers(self, ids):
        # Float and bool ids used to build a table; only the writers rejected them.
        with pytest.raises(ValueError, match="trial_id must hold integers, got dtype"):
            Trials({"trial_id": np.array(ids), "a": [0, 1]})


class TestExactDistribution:
    def test_sums_to_one(self):
        for geometry in ("early", "delayed", "spacelike"):
            table = exact_experiment_distribution(ExperimentConfig(geometry=geometry))
            assert abs(sum(table.values()) - 1.0) < 1e-12

    def test_geometry_invariance(self):
        tables = [
            exact_experiment_distribution(ExperimentConfig(geometry=g))
            for g in ("early", "delayed", "spacelike")
        ]
        assert set(tables[0]) == set(tables[1]) == set(tables[2])
        for key in tables[0]:
            assert abs(tables[0][key] - tables[1][key]) < 1e-12
            assert abs(tables[0][key] - tables[2][key]) < 1e-12

    def test_marginal_matches_c_disabled_table(self):
        cfg = ExperimentConfig()
        with_c = marginal_over_c(exact_experiment_distribution(cfg))
        without_c = marginal_over_c(
            exact_experiment_distribution(ExperimentConfig(c_enabled=False))
        )
        assert set(with_c) == set(without_c)
        for key in with_c:
            assert abs(with_c[key] - without_c[key]) < 1e-12

    def test_wing_marginal_is_half(self):
        table = exact_experiment_distribution(ExperimentConfig())
        for a in (0, 1):
            p_up = sum(p for (sa, _b, A, _B, _c), p in table.items() if sa == a and A == 1)
            p_a = sum(p for (sa, *_rest), p in table.items() if sa == a)
            assert abs(p_up / p_a - 0.5) < 1e-12

    def test_no_signaling_exact(self):
        table = exact_experiment_distribution(ExperimentConfig())
        for a in (0, 1):
            per_b = []
            for b in (0, 1):
                cell = sum(
                    p for (sa, sb, *_r), p in table.items() if sa == a and sb == b
                )
                up = sum(
                    p
                    for (sa, sb, A, _B, _c), p in table.items()
                    if sa == a and sb == b and A == 1
                )
                per_b.append(up / cell)
            assert abs(per_b[0] - per_b[1]) < 1e-12

    def test_herald_marginal_independent_of_settings(self):
        table = exact_experiment_distribution(ExperimentConfig())
        for outcome in (
            BellOutcome.PHI_PLUS,
            BellOutcome.PHI_MINUS,
            BellOutcome.PSI_PLUS,
            BellOutcome.PSI_MINUS,
        ):
            values = []
            for a in (0, 1):
                for b in (0, 1):
                    cell = sum(
                        p for (sa, sb, *_r), p in table.items() if sa == a and sb == b
                    )
                    hit = sum(
                        p
                        for (sa, sb, _A, _B, c), p in table.items()
                        if sa == a and sb == b and c is outcome
                    )
                    values.append(hit / cell)
            assert max(values) - min(values) < 1e-12
            assert abs(values[0] - 0.25) < 1e-12

    def test_post_selected_correlators_match_cosine_law(self):
        cfg = ExperimentConfig()
        cond = conditional_given_c(
            exact_experiment_distribution(cfg), frozenset({BellOutcome.PSI_MINUS})
        )
        for a in (0, 1):
            for b in (0, 1):
                mass = sum(p for (sa, sb, *_r), p in cond.items() if sa == a and sb == b)
                corr = sum(
                    A * B * p
                    for (sa, sb, A, B), p in cond.items()
                    if sa == a and sb == b
                )
                expected = -math.cos(DEFAULT_ANGLES_A[a] - DEFAULT_ANGLES_B[b])
                assert abs(corr / mass - expected) < 1e-12

    def test_partial_mode_conservation(self):
        table = exact_experiment_distribution(ExperimentConfig(bsm_partial=True))
        assert abs(sum(table.values()) - 1.0) < 1e-12
        outcomes = {key[4] for key in table}
        assert outcomes == {
            BellOutcome.PSI_PLUS,
            BellOutcome.PSI_MINUS,
            BellOutcome.NO_HERALD,
        }

    def test_herald_probability(self):
        assert herald_probability(ExperimentConfig()) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(c_enabled=False),
        ExperimentConfig(bsm_partial=True, herald="phi-plus"),
        ExperimentConfig(bsm_partial=True, herald="phi-minus"),
    ])
    def test_herald_probability_is_a_float_when_nothing_heralds(self, cfg):
        # It used to be the int 0.
        p = herald_probability(cfg)
        assert type(p) is float and p == 0.0 and math.copysign(1.0, p) == 1.0

    def test_monte_carlo_no_signaling(self):
        # P(A=+1 | a, b) independent of b within 5 sigma on sampled data.
        ens = run_trials(ExperimentConfig(n_trials=20_000, seed=23))
        for a in (0, 1):
            rates = []
            ns = []
            for b in (0, 1):
                cell = ens["A"][(ens["a"] == a) & (ens["b"] == b)]
                rates.append(np.mean(cell == 1))
                ns.append(len(cell))
            se = math.sqrt(0.25 / ns[0] + 0.25 / ns[1])
            assert abs(rates[0] - rates[1]) < 5 * se
