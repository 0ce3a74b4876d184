"""The array runners against the scalar reference loops in scalar_oracle.py.

Every comparison is exact: the array paths draw the same uniforms and
compare them against the same thresholds, so records must match one for
one, and teleport reports field for field.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from swapsim import analysis, engine, toys
from swapsim.engine import ExperimentConfig, run_trials

SEEDS = (0, 2**64 - 1)
ODD_ANGLES = {"angles_a": (0.3, 1.9), "angles_b": (2.2, -0.7)}


@pytest.mark.parametrize(
    "geometry,partial,c_enabled",
    list(itertools.product(engine.GEOMETRY_NAMES, (False, True), (True, False))),
)
def test_run_trials_matches_oracle(geometry, partial, c_enabled):
    for seed, herald, angles in itertools.product(
        SEEDS, sorted(engine.HERALD_PREDICATES), ({}, ODD_ANGLES)
    ):
        cfg = ExperimentConfig(
            geometry=geometry, n_trials=150, seed=seed, herald=herald,
            c_enabled=c_enabled, bsm_partial=partial, **angles,
        )
        assert run_trials(cfg) == scalar_oracle.run_trials(cfg), (seed, herald, angles)


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
        assert toys._run_toy(n, seed, rule, record_lambda) == (
            scalar_oracle._run_toy(n, seed, rule, record_lambda)
        ), (seed, rule.name, n)


def test_rps_matches_oracle():
    for seed, n in itertools.product(SEEDS + (13,), (1, 2000)):
        assert toys.run_rps(n, seed) == scalar_oracle.run_rps(n, seed), (seed, n)


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
    assert run_trials(cfg) == scalar_oracle.run_trials(cfg)


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
