"""Spacetime bookkeeping tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swapsim.geometry import (
    LIGHTLIKE_TOL,
    CausalRelation,
    EventLabel,
    GeometryClass,
    GeometryPreset,
    SpacetimeEvent,
    boosted_time,
    boosted_time_order,
    classify,
    classify_geometry,
    custom_preset,
    preset_by_name,
    validate_preset,
)

L = EventLabel


def ev(t, x, label=L.A):
    return SpacetimeEvent(label, t, x)


class TestClassify:
    def test_timelike_future(self):
        assert classify(ev(0, 0), ev(1, 0)) is CausalRelation.TIMELIKE_FUTURE

    def test_spacelike(self):
        assert classify(ev(0, 0), ev(0, 5)) is CausalRelation.SPACELIKE

    def test_lightlike(self):
        assert classify(ev(0, 0), ev(1, 1)) is CausalRelation.LIGHTLIKE

    def test_antisymmetry_and_symmetry(self):
        rng = np.random.default_rng(0)
        pts = [ev(float(t), float(x)) for t, x in rng.uniform(-3, 3, size=(40, 2))]
        for e1 in pts[:10]:
            for e2 in pts[10:20]:
                r12 = classify(e1, e2)
                r21 = classify(e2, e1)
                if r12 is CausalRelation.TIMELIKE_FUTURE:
                    assert r21 is CausalRelation.TIMELIKE_PAST
                elif r12 is CausalRelation.TIMELIKE_PAST:
                    assert r21 is CausalRelation.TIMELIKE_FUTURE
                else:
                    assert r21 is r12

    def test_overflowing_separations(self):
        # dt*dt - dx*dx is inf - inf (nan) here, or inf.
        assert classify(ev(0, 0), ev(2e200, 1e200)) is CausalRelation.TIMELIKE_FUTURE
        assert classify(ev(0, 0), ev(-2e200, 1e200)) is CausalRelation.TIMELIKE_PAST
        assert classify(ev(0, 0), ev(1e200, -2e200)) is CausalRelation.SPACELIKE
        assert classify(ev(0, 0), ev(1e200, 1e200)) is CausalRelation.LIGHTLIKE
        assert classify(ev(0, 0), ev(1e300, 1.0)) is CausalRelation.TIMELIKE_FUTURE
        assert classify(ev(-1e308, 0), ev(1e308, 0)) is CausalRelation.TIMELIKE_FUTURE
        # dt and dx both overflow to inf.
        assert classify(ev(-1e308, -1e308), ev(1.5e308, 1e308)) is CausalRelation.TIMELIKE_FUTURE
        assert classify(ev(-1e308, -1e308), ev(1e308, 1e308)) is CausalRelation.LIGHTLIKE

    def test_coincident_events_are_lightlike(self):
        assert classify(ev(1, 2), ev(1, 2)) is CausalRelation.LIGHTLIKE

    def test_non_finite_rejected(self):
        for t, x in ((math.inf, 0), (0, -math.inf), (math.nan, 0)):
            with pytest.raises(ValueError, match="must be finite"):
                ev(t, x)

    @pytest.mark.parametrize("t, x", [(True, 0.0), (0.0, False), ("1", 0.0), (0.0, None),
                                      (1j, 0.0)])
    def test_non_real_coordinate_rejected(self, t, x):
        # A bool was kept as it was, and a str raised TypeError.
        with pytest.raises(ValueError, match="must be a real number"):
            ev(t, x)

    def test_coordinates_stored_as_float(self):
        event = ev(np.int64(2), 1)
        assert (event.t, event.x) == (2.0, 1.0)
        assert type(event.t) is float and type(event.x) is float


class TestPresets:
    def test_builtin_classifications(self):
        assert classify_geometry(preset_by_name("early")) is GeometryClass.ED
        assert classify_geometry(preset_by_name("delayed")) is GeometryClass.DD
        assert classify_geometry(preset_by_name("spacelike")) is GeometryClass.SPACELIKE

    def test_sources_feed_wings(self):
        assert validate_preset(preset_by_name("early")) is GeometryClass.ED
        assert validate_preset(preset_by_name("delayed")) is GeometryClass.DD
        assert validate_preset(preset_by_name("spacelike")) is GeometryClass.SPACELIKE

    def test_mixed_custom(self):
        # C in the future of A but spacelike to B.
        preset = custom_preset(
            {
                L.SOURCE_LEFT: (-1.0, -1.0),
                L.SOURCE_RIGHT: (0.0, 5.0),
                L.A: (0.0, -1.0),
                L.B: (1.0, 5.0),
                L.C: (2.0, -1.0),
            }
        )
        assert classify(preset.event(L.A), preset.event(L.C)) is CausalRelation.TIMELIKE_FUTURE
        assert classify(preset.event(L.B), preset.event(L.C)) is CausalRelation.SPACELIKE
        assert classify_geometry(preset) is GeometryClass.MIXED

    def test_preset_by_name(self):
        names = [preset_by_name(name).name for name in ("early", "delayed", "spacelike")]
        assert names == ["EarlyDelft", "DelayedDelft", "SpacelikeDelft"]
        with pytest.raises(ValueError):
            preset_by_name("sideways")

    @pytest.mark.parametrize("name", [["early"], {"early"}])
    def test_unhashable_preset_name_raises_value_error(self, name):
        # The table lookup used to raise TypeError: unhashable type.
        with pytest.raises(ValueError, match="unknown geometry"):
            preset_by_name(name)

    def test_missing_event_rejected(self):
        with pytest.raises(ValueError):
            custom_preset({L.A: (0.0, 0.0)})

    def test_event_under_another_label_rejected(self):
        # event(A) returned B's event.
        events = {**preset_by_name("early").events, L.A: preset_by_name("early").event(L.B)}
        message = r"key <EventLabel.A: 'A'> is not the label of SpacetimeEvent\(label=<EventLabel.B"
        with pytest.raises(ValueError, match=message):
            GeometryPreset("Swapped", events)

    def test_key_not_a_label_rejected(self):
        # Raised KeyError only later, in boosted_time_order.
        events = {**preset_by_name("early").events, "junk": ev(0.0, 0.0)}
        with pytest.raises(ValueError, match="key 'junk' is not the label of"):
            GeometryPreset("Junk", events)

    def test_tuple_event_rejected(self):
        # Raised AttributeError only later, in classify.
        events = {**preset_by_name("early").events, L.C: (0.0, 0.0)}
        with pytest.raises(ValueError, match=r"'C'> is not the label of \(0.0, 0.0\)"):
            GeometryPreset("Tuple", events)


class TestBoostedOrder:
    def test_v0_orders_by_raw_t(self):
        for preset in map(preset_by_name, ("early", "delayed", "spacelike")):
            order = boosted_time_order(preset, 0.0)
            times = [preset.event(lab).t for lab in order]
            assert times == sorted(times)

    def test_simultaneous_custom_example(self):
        # A=(1,-1), B=(1,1), C=(1,0): at v=0 a three-way tie resolves in
        # label order; at v=0.5 hand Lorentz gives t' proportional to
        # 1.5, 0.5, 1.0 for A, B, C, so the order is B, C, A.
        preset = custom_preset(
            {
                L.SOURCE_LEFT: (0.0, -1.0),
                L.SOURCE_RIGHT: (0.0, 1.0),
                L.A: (1.0, -1.0),
                L.B: (1.0, 1.0),
                L.C: (1.0, 0.0),
            }
        )
        at_rest = boosted_time_order(preset, 0.0)
        assert [lab for lab in at_rest if lab in (L.A, L.B, L.C)] == [L.A, L.B, L.C]

        gamma = 1.0 / math.sqrt(1.0 - 0.25)
        assert boosted_time(preset.event(L.A), 0.5) == pytest.approx(1.5 * gamma)
        assert boosted_time(preset.event(L.B), 0.5) == pytest.approx(0.5 * gamma)
        assert boosted_time(preset.event(L.C), 0.5) == pytest.approx(1.0 * gamma)
        boosted = boosted_time_order(preset, 0.5)
        assert [lab for lab in boosted if lab in (L.A, L.B, L.C)] == [L.B, L.C, L.A]

    def test_timelike_order_is_frame_invariant(self):
        preset = preset_by_name("delayed")
        for v in np.linspace(-0.9, 0.9, 19):
            order = boosted_time_order(preset, float(v))
            assert order.index(L.C) > order.index(L.A)
            assert order.index(L.C) > order.index(L.B)

    def test_timelike_sign_invariance_pairwise(self):
        # For every timelike pair, the sign of dt' never changes with v.
        for preset in map(preset_by_name, ("early", "delayed", "spacelike")):
            labels = list(EventLabel)
            for i, l1 in enumerate(labels):
                for l2 in labels[i + 1 :]:
                    e1, e2 = preset.event(l1), preset.event(l2)
                    if abs(e2.t - e1.t) <= abs(e2.x - e1.x):
                        continue
                    signs = {
                        math.copysign(1.0, boosted_time(e2, float(v)) - boosted_time(e1, float(v)))
                        for v in np.linspace(-0.9, 0.9, 19)
                    }
                    assert len(signs) == 1

    def test_spacelike_order_is_frame_dependent(self):
        # C's position relative to each wing flips across sampled frames.
        preset = preset_by_name("spacelike")
        sweep = [float(v) for v in np.linspace(-0.9, 0.9, 19)]
        for wing in (L.A, L.B):
            before = any(
                boosted_time_order(preset, v).index(L.C)
                < boosted_time_order(preset, v).index(wing)
                for v in sweep
            )
            after = any(
                boosted_time_order(preset, v).index(L.C)
                > boosted_time_order(preset, v).index(wing)
                for v in sweep
            )
            assert before and after

    def test_overflowing_coordinates_keep_their_order(self):
        # gamma * (t - v*x) overflows to inf for A and C (and -inf for
        # SourceRight), which tied them and fell back to label order: B, A, C.
        preset = custom_preset({
            L.A: (1.5e308, -1e308),
            L.B: (1.6e308, 1e308),
            L.C: (1.7e308, 0.0),
            L.SOURCE_LEFT: (-1e308, -1e308),
            L.SOURCE_RIGHT: (-1e308, 1e308),
        })
        assert math.isinf(boosted_time(preset.event(L.A), 0.9))
        assert boosted_time_order(preset, 0.9) == [L.SOURCE_RIGHT, L.SOURCE_LEFT, L.B, L.C, L.A]

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            boosted_time_order(preset_by_name("spacelike"), 1.0)
        with pytest.raises(ValueError):
            boosted_time_order(preset_by_name("spacelike"), -1.2)

    @pytest.mark.parametrize("v", [True, False, np.True_, "0.5", None, 0.5j])
    def test_non_real_velocity_rejected(self, v):
        with pytest.raises(ValueError, match="v must be a real number"):
            boosted_time(ev(1, 0), v)


# Pairs of events at A and C in [-10, 10]^2 (the others at the origin) whose
# |dt| and |dx| differ by at least twice sqrt(LIGHTLIKE_TOL), so the interval
# is at least 4 * LIGHTLIKE_TOL from the light cone and the boosted times,
# rounded to about 1e-14, cannot close the gap at any |v| < 1.
_GAP = 2.0 * math.sqrt(LIGHTLIKE_TOL)
_COORD = st.floats(-10.0, 10.0)
_VELOCITY = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


def _pair(t, x, dt, dx):
    return custom_preset({
        **{label: (0.0, 0.0) for label in L},
        L.A: (t, x),
        L.C: (t + dt, x + dx),
    })


def _a_before_c(preset, v):
    order = boosted_time_order(preset, v)
    return order.index(L.A) < order.index(L.C)


@given(t=_COORD, x=_COORD, dx=_COORD, gap=st.floats(_GAP, 10.0), future=st.booleans(),
       v=_VELOCITY)
@example(t=0.0, x=0.0, dx=10.0, gap=_GAP, future=True, v=math.nextafter(-1.0, 0.0))
@example(t=0.0, x=0.0, dx=-10.0, gap=_GAP, future=False, v=math.nextafter(-1.0, 0.0))
def test_timelike_pair_keeps_its_order_in_every_frame(t, x, dx, gap, future, v):
    dt = (abs(dx) + gap) * (1.0 if future else -1.0)
    preset = _pair(t, x, dt, dx)
    relation = classify(preset.event(L.A), preset.event(L.C))
    assert relation in (CausalRelation.TIMELIKE_FUTURE, CausalRelation.TIMELIKE_PAST)
    assert _a_before_c(preset, v) == _a_before_c(preset, 0.0) == future


@given(t=_COORD, x=_COORD, dt=_COORD, gap=st.floats(_GAP, 10.0), right=st.booleans())
@example(t=0.0, x=0.0, dt=0.0, gap=_GAP, right=False)  # simultaneous at rest
@example(t=0.0, x=0.0, dt=10.0, gap=_GAP, right=True)  # just off the light cone
@example(t=1.0, x=0.0, dt=-1e-235, gap=1.0, right=False)  # t + dt rounds to a tie
def test_spacelike_pair_reverses_its_order_in_some_frame(t, x, dt, gap, right):
    # The frame dependence of a spacelike C: the boost v* = dt/dx makes the
    # pair simultaneous, and one halfway from v* to the light speed on the
    # side that moves the first event later puts C on the other side of A.
    preset = _pair(t, x, dt, (abs(dt) + gap) * (1.0 if right else -1.0))
    a, c = preset.event(L.A), preset.event(L.C)
    assert classify(a, c) is CausalRelation.SPACELIKE
    a_first = _a_before_c(preset, 0.0)  # a tie goes to A, the earlier label
    towards = math.copysign(1.0, c.x - a.x) * (1.0 if a_first else -1.0)
    v = ((c.t - a.t) / (c.x - a.x) + towards) / 2.0
    assert abs(v) < 1.0
    assert _a_before_c(preset, v) != a_first
