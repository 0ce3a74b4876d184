"""Spacetime bookkeeping in 1+1 dimensions with c = 1.

Interval classification, the three experiment layouts (entanglement swap in
the past, in the future, or at spacelike separation from the outer
measurements), and event ordering in boosted frames.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .qcore import _real_field

LIGHTLIKE_TOL = 1e-12


class EventLabel(Enum):
    """The five labeled events; declaration order breaks time-order ties."""

    SOURCE_LEFT = "SourceLeft"
    SOURCE_RIGHT = "SourceRight"
    A = "A"
    B = "B"
    C = "C"


_TIE_ORDER = {label: i for i, label in enumerate(EventLabel)}


class CausalRelation(Enum):
    TIMELIKE_PAST = "TimelikePast"
    TIMELIKE_FUTURE = "TimelikeFuture"
    LIGHTLIKE = "Lightlike"
    SPACELIKE = "Spacelike"


class GeometryClass(Enum):
    ED = "ED"
    DD = "DD"
    SPACELIKE = "Spacelike"
    MIXED = "Mixed"


@dataclass(frozen=True)
class SpacetimeEvent:
    label: EventLabel
    t: float
    x: float

    def __post_init__(self) -> None:
        for axis in ("t", "x"):
            value = _real_field(getattr(self, axis), f"event {self.label.value} {axis}")
            object.__setattr__(self, axis, value)


@dataclass(frozen=True)
class GeometryPreset:
    """Named layout of the five events."""

    name: str
    events: Mapping[EventLabel, SpacetimeEvent]

    def __post_init__(self) -> None:
        for key, event in self.events.items():
            if not (isinstance(event, SpacetimeEvent) and event.label is key):
                raise ValueError(f"preset {self.name!r}: key {key!r} is not the label of {event!r}")
        missing = [lab.value for lab in EventLabel if lab not in self.events]
        if missing:
            raise ValueError(f"preset {self.name!r} is missing events: {missing}")
        object.__setattr__(self, "events", dict(self.events))

    def event(self, label: EventLabel) -> SpacetimeEvent:
        return self.events[label]


def classify(e1: SpacetimeEvent, e2: SpacetimeEvent) -> CausalRelation:
    """Causal relation of e2 relative to e1.

    Coincident events sit on the degenerate light cone and classify as
    Lightlike. Where a squared separation overflows, the interval's sign is
    that of |dt| - |dx|, taken from the halves' differences, which cannot
    overflow, and equal separations are Lightlike.
    """
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    interval = dt * dt - dx * dx
    if not math.isfinite(interval):
        interval = abs(e2.t / 2 - e1.t / 2) - abs(e2.x / 2 - e1.x / 2)
    if abs(interval) <= LIGHTLIKE_TOL:
        return CausalRelation.LIGHTLIKE
    if interval > 0.0:
        return CausalRelation.TIMELIKE_FUTURE if dt > 0.0 else CausalRelation.TIMELIKE_PAST
    return CausalRelation.SPACELIKE


def classify_geometry(preset: GeometryPreset) -> GeometryClass:
    """ED/DD/Spacelike when C bears that relation to both A and B, else Mixed."""
    rel_a = classify(preset.event(EventLabel.A), preset.event(EventLabel.C))
    rel_b = classify(preset.event(EventLabel.B), preset.event(EventLabel.C))
    if rel_a is CausalRelation.TIMELIKE_PAST and rel_b is CausalRelation.TIMELIKE_PAST:
        return GeometryClass.ED
    if rel_a is CausalRelation.TIMELIKE_FUTURE and rel_b is CausalRelation.TIMELIKE_FUTURE:
        return GeometryClass.DD
    if rel_a is CausalRelation.SPACELIKE and rel_b is CausalRelation.SPACELIKE:
        return GeometryClass.SPACELIKE
    return GeometryClass.MIXED


def _gamma(v: float) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"v must be a real number, got {v!r}")
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v!r}")
    return 1.0 / math.sqrt(1.0 - v * v)


def boosted_time(event: SpacetimeEvent, v: float) -> float:
    """t' = gamma * (t - v*x) for a frame moving at velocity v (|v| < 1)."""
    return _gamma(v) * (event.t - v * event.x)


def boosted_time_order(preset: GeometryPreset, v: float) -> list[EventLabel]:
    """Labels by boosted time, as t/2 - v*x/2 (which cannot overflow), ties by label order."""
    _gamma(v)  # checks v; gamma > 0 is common to every event
    keys = {lab: (ev.t / 2 - v * ev.x / 2, _TIE_ORDER[lab]) for lab, ev in preset.events.items()}
    return sorted(keys, key=keys.get)


def _build(name: str, coords: Mapping[EventLabel, tuple[float, float]]) -> GeometryPreset:
    return GeometryPreset(name, {lab: SpacetimeEvent(lab, t, x) for lab, (t, x) in coords.items()})


def custom_preset(coords: Mapping[EventLabel, tuple[float, float]]) -> GeometryPreset:
    return _build("Custom", coords)


# The built-in layouts by preset name: each one's name and its events' (t, x).
_PRESETS = {
    "early": ("EarlyDelft", {
        EventLabel.C: (0.0, 0.0),
        EventLabel.SOURCE_LEFT: (0.5, -0.5),
        EventLabel.SOURCE_RIGHT: (0.5, 0.5),
        EventLabel.A: (2.0, -1.0),
        EventLabel.B: (2.0, 1.0),
    }),
    "delayed": ("DelayedDelft", {
        EventLabel.SOURCE_LEFT: (0.0, -1.0),
        EventLabel.SOURCE_RIGHT: (0.0, 1.0),
        EventLabel.A: (1.0, -1.0),
        EventLabel.B: (1.0, 1.0),
        EventLabel.C: (3.0, 0.0),
    }),
    "spacelike": ("SpacelikeDelft", {
        EventLabel.SOURCE_LEFT: (0.0, -1.0),
        EventLabel.SOURCE_RIGHT: (0.0, 1.0),
        EventLabel.A: (1.5, -1.5),
        EventLabel.B: (1.5, 1.5),
        EventLabel.C: (1.5, 0.0),
    }),
}


def preset_by_name(name: str) -> GeometryPreset:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValueError(f"unknown geometry {name!r}; expected one of {sorted(_PRESETS)}")
    return _build(*_PRESETS[name])


def validate_preset(preset: GeometryPreset) -> GeometryClass:
    """Check that each source is timelike-past of the wing it feeds and
    return the preset's classification."""
    for src, wing in (
        (EventLabel.SOURCE_LEFT, EventLabel.A),
        (EventLabel.SOURCE_RIGHT, EventLabel.B),
    ):
        rel = classify(preset.event(wing), preset.event(src))
        if rel is not CausalRelation.TIMELIKE_PAST:
            raise ValueError(
                f"{src.value} must be timelike-past of {wing.value}, got {rel.value}"
            )
    return classify_geometry(preset)
