"""Classical collider constructions that mimic Bell correlations via selection.

Two variants share one sampler: all four bits (settings a, b and outcomes
A, B) are drawn uniformly and independently, and a third party accepts the
trial with probability w(a, b, A, B). In the collider variant the outcomes
are generated at the wings; in the source variant the same pair is generated
at the midpoint source and recorded as the hidden variable, so the induced
selection correlation shows up against the settings instead of across the
wings. A rock-paper-scissors generator provides the minimal selection-bias
example.

The setting-to-angle map is shared with the trial engine so toy and quantum
CHSH values are directly comparable.

Runs are engine.Trials tables. A toy run holds trial_id, a, b, A, B and
accepted (bool), plus lambda_A and lambda_B (equal to A and B) in the source
variant only. A rock-paper-scissors run holds trial_id, alice and bob
(indices into RPS_CHOICES) and verdict (an index into RPS_VERDICTS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .engine import (
    CELLS,
    DEFAULT_ANGLES_A,
    DEFAULT_ANGLES_B,
    Trials,
    check_angle_pair,
    check_trials,
    counter_uniforms,
)
from .qcore import _real_field


@dataclass(frozen=True)
class AcceptanceRule:
    """Acceptance weight w(a, b, A, B) in [0, 1] over the 16 bit combinations."""

    name: str
    weight: Callable[[int, int, int, int], float]

    def __post_init__(self) -> None:
        for (a, b, A, B), w in self.table().items():
            w = _real_field(w, f"rule {self.name!r}: w({a},{b},{A},{B})")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"rule {self.name!r}: w({a},{b},{A},{B}) = {w!r} outside [0, 1]")

    def table(self) -> dict[tuple[int, int, int, int], float]:
        """w at each (a, b, A, B) cell, in CELLS order: 8a + 4b + 2[A=-1] + [B=-1]."""
        return {cell: self.weight(*cell) for cell in CELLS}


def singlet_weight_rule(
    angles_a: tuple[float, float] = DEFAULT_ANGLES_A,
    angles_b: tuple[float, float] = DEFAULT_ANGLES_B,
) -> AcceptanceRule:
    """Default rule w = (1 - A*B*cos(ta - tb))/2.

    Renormalizing the uniform outcome prior by this weight reproduces the
    singlet conditional distribution (1 - A*B*cos(ta - tb))/4 exactly, so
    the accepted subensemble approaches the Tsirelson CHSH value.
    """
    angles_a = check_angle_pair(angles_a, "angles_a")
    angles_b = check_angle_pair(angles_b, "angles_b")

    def weight(a: int, b: int, A: int, B: int) -> float:
        return 0.5 * (1.0 - A * B * math.cos(angles_a[a] - angles_b[b]))

    return AcceptanceRule("singlet-weight", weight)


def constant_rule(value: float) -> AcceptanceRule:
    return AcceptanceRule(f"constant-{value}", lambda a, b, A, B: value)


def _run_toy(n: int, seed: int, rule: AcceptanceRule, record_lambda: bool) -> Trials:
    n = check_trials(n)
    if not isinstance(rule, AcceptanceRule):
        raise ValueError(f"rule must be an AcceptanceRule, got {rule!r}")
    u = counter_uniforms(seed, np.arange(n), 5)
    # Draws 0-3 pick a, b, A, B, the first declared option (setting 0,
    # outcome +1) when below 1/2; draw 4 accepts when below w(a, b, A, B).
    # rule.table() runs over the cells in CELLS order, so the four bits
    # index its entries.
    bits = (u[:, :4] >= 0.5).astype(np.int8)
    a, b, A, B = bits[:, 0], bits[:, 1], 1 - 2 * bits[:, 2], 1 - 2 * bits[:, 3]
    accept = u[:, 4] < np.array(list(rule.table().values()))[bits @ np.array([8, 4, 2, 1])]
    columns = {"trial_id": np.arange(n), "a": a, "b": b, "A": A, "B": B, "accepted": accept}
    if record_lambda:
        columns.update(lambda_A=A, lambda_B=B)
    return Trials(columns)


def run_toy_collider(n: int, seed: int, rule: AcceptanceRule | None = None) -> Trials:
    """Wing-generated outcomes filtered by the acceptance rule."""
    return _run_toy(n, seed, singlet_weight_rule() if rule is None else rule, record_lambda=False)


def run_toy_source_variant(n: int, seed: int, rule: AcceptanceRule | None = None) -> Trials:
    """Same sampling, but the outcome pair originates at the source and is
    recorded as the hidden variable."""
    return _run_toy(n, seed, singlet_weight_rule() if rule is None else rule, record_lambda=True)


def accepted(trials: Trials) -> Trials:
    return trials.select(trials["accepted"])


class RpsChoice(Enum):
    ROCK = "rock"
    PAPER = "paper"
    SCISSORS = "scissors"


class RpsVerdict(Enum):
    ALICE_WINS = "AliceWins"
    BOB_WINS = "BobWins"
    DRAW = "Draw"


_BEATS = {
    (RpsChoice.ROCK, RpsChoice.SCISSORS),
    (RpsChoice.SCISSORS, RpsChoice.PAPER),
    (RpsChoice.PAPER, RpsChoice.ROCK),
}

RPS_CHOICES = tuple(RpsChoice)
RPS_VERDICTS = tuple(RpsVerdict)


def rps_verdict(alice: RpsChoice, bob: RpsChoice) -> RpsVerdict:
    if alice is bob:
        return RpsVerdict.DRAW
    return RpsVerdict.ALICE_WINS if (alice, bob) in _BEATS else RpsVerdict.BOB_WINS


# _VERDICT_CODES[alice, bob] is the verdict code of two choice codes.
_VERDICT_CODES = np.array(
    [[RPS_VERDICTS.index(rps_verdict(x, y)) for y in RPS_CHOICES] for x in RPS_CHOICES],
    dtype=np.int8,
)


def run_rps(n: int, seed: int) -> Trials:
    """Independent uniform choices plus the game verdict; no physics, pure
    selection-bias fodder. Choice i is RPS_CHOICES[int(3 * draw i)]."""
    n = check_trials(n)
    alice, bob = (counter_uniforms(seed, np.arange(n), 2) * 3.0).astype(np.int8).T
    verdict = _VERDICT_CODES[alice, bob]
    return Trials({"trial_id": np.arange(n), "alice": alice, "bob": bob, "verdict": verdict})
