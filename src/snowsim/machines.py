"""Single-node state machines for the three binary consensus variants.

All three protocols share one loop: repeatedly sample ``k`` peers, ask for
their color, and react if at least ``a`` answers agree (``a`` is a strict
majority of the sample, so at most one color can win a round).  They differ
only in how much memory a node keeps about past rounds:

- Slush is memoryless: adopt the winning color, nothing else.
- Snowflake counts consecutive winning rounds for the current color (``cnt``)
  and decides once the run reaches ``beta``.  Any flip or failed round resets
  the run; the round that causes a flip does not count toward the new color.
- Snowball additionally accumulates a per-color confidence ``d`` that only
  ever grows, flips its color on confidence dominance rather than on a single
  round, and runs the ``cnt`` mechanism against ``lastcol``, the most recent
  winning color.  The round that flips ``lastcol`` starts the new run at 1,
  and the decision goes to ``lastcol``.

Those reset conventions are deliberate and the analysis layer depends on
them: the run-length recursion in :mod:`snowsim.analysis.design` models a
decision as ``beta`` consecutive winning rounds with resets exactly as
implemented here.

Transitions are pure: every operation returns a new ``SnowState`` and never
mutates its input, which makes replay, property testing, and cross-checking
against the vectorized array engine straightforward.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "Color",
    "Variant",
    "ProtocolParams",
    "SnowState",
    "fresh_state",
    "handle_query",
    "handle_sample_result",
]


class Color(enum.Enum):
    """A binary decision value; UNSET only before first adoption."""

    RED = "R"
    BLUE = "B"
    UNSET = "unset"

    def other(self) -> "Color":
        if self is Color.RED:
            return Color.BLUE
        if self is Color.BLUE:
            return Color.RED
        raise ValueError("UNSET has no opposite color")


class Variant(enum.Enum):
    SLUSH = "slush"
    SNOWFLAKE = "snowflake"
    SNOWBALL = "snowball"


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol constants: sample size, vote threshold, decision threshold.

    ``a`` must be a strict majority of ``k`` (floor(k/2) < a <= k) so two
    colors can never both reach quorum in one sample.
    """

    k: int
    a: int
    beta: int = 1

    def __post_init__(self) -> None:
        if not self.k // 2 < self.a <= self.k:
            raise ValueError(f"need floor(k/2) < a <= k; got k={self.k}, a={self.a}")
        if self.beta < 1:
            raise ValueError(f"beta={self.beta} must be >= 1")

    @classmethod
    def from_alpha(cls, k: int, alpha: float, beta: int = 1) -> "ProtocolParams":
        """The canonical fractional form: a = ceil(alpha * k), alpha > 0.5."""
        return cls(k=k, a=math.ceil(alpha * k), beta=beta)


@dataclass(frozen=True)
class SnowState:
    """Immutable per-node protocol state.

    ``d`` holds Snowball's per-color confidences as ``(red, blue)``; use
    :meth:`confidence` to read one entry.  ``lastcol`` and ``cnt`` are
    meaningful for Snowflake/Snowball only, ``d`` for Snowball only.
    """

    variant: Variant
    col: Color = Color.UNSET
    lastcol: Color = Color.UNSET
    cnt: int = 0
    d: tuple[int, int] = (0, 0)
    decided: Color | None = None

    def confidence(self, color: Color) -> int:
        if color is Color.RED:
            return self.d[0]
        if color is Color.BLUE:
            return self.d[1]
        raise ValueError("UNSET has no confidence entry")

    def _with_confidence(self, color: Color, value: int) -> "SnowState":
        if color is Color.RED:
            return replace(self, d=(value, self.d[1]))
        return replace(self, d=(self.d[0], value))


def fresh_state(variant: Variant, col: Color = Color.UNSET) -> SnowState:
    """A node before any protocol event, optionally pre-colored."""
    return SnowState(variant=variant, col=col)


def handle_query(state: SnowState, incoming: Color) -> tuple[SnowState, Color]:
    """React to an incoming query carrying the querier's color.

    An uncolored node adopts the incoming color; a colored node is unchanged.
    Either way the response is the node's (possibly just adopted) color.
    """
    if incoming is Color.UNSET:
        raise ValueError("a query always carries a concrete color")
    if state.col is Color.UNSET:
        adopted = replace(state, col=incoming)
        return adopted, incoming
    return state, state.col


def _winning_color(counts: Mapping[Color, int], params: ProtocolParams) -> Color | None:
    total = 0
    for color, n in counts.items():
        if color is Color.UNSET:
            raise ValueError("UNSET cannot appear in response counts")
        if n < 0:
            raise ValueError(f"negative count for {color}")
        total += n
    if total != params.k:
        raise ValueError(f"counts total {total}, expected k={params.k}")
    # a > k/2 guarantees at most one winner.
    for color in (Color.RED, Color.BLUE):
        if counts.get(color, 0) >= params.a:
            return color
    return None


def handle_sample_result(
    state: SnowState, params: ProtocolParams, counts: Mapping[Color, int]
) -> SnowState:
    """Fold one completed k-sample of responses into the node state.

    ``counts`` maps each color to the number of responses carrying it and
    must total exactly ``k``.  Decided nodes no longer sample; calling this
    on one is a protocol error.
    """
    if state.decided is not None:
        raise ValueError("node already decided; decisions are immutable")
    winner = _winning_color(counts, params)

    if state.variant is Variant.SLUSH:
        if winner is not None:
            return replace(state, col=winner)
        return state

    if state.variant is Variant.SNOWFLAKE:
        if winner is None:
            return replace(state, cnt=0)
        if winner is not state.col:
            return replace(state, col=winner, cnt=0)
        cnt = state.cnt + 1
        decided = state.col if cnt >= params.beta else None
        return replace(state, cnt=cnt, decided=decided)

    # Snowball.
    if winner is None:
        return replace(state, cnt=0)
    new = state._with_confidence(winner, state.confidence(winner) + 1)
    if state.col is Color.UNSET or new.confidence(winner) > new.confidence(state.col):
        new = replace(new, col=winner)
    if winner is not state.lastcol:
        new = replace(new, lastcol=winner, cnt=1)
    else:
        new = replace(new, cnt=state.cnt + 1)
    if new.cnt >= params.beta:
        new = replace(new, decided=new.lastcol)
    return new
