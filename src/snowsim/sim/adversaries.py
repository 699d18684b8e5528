"""Byzantine response strategies.

Each strategy decides what the adversarial nodes answer when a correct
node queries them. The adversary sees the full network state. One rule
constrains everything: a Byzantine node can only answer with a value
that some correct node actually proposed, because conflicting values
cannot be forged. When a strategy calls for a color that was never
proposed, those nodes refuse instead, and the querier replaces them by
sampling further, exactly as it does for plain refusal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from snowsim.machines import Color


class Adversary(enum.Enum):
    """Strategy tags accepted by run configs and the CLI."""

    NONE = "none"
    REFUSE = "refuse"
    BALANCE_KEEPER = "balance-keeper"
    MINORITY_PUSH = "minority-push"


@dataclass
class AdversaryState:
    """Mutable strategy state for one scalar run.

    ``byz_colors`` holds the static answers of the non-strategic
    adversary, one per Byzantine node. ``assignments`` is the
    balance-keeper's partition of the correct nodes: each querier is
    answered with its assigned color, which freezes the split in place.
    """

    strategy: Adversary
    c: int
    valid_red: bool
    valid_blue: bool
    byz_colors: list[Color] = field(default_factory=list)
    assignments: list[Color] = field(default_factory=list)

    @classmethod
    def create(cls, strategy: Adversary, initial_colors: Sequence[Color], b: int) -> "AdversaryState":
        c = len(initial_colors)
        valid_red = Color.RED in initial_colors
        valid_blue = Color.BLUE in initial_colors
        adv = cls(strategy, c, valid_red, valid_blue)
        if strategy is Adversary.NONE:
            # Split the adversary's own proposals as evenly as the
            # proposed value set allows.
            reds = b // 2 if (valid_red and valid_blue) else (b if valid_red else 0)
            adv.byz_colors = [Color.RED] * reds + [Color.BLUE] * (b - reds)
        if strategy is Adversary.BALANCE_KEEPER:
            adv.assignments = list(initial_colors)
        return adv

    def answer(
        self,
        byz_node: int,
        querier: int,
        red_count: int,
        tie_coin_red: bool,
    ) -> Color | None:
        """The color one Byzantine node responds with, or None to refuse.

        ``tie_coin_red`` is this round's pre-drawn coin, consumed only by
        the minority strategy when the correct nodes are split exactly in
        half.
        """
        if self.strategy is Adversary.REFUSE:
            return None
        if self.strategy is Adversary.NONE:
            return self.byz_colors[byz_node - self.c]
        if self.strategy is Adversary.BALANCE_KEEPER:
            return self.assignments[querier]
        if 2 * red_count > self.c:
            push = Color.BLUE
        elif 2 * red_count < self.c:
            push = Color.RED
        else:
            push = Color.RED if tie_coin_red else Color.BLUE
        if (push is Color.RED and not self.valid_red) or (
            push is Color.BLUE and not self.valid_blue
        ):
            return None
        return push

    def notify_flip(self, node: int, new_color: Color, skew: Callable[[int, Color], int]) -> None:
        """Rebalance the partition after a correct node changes color.

        The flipped node joins the side of its new color, and the member
        of that side least committed to it (smallest ``skew``, ties to
        the lowest id) is reassigned to the other side, keeping the
        partition sizes unchanged. The reassigned member may be the
        flipped node itself, in which case nothing moves.
        """
        if self.strategy is not Adversary.BALANCE_KEEPER:
            return
        if self.assignments[node] == new_color:
            return
        self.assignments[node] = new_color
        side = [v for v in range(self.c) if self.assignments[v] == new_color]
        loosest = min(side, key=lambda v: (skew(v, new_color), v))
        self.assignments[loosest] = new_color.other()
