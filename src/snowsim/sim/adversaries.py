"""Byzantine response strategies.

Each strategy decides what the adversarial nodes answer when a correct
node queries them. The adversary sees the full network state. One rule
constrains everything: a Byzantine node can only answer with a value
that some correct node actually proposed, because conflicting values
cannot be forged. When a strategy calls for a color that was never
proposed, those nodes refuse instead, and the querier replaces them by
sampling further, exactly as it does for plain refusal.

Each engine states the strategies and the rule where it answers a query:
the scalar engine in ``snowsim.sim.network._run_scalar``, one Byzantine
answer at a time, and the batch engine in
``snowsim.sim.network._outcome_tables``, as exact outcome probabilities.
"""

from __future__ import annotations

import enum


class Adversary(enum.Enum):
    """Strategy tags accepted by run configs and the CLI."""

    NONE = "none"
    REFUSE = "refuse"
    BALANCE_KEEPER = "balance-keeper"
    MINORITY_PUSH = "minority-push"
