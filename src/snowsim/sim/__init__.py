"""Round-based network simulator for the consensus family.

Two execution paths cover every experiment. The scalar engine drives the
pure single-node machines from :mod:`snowsim.machines` one query at a
time and exists to be read and cross-checked. The batch engine runs many
trials at once on numpy arrays, reading each query's outcome off exact
three-outcome tables (Slush as a jump chain on the red count), and is
what the large table and property experiments use. Both consume the same
configs and adversary strategies (:class:`Adversary`), which
:mod:`snowsim.sim.network` defines with the rule every strategy obeys.
"""

from snowsim.sim.avalanche import AvalancheConfig, AvalancheOutcome, IssuedTx, run_avalanche
from snowsim.sim.network import (
    Adversary,
    NetworkConfig,
    RunOutcome,
    SlushBatch,
    SnowBatch,
    run_slush,
    run_slush_batch,
    run_snow,
    run_snow_batch,
)

__all__ = [
    "Adversary",
    "NetworkConfig",
    "RunOutcome",
    "SlushBatch",
    "SnowBatch",
    "run_slush",
    "run_slush_batch",
    "run_snow",
    "run_snow_batch",
    "AvalancheConfig",
    "AvalancheOutcome",
    "IssuedTx",
    "run_avalanche",
]
