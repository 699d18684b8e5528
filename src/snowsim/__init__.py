"""snowsim: metastable binary consensus, its DAG generalization, and the math.

The package splits along the same lines as the protocol family itself:

- :mod:`snowsim.sampling` -- hypergeometric tails, tail bounds, seeded RNG.
- :mod:`snowsim.machines` -- single-node Slush / Snowflake / Snowball state
  machines, pure functions over immutable state.
- :mod:`snowsim.dag` -- the DAG ledger: conflict sets, chits, confidence,
  acceptance, and adaptive parent selection.
- :mod:`snowsim.analysis` -- birth-death chain construction and the safety
  design machinery (phase shift, point of no return, run-length thresholds,
  drift rates, feasibility search).
- :mod:`snowsim.sim` -- the round-based network simulator: scheduler,
  adversaries, vectorized Monte Carlo engines, and the DAG network runner.
- :mod:`snowsim.reports` -- CSV / JSON-lines emission for run outcomes.
- :mod:`snowsim.cli` -- the ``snowsim`` command line entry point.
"""

from snowsim.dag import DagParams, DagState, Vertex, make_vertex
from snowsim.sampling import (
    Rng,
    TailQuery,
    chvatal_tail_bound,
    hoeffding_tail_bound,
    hyper_tail,
)

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "TailQuery",
    "hyper_tail",
    "hoeffding_tail_bound",
    "chvatal_tail_bound",
    "DagState",
    "DagParams",
    "Vertex",
    "make_vertex",
    "__version__",
]
