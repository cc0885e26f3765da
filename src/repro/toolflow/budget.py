"""Wall-time budget guard for the compile+simulate hot path.

Design-space sweeps live or die by per-point pipeline throughput, so this
module pins a hard ceiling on the quickstart-style unit of work (32-qubit
QAOA on a six-trap linear device -- the ``examples/quickstart.py`` workload).
After the fast-path rewrite the unit runs in a few milliseconds; the default
budget of half a second is deliberately generous (~50x headroom) so that the
guard only trips on genuine algorithmic regressions, never on CI noise.

Invocable three ways:

* ``python -m repro check-budget`` (optionally ``--budget-s``),
* ``python benchmarks/check_budget.py``,
* the ``budget``-marked test in ``tests/test_budget_guard.py``
  (``pytest -m budget``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

#: Default wall-time ceiling (seconds) for one quickstart compile+simulate.
DEFAULT_BUDGET_S = 0.5

#: Environment variable overriding the default budget.
BUDGET_ENV_VAR = "REPRO_BUDGET_S"


def quickstart_unit_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of the quickstart compile+simulate unit."""

    from repro.apps import qaoa_circuit
    from repro.sim.engine import simulate
    from repro.toolflow.config import ArchitectureConfig
    from repro.toolflow.runner import compile_for

    circuit = qaoa_circuit(32, layers=8)
    config = ArchitectureConfig(topology="L6", trap_capacity=20)
    best = float("inf")
    for _ in range(max(1, repeats)):
        # A copy has no cached front-end: every repeat times a cold compile.
        fresh = circuit.copy()
        start = time.perf_counter()
        program, device = compile_for(fresh, config)
        simulate(program, device)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def resolve_budget(budget_s: Optional[float] = None) -> float:
    """The active budget: explicit argument, else env var, else default."""

    if budget_s is not None:
        return float(budget_s)
    return float(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET_S))


def check_budget(budget_s: Optional[float] = None) -> Dict[str, object]:
    """Measure the unit and compare against the budget.

    Returns ``{"elapsed_s", "budget_s", "ok"}``; callers decide how to fail.
    """

    budget = resolve_budget(budget_s)
    elapsed = quickstart_unit_seconds()
    return {"elapsed_s": elapsed, "budget_s": budget, "ok": elapsed <= budget}
