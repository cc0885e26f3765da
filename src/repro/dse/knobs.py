"""Which knobs each search strategy reads: one table for the strategy
factory and for a grid ``dse dispatch``, which builds no strategy.  A knob
the named strategy does not read is refused by its flag, never silently
dropped.  A leaf module: checking a grid dispatch's knobs imports no
strategy.  ``seed``, ``metric`` and ``objectives`` have guards of their own.
"""

from __future__ import annotations

from typing import Dict

#: Per strategy name, the knobs (``make_strategy`` keyword arguments) it
#: reads, in the order its spec records them.
STRATEGY_KNOBS = {
    "grid": (),
    "random": ("samples",),
    "greedy": (),
    "halving": ("proxy_qubits",),
    "bayes": ("batch_size", "max_evals", "surrogate"),
    "adaptive-halving": ("proxy_qubits", "surrogate"),
    "ehvi": ("batch_size", "max_evals", "surrogate"),
    "parego": ("batch_size", "max_evals", "surrogate"),
}

#: Defaults of the knobs that have one, applied where a strategy reads them.
KNOB_DEFAULTS = {"proxy_qubits": 12, "batch_size": 4}


def strategy_knobs(name: str, **given) -> Dict[str, object]:
    """The knobs strategy ``name`` reads, from ``given`` (``None``: not
    given) with :data:`KNOB_DEFAULTS` applied, less those without a value.
    Refuses an unknown strategy, and any knob given that it does not read."""

    if name not in STRATEGY_KNOBS:
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{tuple(STRATEGY_KNOBS)}")
    reads = STRATEGY_KNOBS[name]
    flag = {knob: "--" + knob.replace("_", "-") for knob in (*given, *reads)}
    for knob, value in given.items():
        if value is not None and knob not in reads:
            read = ", ".join(flag[other] for other in reads) or "none of them"
            raise ValueError(f"{flag[knob]} does not apply to --strategy "
                             f"{name} (it reads {read})")
    knobs = {knob: KNOB_DEFAULTS.get(knob) if given.get(knob) is None
             else given[knob] for knob in reads}
    return {knob: value for knob, value in knobs.items() if value is not None}
