"""The ``--check`` switch, readable without loading the analyzer.

``--check`` on ``run``/``sweep``/``dse run`` turns on verification of every
compiled program (:func:`repro.analyze.runtime.verify_or_raise`).  The flag
lives here, apart from :mod:`repro.analyze`, so that the compiler and the
sweep executor test it with one call and import the verifier, the race
detector and their dependencies only when it is on.  It is mirrored into the
``REPRO_CHECK`` environment variable so the ledger workers of ``--jobs N``
and of ``dse dispatch`` inherit it.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable carrying the flag across process boundaries.
ENV_FLAG = "REPRO_CHECK"

_enabled: Optional[bool] = None


class StaticAnalysisError(ValueError):
    """A compiled program failed static verification under ``--check``.

    ``report`` is the :class:`repro.analyze.diagnostics.Report` of findings.
    """

    def __init__(self, report) -> None:
        super().__init__(report.format())
        self.report = report


def checks_enabled() -> bool:
    """Whether ``--check`` verification is active in this process.

    The first call without an explicit setting reads :data:`ENV_FLAG` and
    keeps the answer, so every later call is one truthiness test.
    """

    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(ENV_FLAG, "") not in ("", "0")
    return _enabled


def enable_checks(enabled: bool = True) -> None:
    """Turn runtime verification on (or off) for this process and children.

    The environment mirror is what carries the flag into ledger workers --
    they are spawned after the CLI parses ``--check`` and read the variable
    when they first test the flag.
    """

    global _enabled
    _enabled = enabled
    if enabled:
        os.environ[ENV_FLAG] = "1"
    else:
        os.environ.pop(ENV_FLAG, None)


def reset_checks() -> None:
    """Forget any explicit setting or cached read; the next
    :func:`checks_enabled` reads the environment again (tests)."""

    global _enabled
    _enabled = None
