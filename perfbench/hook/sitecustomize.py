"""Start-up hook for the benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from ``sys.path``.  The benchmark
puts this directory first on ``PYTHONPATH`` for its traced runs only, and
dispatched workers inherit that environment, so every process of a traced
run installs the layer timers of :mod:`layer_hook`.
"""

import os

if os.environ.get("PERFBENCH_LAYER_DIR"):
    import layer_hook

    layer_hook.install(os.environ["PERFBENCH_LAYER_DIR"])
