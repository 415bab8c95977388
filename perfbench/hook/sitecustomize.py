"""Start-up hook for traced benchmark runs.

The benchmark puts this directory first on ``PYTHONPATH`` for a traced
CLI invocation, so every Python process of that invocation -- the CLI
and any runner processes it spawns -- installs the same layer wrappers
before ``repro`` runs.  Without ``PERFBENCH_TRACE_DIR`` it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import layer_trace

    layer_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
