"""Time one fresh-process set-up: import ``wmhkit.cli`` and parse the weights once.

Usage: ``python3 perfbench/setup_probe.py [WEIGHTS.sgwt]``; prints the
steal-adjusted seconds (see ``cpuclock``). Only ``cpuclock``, which imports
nothing, is loaded before the clock starts.
"""

import sys
import time

import cpuclock

k0 = cpuclock.ticks()
t0 = time.perf_counter()
import wmhkit.cli  # noqa: E402,F401

if len(sys.argv) > 1:
    from pathlib import Path

    from wmhkit.weights_io import load_ensemble

    load_ensemble(Path(sys.argv[1]).read_bytes())
print((time.perf_counter() - t0) * cpuclock.granted(k0, cpuclock.ticks()))
