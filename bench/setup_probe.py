"""Print one workload's set-up time, measured in this fresh interpreter.

    python3 bench/setup_probe.py class-sweep

Set-up is the import of langrep and the workload's ``setup``: parsing its
language specs and warming the ``enumerate_graphs`` and
``canonical_language`` caches.  Input generation is not part of it.  The
time is scaled to the reference host speed, as the job times are.
"""

import sys
from time import perf_counter

from run import use_checkout_source
from tracing import Timer, host_kernel_seconds, speed_scale

use_checkout_source()
host_kernel_seconds()  # warm-up
before = host_kernel_seconds()
t0 = perf_counter()
import workloads  # noqa: E402  (the import of langrep is part of the timing)

workloads.WORKLOADS[sys.argv[1]].setup(Timer())
elapsed = perf_counter() - t0
print(elapsed * speed_scale(before, host_kernel_seconds()))
