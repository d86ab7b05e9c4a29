"""Set-up of one benchmark run, in a fresh interpreter: import ctq, build and
write the inputs.

    python3 perfbench/prepare.py <workload> <seed>

For state-files it writes the seeded state corpus under
perfbench/out/state-files/corpus.  Once the inputs are built, and before
they are written, it prints time.perf_counter(): run.py times set-up up to
that stamp (CLOCK_MONOTONIC on Linux, shared by all processes).  Writing is
left out of the timing because ctq's pure-Python JSON encoder, which does
most of it, swings by a quarter from one set-up to the next on a shared
host.
"""

import os
import sys
import time

from _paths import OUT

import ctq.cli  # noqa: F401  (the import a ctq command pays for)
import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name](seed, os.path.join(OUT, name))
    inputs = wl.build_inputs()
    print(time.perf_counter(), flush=True)
    wl.write_inputs(inputs)
