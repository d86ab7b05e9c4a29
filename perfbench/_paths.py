"""Where the benchmark finds ctq and writes its outputs; importing it puts
``src`` and ``perfbench`` on ``sys.path``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

for _p in (HERE, SRC):
    if _p not in sys.path:
        sys.path.insert(0, _p)
