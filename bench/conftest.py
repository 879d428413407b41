"""Test set-up for the benchmark's own helpers: ``python3 -m pytest bench``.

Pins BLAS to one thread before numpy loads, like the benchmark, and puts
the benchmark directory and the checkout's ``src/`` on the import path.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
