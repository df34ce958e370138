"""Run by explicit path: ``python3 -m pytest benchmarks/e2e/tests``.

Puts the benchmark's own modules and the program under test on the path
and pins the same environment ``run.py`` pins.
"""

import os
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"
for _path in (E2E, E2E.parents[1] / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
