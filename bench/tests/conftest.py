"""Make ``bench`` and ``repro`` importable when run as ``pytest bench/tests``.

Deliberately not the simulator's ``tests/conftest.py``: the sanitizer
suite must stay detached here, the benchmark measures the production path.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
