"""End-to-end + per-layer benchmark of the simulator (``python -m bench``).

The benchmark measures *host seconds per simulated scenario*: every
operation is one fresh child process that imports ``repro``, builds one
scenario and runs it.  End-to-end numbers come from untraced children;
a separate traced child wraps the public boundary of each layer (see
:mod:`bench.trace`) and yields the per-layer ledger.  See
``bench/README.md`` for the metric glossary and the workloads.
"""

import os

#: This package's directory (workloads, goldens, scratch space).
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Repository root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(BENCH_DIR)
#: The simulator's source tree; children get it on ``PYTHONPATH``.
SRC = os.path.join(ROOT, "src")
