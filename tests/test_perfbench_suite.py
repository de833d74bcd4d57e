"""The benchmark harness's own tests, run from the root of the checkout.

They live in `perfbench/tests` with a `conftest.py` of their own, which
would clash with this directory's `conftest` module in one session, so
they run in a separate interpreter.  A change that removes a name the
tracer or the gate uses fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
