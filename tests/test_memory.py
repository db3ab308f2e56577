"""Memory guards on the exact path, by peak bytes traced with tracemalloc.

Each case runs in a fresh interpreter, so the table caches start cold and
the peak counts only the call under test.  Traced bytes are numpy buffers
and Python objects, independent of the allocator and the host, unlike RSS.
"""

import json
import os
import subprocess
import sys

PEAK = """
import json, tracemalloc
import numpy as np
import randova as rv
from randova.enumeration import _latin_square_rows
{setup}
tracemalloc.start()
result = {call}
print(json.dumps({{"peak": tracemalloc.get_traced_memory()[1]}}))
"""


def traced_peak(call, setup=""):
    """Peak traced bytes of evaluating `call` in a fresh interpreter."""
    code = PEAK.format(setup=setup, call=call)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True
    ).stdout
    return json.loads(out)["peak"]


def test_order_five_latin_square_table_build():
    # measured 17.2 MB (numpy 2.4); bound = measured + 30%.  Keeping every
    # square as int64 grids peaked at 64.7 MB.
    assert traced_peak("_latin_square_rows(5)") < 1.3 * 17.2e6


def test_exact_rcb_4x4_aggregation_per_assignment():
    # an integer RCB 4x4 (331,776 assignments, 329,262 atoms): measured 82.5
    # bytes per assignment (numpy 2.4); bound = measured + 30%.  Holding
    # every full-length array of the aggregation to the end took 154.
    setup = (
        "x = np.round(np.random.default_rng(5).normal(20.0, 15.0, size=(4, 4, 4)))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)\n"
    )
    peak = traced_peak("rv.exact_distribution(table)", setup)
    assert peak / 331_776 < 1.3 * 82.5
