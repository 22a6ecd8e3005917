"""One cold set-up of pcr3bp, timed in a fresh interpreter.

Usage: ``python3 setup_probe.py <src dir>``.  Times the import, the load of
the bundled h-sets and the first call of the interval and point kernels,
and prints ``{"setup_s": <seconds>}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from pcr3bp import hset, poincare, symbolic, taylor  # noqa: E402,F401
from pcr3bp.dynamics import Params  # noqa: E402

params = Params()
sets = {**hset.load_bundled("g_chain"), **hset.load_bundled("v_chain")}
g0 = sets["G0"]
state = poincare.lift(params, poincare.SectionPoint(*g0.center, g0.sign))
taylor.iv_var_coeffs(state, state, np.eye(4), np.eye(4), params.mu, 21)
taylor.point_var_coeffs(state, np.eye(4), params.mu, 21)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
