"""Fixtures shared by the test modules."""

import pytest

from pcr3bp.dynamics import Params
from pcr3bp.poincare import lyapunov_fixed_point


@pytest.fixture(scope="session")
def lyapunov_orbits():
    """The L1 and L2 Lyapunov fixed points at the Oterma parameters.

    Each solve takes about 0.2 s; the modules that read the orbits share
    this one pair.
    """
    return {i: lyapunov_fixed_point(Params(), i) for i in (1, 2)}
