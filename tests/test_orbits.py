"""Trajectory sampling, mirror doubling and resonance labels of ``orbits``.

These parts of the module run without the constructed h-sets; the
symmetric-orbit searches and the chain verdicts need them and are not
tested here.
"""

import numpy as np
import pytest

from pcr3bp.dynamics import Params
from pcr3bp.errors import StructureError
from pcr3bp.integrator import flow_point
from pcr3bp.orbits import (
    Trajectory,
    mirror_double,
    resonance_from_counts,
    sample_trajectory,
)
from pcr3bp.poincare import lift, lyapunov_fixed_point

P = Params()


@pytest.fixture(scope="module")
def lyapunov_half_arc():
    # the L1 Lyapunov orbit starts on Fix(R): y = 0 and x' = 0
    orb = lyapunov_fixed_point(P, 1)
    state0 = lift(P, orb.point)
    return state0, 0.5 * orb.period, sample_trajectory(P, state0, 0.5 * orb.period, 257)


def test_mirror_double_matches_backward_flow_and_closes(lyapunov_half_arc):
    state0, half, arc = lyapunov_half_arc
    doubled = mirror_double(arc)
    assert len(doubled) == 2 * len(arc) - 1
    assert doubled.t[0] == -arc.t[-1] and doubled.t[-1] == arc.t[-1]
    back, _ = flow_point(P, state0, -half)
    assert np.max(np.abs(doubled.states[0] - back)) < 1e-12
    # the first state is on Fix(R) as well; inside the mirrored half x' != 0
    for k in (64, 128, 200):
        back, _ = flow_point(P, state0, doubled.t[k])
        assert np.max(np.abs(doubled.states[k] - back)) < 1e-12
    # over a whole period the doubled arc returns to its first state
    assert np.max(np.abs(doubled.states[-1] - doubled.states[0])) < 1e-12


def test_mirror_double_refuses_start_off_symmetry_line(lyapunov_half_arc):
    state0, _, _ = lyapunov_half_arc
    off = state0 + np.array([0.0, 0.0, 1e-3, 0.0])  # x' != 0
    with pytest.raises(StructureError):
        mirror_double(sample_trajectory(P, off, 0.5, 11))


def test_resonance_from_counts():
    ext = resonance_from_counts(-1, 2)
    assert (ext.p, ext.q, str(ext)) == (2, 3, "2:3")
    inner = resonance_from_counts(2, 5)
    assert (inner.p, inner.q, str(inner)) == (5, 3, "5:3")


def test_trajectory_write_reloads_exactly(tmp_path, lyapunov_half_arc):
    _, _, arc = lyapunov_half_arc
    path = tmp_path / "arc.txt"
    arc.write(path, header=["L1 Lyapunov half orbit"])
    table = np.loadtxt(path)
    assert np.array_equal(table[:, 0], arc.t)
    assert np.array_equal(table[:, 1:], arc.states)
    reloaded = Trajectory(table[:, 0], table[:, 1:], P)
    assert len(reloaded) == len(arc) and reloaded.duration == arc.duration
