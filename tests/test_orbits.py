"""Trajectories, resonance labels and the symmetric-orbit searches.

The searches run end to end on h-sets built in the eigen-frame of a
Lyapunov fixed point, the frame the constructed sets are to use: H1 and
H2 of radius 1e-4, centred on the L1 and L2 fixed points, with the
unstable and stable directions as ``u`` and ``s``.  Both are
reversal-symmetric, so their Fix(R) segments seed both searches, and the
searches must find the Lyapunov orbits again.  The bundled sets, the
constructed ones and the chain verdicts over them are not tested here.
"""

import numpy as np
import pytest

from pcr3bp import orbits, poincare
from pcr3bp.dynamics import Params
from pcr3bp.errors import SearchError, StructureError
from pcr3bp.hset import HSet, fix_r_segment
from pcr3bp.integrator import flow_point
from pcr3bp.orbits import (
    ResonanceLabel,
    Trajectory,
    excursion_trajectory,
    find_symmetric_homoclinic,
    find_symmetric_periodic,
    mirror_double,
    resonance_from_counts,
    resonance_of,
    rigorous_chain_verdict,
    sample_trajectory,
    verify_backward_coding,
)
from pcr3bp.poincare import SectionPoint, lift

P = Params()
RADIUS = 1e-4  # of the Lyapunov-frame h-sets


@pytest.fixture(scope="module")
def lyapunov_half_arc(lyapunov_orbits):
    # the L1 Lyapunov orbit starts on Fix(R): y = 0 and x' = 0
    orb = lyapunov_orbits[1]
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


def test_resonance_of_counts_turns_and_radial_extrema():
    # synthetic arcs around the heavy primary, sampled finely enough that
    # no resampling is needed: two turns inside with five radial peaks
    # (5:3), one turn outside with two radial valleys (2:3)
    s = np.linspace(0.0, 1.0, 2049)
    for turns, r, label in (
        (2, 0.6 + 0.05 * np.cos(2 * np.pi * (5 * s - 0.5)), (5, 3, 2, 5)),
        (1, 1.5 - 0.1 * np.cos(2 * np.pi * (2 * s - 0.5)), (2, 3, -1, 2)),
    ):
        phi = 2 * np.pi * turns * s
        states = np.column_stack([r * np.cos(phi) - P.mu, r * np.sin(phi),
                                  np.zeros_like(s), np.zeros_like(s)])
        assert resonance_of(Trajectory(s, states, P)) == ResonanceLabel(*label)


# ----------------------------------------------------------------------
# symmetric-orbit searches on Lyapunov-frame h-sets
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def frame_sets(lyapunov_orbits):
    sets = {}
    for i, orb in lyapunov_orbits.items():
        h = HSet(f"H{i}", orb.point.sign, [orb.point.x, orb.point.vx],
                 RADIUS * orb.unstable_dir, RADIUS * orb.stable_dir)
        sets[i] = {h.name: h}
    return sets


@pytest.fixture(scope="module")
def periodic_orbits(frame_sets):
    # one sign change lies along each segment; 16 samples bracket it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "PERIODIC_GRID", 16)
        return {i: find_symmetric_periodic(P, (f"L{i}",), sets=frame_sets[i])
                for i in (1, 2)}


@pytest.fixture(scope="module")
def homoclinic_orbits(frame_sets, lyapunov_orbits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "HOMOCLINIC_GRID", 16)
        # the search solves for its target fixed point; the shared
        # fixture holds the same call's result
        mp.setattr(orbits, "lyapunov_fixed_point",
                   lambda params, index: lyapunov_orbits[index])
        return {i: find_symmetric_homoclinic(P, (f"L{i}", f"L{i}"),
                                             sets=frame_sets[i])
                for i in (1, 2)}


def test_periodic_search_finds_the_lyapunov_orbits(periodic_orbits,
                                                   lyapunov_orbits, frame_sets):
    for i in (1, 2):
        orb, lyap = periodic_orbits[i], lyapunov_orbits[i]
        h = frame_sets[i][f"H{i}"]
        assert orb.word == (f"L{i}",)
        assert abs(orb.seed.x - lyap.point.x) < 1e-12
        assert orb.seed.vx == 0.0 and orb.seed.sign == lyap.point.sign
        # one cyclic symbol flies a whole period, half of which is reported
        assert abs(orb.period - lyap.period) < 1e-9
        assert orb.closure_residual < 1e-10
        assert orb.map_points == (orb.terminal,)
        assert h.contains(orb.terminal.x, orb.terminal.vx)


def test_homoclinic_search_converges_onto_the_fixed_points(homoclinic_orbits,
                                                           lyapunov_orbits):
    # the fixed point lies on its own stable manifold: the search returns
    # the trivial homoclinic orbit of each word
    for i in (1, 2):
        orb, lyap = homoclinic_orbits[i], lyapunov_orbits[i]
        assert orb.word == (f"L{i}", f"L{i}") and orb.target_index == i
        assert orb.target == lyap.point
        assert abs(orb.seed.x - lyap.point.x) < 1e-12
        assert orb.tail_depth >= 1 and orb.n_tail == orbits.N_TAIL
        assert orb.multiplier == max(abs(m) for m in lyap.multipliers)
        assert abs(orb.half_time - lyap.period) < 1e-9
        assert orb.convergence_log and orb.convergence_log[0] < 1e-11


def test_homoclinic_search_outputs_are_pinned_to_the_bit(homoclinic_orbits):
    # the deepening flies each level's probes as the lanes of one flight of
    # the chain and all its return maps; each lane gives the bits of its own
    # flight, so the outputs are those of the probe-by-probe search, frozen
    # here as exact floats
    got = {i: (o.seed.x, o.seed.vx, o.half_time, o.tail_depth, o.convergence_log)
           for i, o in homoclinic_orbits.items()}
    assert got == {
        1: (0.9208034913207466, 0.0, 3.0821191263915635, 3, (4.0349619956617424e-13,)),
        2: (1.081929486841792, 0.0, 3.3106714575712353, 3, (3.3942581275296404e-13,)),
    }


def test_backward_coding_holds_only_at_the_symmetric_seed(periodic_orbits,
                                                          frame_sets):
    # off the fixed point the seed's stable part grows by the multiplier
    # (about 1.4e3) under the backward return map and leaves R(H1)
    sets = frame_sets[1]
    assert verify_backward_coding(P, periodic_orbits[1].seed, ("L1",), sets=sets)
    gamma = fix_r_segment(sets["H1"])
    for a in (0.01, 0.5, 1.0):
        point, _ = gamma(a)
        seed = SectionPoint(float(point[0]), 0.0, 1)
        assert not verify_backward_coding(P, seed, ("L1",), sets=sets)


def test_backward_coding_off_the_symmetry_line(frame_sets):
    # R(c + a u) = c + a R(u) lies on the stable line, since R(u) = +-s, so
    # the seeds c +- 0.5 u code backward as the word; R(c + 0.5 s) lies on
    # the unstable line, and its forward images leave H1
    sets = frame_sets[1]
    h = sets["H1"]
    for word in (("L1",), ("L1", "L1")):
        for a, b, expected in ((0.5, 0.0, True), (-0.5, 0.0, True),
                               (0.0, 0.5, False)):
            x, vx = h.corner_point(a, b)
            seed = SectionPoint(float(x), float(vx), h.sign)
            assert verify_backward_coding(P, seed, word, sets=sets) is expected


@pytest.fixture
def flights(monkeypatch):
    """The maps of each point-mode flight made, one list per flight."""
    flown = []
    fly = poincare._fly_to_crossings

    def counted(flow, tags):
        flown.append([t.name for t in tags])
        return fly(flow, tags)

    monkeypatch.setattr(poincare, "_fly_to_crossings", counted)
    return flown


def test_backward_coding_walks_a_word_in_one_flight(periodic_orbits, frame_sets,
                                                    flights):
    # two links of P+ each: one flight lands after both maps
    seed = periodic_orbits[1].seed
    assert verify_backward_coding(P, seed, ("L1", "L1", "L1"), sets=frame_sets[1])
    assert flights == [["P+", "P+"]]


def test_homoclinic_search_flies_each_seed_once_per_level(frame_sets,
                                                          lyapunov_orbits,
                                                          monkeypatch, flights):
    # the images at depth k are one flight of the chain and k return maps;
    # flying each return map from a cache of the level above took 65
    monkeypatch.setattr(orbits, "HOMOCLINIC_GRID", 16)
    monkeypatch.setattr(orbits, "lyapunov_fixed_point",
                        lambda params, index: lyapunov_orbits[index])
    find_symmetric_homoclinic(P, ("L1", "L1"), sets=frame_sets[1])
    assert len(flights) < 65
    # first the grid; last the deepening's probes of depth 4 (the chain and
    # four return maps, where the search stops at depth 3), the walk of the
    # one bracket, whose landing is the convergence log's depth 0, and the
    # log's depth 1 (its distance grows there)
    assert flights[0] == ["P+"]
    assert flights[-3:] == [["P+"] * 5, ["P+"], ["P+", "P+"]]


def test_excursion_of_the_trivial_homoclinic_is_refused(homoclinic_orbits,
                                                        lyapunov_orbits,
                                                        monkeypatch):
    # the L1 "homoclinic" is the fixed point itself: its arc never leaves
    # the Lyapunov orbit's radial band, so there is no excursion to cut
    monkeypatch.setattr(orbits, "lyapunov_fixed_point",
                        lambda params, index: lyapunov_orbits[index])
    with pytest.raises(SearchError, match="starts inside the libration band"):
        excursion_trajectory(P, homoclinic_orbits[1])


def test_two_searches_on_one_params_solve_the_fixed_point_once(homoclinic_orbits,
                                                              frame_sets,
                                                              lyapunov_orbits,
                                                              monkeypatch):
    solves = []

    def counted(params, index):
        solves.append(index)
        return lyapunov_orbits[index]

    monkeypatch.setattr(orbits, "lyapunov_fixed_point", counted)
    monkeypatch.setattr(orbits, "HOMOCLINIC_GRID", 16)
    find_symmetric_homoclinic(P, ("L2", "L2"), sets=frame_sets[2])
    with pytest.raises(SearchError, match="starts inside the libration band"):
        excursion_trajectory(P, homoclinic_orbits[2])
    assert solves == [2]


def test_a_patched_solver_does_not_outlive_its_patch(lyapunov_orbits):
    # the cache is keyed on the solver, so what a patched solver returned
    # is not served once another one is in place
    for answer in ("first", "second"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "lyapunov_fixed_point", lambda params, index: answer)
            assert orbits._lyapunov(P, 1) == answer
    assert orbits._lyapunov(P, 1).point == lyapunov_orbits[1].point


def test_searches_refuse_a_start_set_off_the_symmetry_line(frame_sets):
    h = frame_sets[1]["H1"]
    skew = {"H1": HSet("H1", h.sign, h.center, h.u, 2.0 * h.s)}
    for search in (find_symmetric_periodic, find_symmetric_homoclinic):
        with pytest.raises(StructureError, match="not reversal-symmetric"):
            search(P, ("L1", "L1"), sets=skew)


def test_chain_verdict_reports_an_asymmetric_start_set(frame_sets):
    # the verdict runs the covers and reports the asymmetry, where the
    # searches refuse the set
    h = frame_sets[1]["H1"]
    skew = {"H1": HSet("H1", h.sign, h.center, h.u, 2.0 * h.s)}
    verdict = rigorous_chain_verdict(P, ("L1",), grid=(1, 1), max_grid=(1, 1),
                                     sets=skew)
    assert len(verdict.relations) == 1
    assert verdict.start_symmetric is False
    assert verdict.end_symmetric is False
    assert verdict.verdict != "verified"
