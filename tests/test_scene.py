"""Spawning, lifecycle predicates, and the synchronous episode loop."""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from spawn_oracle import spawn_by_rejection

from intersim import imitation, planner, scene
from intersim.controllers import AdaptiveController
from intersim.dynamics import DEFAULT_ACTIONS, DT_S, PHASE_APPROACH, V_MAX, Pose2, VehicleState
from intersim.geometry import (
    LANE_WIDTH_M,
    euclidean_dist,
    make_city,
    rects_overlap,
    segment_intersects_rect,
    single_network,
)
from intersim.planner import PlanCache
from intersim.reward import C_LENGTH_M, c_zone
from intersim.scene import (
    AVController,
    ExpertTraffic,
    MIN_SEPARATION_M,
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_SUCCESS,
    SceneConfig,
    TrafficPolicy,
    detect_fail,
    detect_success,
    draw_levels,
    init_episode,
    route_from_entry,
    run_episode,
    sim_step,
    spawn_vehicle,
)


class HoldTraffic(TrafficPolicy):
    """Everything coasts: action 0 for every vehicle."""

    def select(self, states, levels, indices, network, plans):
        return {i: 0 for i in indices}


class ScriptedAV(AVController):
    def __init__(self, action=0):
        self.action = action
        self.observed = 0

    def decide(self, states, i, network, plans):
        return self.action

    def observe(self, prev_states, actions, network, plans):
        self.observed += 1


class JitterTraffic(TrafficPolicy):
    """Random actions from its own generator, so the episode's is left to
    the spawns. It keeps a copy of the states at every select."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.seen = []

    def select(self, states, levels, indices, network, plans):
        self.seen.append([s.copy() if s is not None else None for s in states])
        return {i: int(self.rng.integers(len(DEFAULT_ACTIONS))) for i in indices}


def test_spawn_respects_separation_and_lane_alignment():
    net = single_network("fourway")
    rng = np.random.default_rng(0)
    states = []
    for _ in range(4):
        st = spawn_vehicle(net, states, rng)
        assert st is not None
        states.append(st)
    for a in range(len(states)):
        lay, lane = net.resolve(states[a].goal_ref)
        for b in range(a + 1, len(states)):
            d = euclidean_dist(
                (states[a].pose.x, states[a].pose.y),
                (states[b].pose.x, states[b].pose.y),
            )
            assert d >= MIN_SEPARATION_M
        assert states[a].phase == PHASE_APPROACH
        assert 0.0 <= states[a].speed <= 5.0


def _blanket(net):
    """Three parked vehicles on every entrance lane: no spot clears 10 m."""
    states = []
    for ref, lane in net.entry_lanes():
        for t in (0.15, 0.5, 0.85):
            x = lane.p0[0] + t * (lane.p1[0] - lane.p0[0])
            y = lane.p0[1] + t * (lane.p1[1] - lane.p0[1])
            states.append(VehicleState(Pose2(x, y, lane.heading), 0.0, goal_ref=ref))
    return states


def test_spawn_gives_up_when_everything_is_blocked():
    net = single_network("fourway")
    rng = np.random.default_rng(1)
    assert spawn_vehicle(net, _blanket(net), rng) is None


def _live(states):
    return [(s.pose.x, s.pose.y) for s in states if s is not None]


def _entry(net, pose):
    """(k, t): the index in net.entry_lanes() of the entrance lane whose
    centerline and heading pose sits on, and pose's t along it."""
    for k, (_, lane) in enumerate(net.entry_lanes()):
        dx, dy = lane.p1[0] - lane.p0[0], lane.p1[1] - lane.p0[1]
        ox, oy = pose.x - lane.p0[0], pose.y - lane.p0[1]
        if pose.theta == lane.heading and abs(ox * dy - oy * dx) < 1e-9:
            return k, (ox * dx + oy * dy) / (dx * dx + dy * dy)
    raise AssertionError(f"{pose} is on no entrance lane")


def _entry_t(net, pose):
    return _entry(net, pose)[1]


def _clears(lane, t, live, r):
    """The spawn's test, done as spawn_vehicle does it: the lane point at t
    lies at least r from every live center."""
    x = lane.p0[0] + t * (lane.p1[0] - lane.p0[0])
    y = lane.p0[1] + t * (lane.p1[1] - lane.p0[1])
    return _point_clears(x, y, live, r)


def _point_clears(x, y, live, r):
    return all(not math.hypot(x - px, y - py) < r for px, py in live)


@pytest.mark.parametrize("kind", ["fourway", "city"])
def test_spawn_defers_exactly_when_no_entrance_has_room(kind, monkeypatch):
    """Crowded scenes with an empty slot, and blanketed ones. Where the
    brute-force scan finds no room: None, with no draw. Elsewhere: a
    vehicle on an entrance lane, at t in [0.05, 0.95], that clears every
    live vehicle under the hypot test, from one position draw followed by
    the route's draws and the speed's."""
    net = _network(kind)
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        states = [None]
        monkeypatch.setattr(scene, "MIN_SEPARATION_M", 4.0)
        for _ in range(int(rng.integers(4, 20))):
            states.append(spawn_vehicle(net, states, rng))
        if seed % 8 == 0:
            states = _blanket(net) + [None]
        for min_sep in (MIN_SEPARATION_M, 6.0):
            monkeypatch.setattr(scene, "MIN_SEPARATION_M", min_sep)
            got_rng = np.random.default_rng((seed, 1))
            untouched = got_rng.bit_generator.state
            got = spawn_vehicle(net, states, got_rng)
            if not _check_against_brute_force(net, _live(states), min_sep):
                assert got is None
                assert got_rng.bit_generator.state == untouched
                outcomes.add("no room")
                continue
            k, t = _entry(net, got.pose)
            assert 0.05 <= t <= 0.95
            assert _point_clears(got.pose.x, got.pose.y, _live(states), min_sep)
            replay = np.random.default_rng((seed, 1))
            replay.random()
            name, lane_id = net.entry_lanes()[k][0].split(":")
            assert [got.goal_ref, *got.target_lane_seq] == route_from_entry(net, name, lane_id.split(".")[0], replay)
            assert got.speed == V_MAX * replay.random()
            assert got_rng.bit_generator.state == replay.bit_generator.state
            outcomes.add("placed")
    assert outcomes == {"placed", "no room"}


CHI2_9_P999 = 27.877  # the 0.999 quantile of chi-square with 9 degrees of freedom


def _free_position(free, k, t):
    """Where lane k's point t lies along the free stretches laid end to end."""
    u = 0.0
    for j, t0, t1 in free:
        if j == k and t0 <= t <= t1:
            return u + t - t0
        u += t1 - t0
    raise AssertionError(f"t = {t} of lane {k} is in no free stretch")


@pytest.mark.parametrize("kind, crowd", [("fourway", 8), ("city", 30)])
def test_the_one_draw_has_the_law_of_the_rejection_tries(kind, crowd):
    """On a fixed crowd around the entrance lanes, 2,000 placements of
    spawn_vehicle and 2,000 of the rejection oracle (its deferrals
    dropped), each read as its position along the free stretches laid end
    to end, lane by lane, fall into ten bins of equal free t-length alike:
    a chi-square test of homogeneity must not reject at p = 0.001. Every
    generator is seeded, so the verdict is fixed."""
    net = _network(kind)
    live = _crowd(net, np.random.default_rng(3), crowd, MIN_SEPARATION_M)
    states = [VehicleState(Pose2(x, y, 0.0), 0.0) for x, y in live]
    free = scene._free_intervals(net, live)
    total = sum(t1 - t0 for _, t0, t1 in free)
    assert len({k for k, _, _ in free}) > 2
    counts = np.zeros((2, 10))
    for row, spawn in enumerate((spawn_vehicle, lambda *a: spawn_by_rejection(*a, MIN_SEPARATION_M))):
        rng = np.random.default_rng(row)
        while counts[row].sum() < 2000:
            st = spawn(net, states, rng)
            if st is not None:
                counts[row, min(int(10 * _free_position(free, *_entry(net, st.pose)) / total), 9)] += 1
    expected = counts.sum(axis=0) * counts.sum(axis=1, keepdims=True) / counts.sum()
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_9_P999


def _window_ends(lane, live, r):
    """The ends, in lane t, of each window that a live center blocks: its
    projection plus and minus sqrt(r^2 - a^2), a its offset from the line."""
    (x0, y0), (x1, y1) = lane.p0, lane.p1
    length = math.hypot(x1 - x0, y1 - y0)
    ends = []
    for px, py in live:
        s = ((px - x0) * (x1 - x0) + (py - y0) * (y1 - y0)) / length**2
        a = ((px - x0) * (y1 - y0) - (py - y0) * (x1 - x0)) / length
        if abs(a) < r:
            h = math.sqrt(r * r - a * a) / length
            ends += [s - h, s + h]
    return ends


def _check_against_brute_force(net, live, r):
    """The verdict of _free_intervals, checked by brute force. No room: no
    point of a dense t-grid, nor any window end or a point 1e-7 either side
    of one, clears r. Room: some point of some free stretch clears it.
    Returns whether there was room."""
    free = scene._free_intervals(net, live)
    lanes = [lane for _, lane in net.entry_lanes()]
    if not free:
        grid = np.linspace(0.05, 0.95, 2001).tolist()
        for lane in lanes:
            ends = [e + d for e in _window_ends(lane, live, r) for d in (-1e-7, 0.0, 1e-7)]
            for t in grid + [e for e in ends if 0.05 <= e <= 0.95]:
                assert not _clears(lane, t, live, r), (lane.id, t)
        return False
    for k, t0, t1 in free:
        assert 0.05 <= t0 < t1 <= 0.95
    candidates = [
        (lanes[k], t)
        for k, t0, t1 in free
        for t in np.linspace(t0, t1, 17).tolist() + [e for e in _window_ends(lanes[k], live, r) if t0 <= e <= t1]
    ]
    assert any(_clears(lane, t, live, r) for lane, t in candidates)
    return True


def _crowd(net, rng, n, r):
    """n centers scattered around the entrance lanes: uniform in t over a
    little more than the lane, up to 0.8 r either side of its centerline."""
    out = []
    for _ in range(n):
        _, lane = net.entry_lanes()[rng.integers(len(net.entry_lanes()))]
        (x0, y0), (x1, y1) = lane.p0, lane.p1
        length = math.hypot(x1 - x0, y1 - y0)
        t, off = rng.uniform(-0.2, 1.2), rng.uniform(-0.8 * r, 0.8 * r)
        out.append((x0 + t * (x1 - x0) - off * (y1 - y0) / length, y0 + t * (y1 - y0) + off * (x1 - x0) / length))
    return out


@pytest.mark.parametrize("r", [4.0, 6.0, 10.0])
@pytest.mark.parametrize("kind", ["fourway", "roundabout", "city"])
def test_free_intervals_match_a_brute_force_scan(kind, r, monkeypatch):
    """Random crowds around the entrance lanes, sparse to blanketing, at
    three separations: every verdict of _free_intervals holds up against
    _check_against_brute_force."""
    net = make_city() if kind == "city" else single_network(kind)
    monkeypatch.setattr(scene, "MIN_SEPARATION_M", r)
    lanes = len(net.entry_lanes())
    verdicts = set()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4 * lanes * 30 / r))
        verdicts.add(_check_against_brute_force(net, _crowd(net, rng, n, r), r))
    assert verdicts == {True, False}


def _along_every_entrance(net, distances):
    """A center at each distance (m) from p0 along every entrance lane."""
    out = []
    for _, lane in net.entry_lanes():
        (x0, y0), (x1, y1) = lane.p0, lane.p1
        length = math.hypot(x1 - x0, y1 - y0)
        out += [(x0 + d * (x1 - x0) / length, y0 + d * (y1 - y0) / length) for d in distances]
    return out


@pytest.mark.parametrize(
    "distances, free_t, room",
    [
        ((5.0, 25.0), 0.5, "point"),  # 2R apart: the windows touch at t = 0.5
        ((11.5, 30.0), 0.05, "point"),  # a window opens exactly at the span's start
        ((5.0, 24.999999), None, "none"),  # windows overlap by 1e-6 m
        ((5.0, 25.001), 0.5, "stretch"),  # a 1 mm gap between the windows
    ],
    ids=["touching-2R", "touching-span-start", "overlapping", "1mm-gap"],
)
def test_spawn_at_the_edges_of_the_free_space(distances, free_t, room):
    """Fourway entrance lanes are 30 m long and axis-aligned, so these
    points are exact. A single free point counts as room, but a free set of
    zero length defers; a 1 mm gap gets the vehicle."""
    net = single_network("fourway")
    live = _along_every_entrance(net, distances)
    assert _check_against_brute_force(net, live, MIN_SEPARATION_M) == (room != "none")
    free = scene._free_intervals(net, live)
    lanes = [lane for _, lane in net.entry_lanes()]
    if room != "none":
        assert len(free) == len(lanes)
        assert all(t0 <= free_t <= t1 for _, t0, t1 in free)
        assert all(_clears(lane, free_t, live, MIN_SEPARATION_M) for lane in lanes)
    for seed in range(5):
        got = spawn_vehicle(net, [VehicleState(Pose2(x, y, 0.0), 0.0) for x, y in live], np.random.default_rng(seed))
        if room == "stretch":
            assert got is not None
            assert abs(_entry_t(net, got.pose) - free_t) < 1e-3 / 30
            assert _point_clears(got.pose.x, got.pose.y, live, MIN_SEPARATION_M)
        else:
            assert got is None


def test_the_free_space_draw_is_uniform_over_the_free_stretches():
    """Every spawn comes from the one draw over the free stretches. On
    fourway, the other entrances are blocked, and one center 13.5 m along
    the E entrance leaves it 2 m free at its start and 5 m free at its
    end: 2/7 of the vehicles land in the first stretch."""
    net = single_network("fourway")
    ref, _ = net.entry_lanes()[0]
    assert ref == "I0:E.in"  # from x = 34 to x = 4 along y = 2
    live = _along_every_entrance(net, (5.0, 24.0))[2:] + [(34.0 - 13.5, 2.0)]
    free = scene._free_intervals(net, live)
    assert [k for k, _, _ in free] == [0, 0]
    (_, a0, a1), (_, b0, b1) = free
    assert (a1 - a0) * 30 == pytest.approx(2.0) and (b1 - b0) * 30 == pytest.approx(5.0)
    states = [VehicleState(Pose2(x, y, 0.0), 0.0) for x, y in live]
    rng = np.random.default_rng(5)
    landed = [_entry_t(net, spawn_vehicle(net, states, rng).pose) for _ in range(3000)]
    assert all(a0 <= t <= a1 or b0 <= t <= b1 for t in landed)
    assert sum(t <= a1 for t in landed) / len(landed) == pytest.approx(2 / 7, abs=0.03)


@pytest.mark.parametrize(
    "lo, hi, draw",
    [(0.05, 0.95, lambda rng: 0.05 + (0.95 - 0.05) * rng.random()), (0.0, V_MAX, lambda rng: V_MAX * rng.random())],
    ids=["position", "speed"],
)
def test_spawn_draws_through_random_equal_uniform_bit_for_bit(lo, hi, draw):
    """spawn_vehicle draws its lane position and its speed as draw does,
    through the faster rng.random(); numpy's scalar uniform(lo, hi) must
    give the same double and leave the generator in the same state, or
    seeded outcomes would move."""
    for seed in range(4):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.array([a.uniform(lo, hi) for _ in range(25_000)])
        got = np.array([draw(b) for _ in range(25_000)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert a.bit_generator.state == b.bit_generator.state


def test_routes_stay_legal_at_a_box_intersection():
    net = single_network("fourway")
    rng = np.random.default_rng(7)
    for _ in range(40):
        refs = route_from_entry(net, "I0", "N", rng)
        assert refs, "route must produce at least one target"
        # no U-turn: the exit arm differs from the entrance
        assert refs[-1].endswith(".out")
        assert not refs[-1].endswith("N.out")


def test_draw_levels_distributions():
    rng = np.random.default_rng(3)
    assert draw_levels(5, "l1", rng) == [1] * 5
    assert draw_levels(5, "l2", rng) == [2] * 5
    mixed = draw_levels(400, "mixed", rng)
    assert set(mixed) == {1, 2}
    assert 120 < sum(1 for v in mixed if v == 1) < 280
    with pytest.raises(ValueError):
        draw_levels(3, "l3", rng)


def test_detect_fail_on_overlap_and_boundary():
    net = single_network("fourway")
    lay = net.layouts["I0"]
    a = VehicleState(Pose2(-12.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    b = VehicleState(Pose2(-9.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    assert detect_fail([a, b], [0, 1], net) == {0: True, 1: True}
    # same vehicle alone in the lane center is fine
    assert detect_fail([a, None], [0], net) == {0: False}
    # straddling the road edge trips the boundary check
    off = VehicleState(Pose2(-12.0, -4.2, 0.0), 2.0, goal_ref="I0:E.out")
    assert detect_fail([off], [0], net) == {0: True}


def test_contact_check_tests_a_vehicle_exactly_at_its_reach(monkeypatch):
    # c-zones cannot touch beyond C_LENGTH_M + 1 m between centers; a pair
    # exactly that far apart still gets the rectangle test, once
    net = single_network("fourway")
    reach = C_LENGTH_M + 1.0
    ego = VehicleState(Pose2(0.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    pairs = []
    real = scene.rects_overlap
    monkeypatch.setattr(scene, "rects_overlap", lambda a, b: pairs.append((a, b)) or real(a, b))
    for gap, tested in ((reach, 1), (math.nextafter(reach, math.inf), 0)):
        other = VehicleState(Pose2(gap, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
        pairs.clear()
        assert detect_fail([ego, other], [0, 1], net) == {0: False, 1: False}
        assert len(pairs) == tested


def test_sim_step_resets_beliefs_exactly_for_the_slots_it_spawns():
    """reset_belief goes to each empty slot whose spawn lands at the tick
    start, the slots of vehicles that ended in the tick before among
    them, in slot order, and to no other slot. A vehicle that ends empties
    its slot and gets none."""

    class Recorder(AVController):
        def __init__(self):
            self.resets = []

        def reset_belief(self, i):
            self.resets.append(i)

    cfg = SceneConfig(network=single_network("fourway"), n_vehicles=10, t_limit_s=60 * DT_S)
    ep = init_episode(cfg, seed=(4, 0), collect_log=True)
    av = Recorder()
    seen = {"landed": 0, "deferred": 0, "ended": 0}
    while not ep.done:
        empty = [i for i, s in enumerate(ep.states) if s is None]
        start = len(ep.log)
        av.resets.clear()
        sim_step(ep, cfg, JitterTraffic(ep.tick), av)
        recs = [json.loads(line) for line in ep.log[start:]]
        landed = [r["id"] for r in recs if r["status"] == "active" and r["id"] in empty]
        ended = [r["id"] for r in recs if r["status"] != "active"]
        assert av.resets == landed
        assert all(ep.states[i] is None for i in ended)
        seen["landed"] += len(landed)
        seen["deferred"] += len(empty) - len(landed)
        seen["ended"] += len(ended)
    assert min(seen.values()) > 0, seen


def test_sim_step_stops_filling_empty_slots_at_the_first_deferral(monkeypatch):
    """Parked vehicles blanket every fourway entrance, and three slots are
    empty: the first spawn defers for want of room, so the other two are
    not tried, and no draw is made."""
    net = single_network("fourway")
    parked = _blanket(net)
    states = parked + [None, None, None]
    ep = scene.EpisodeState(states, [1] * len(states), ["l1"] * len(states), np.random.default_rng(0), False)
    untouched = ep.rng.bit_generator.state
    calls = []
    monkeypatch.setattr(scene, "spawn_vehicle", lambda *args: calls.append(args) or spawn_vehicle(*args))
    sim_step(ep, SceneConfig(network=net, n_vehicles=len(states)), HoldTraffic())
    assert len(calls) == 1
    assert ep.states[len(parked):] == [None, None, None]
    assert ep.rng.bit_generator.state == untouched


def _last_gap_scene(net):
    """Every fourway entrance but E is blanketed. On E (x from 34 to 4
    along y = 2), two vehicles are parked 21 m apart, and between them,
    in the last slot, a third straddles the road edge at y = 4.2: it
    fails on the first tick, and its own body blocks the only gap, at
    x in [18.5, 19.5]. Nobody moves."""
    ref, _ = net.entry_lanes()[0]
    assert ref == "I0:E.in"
    parked = [s for s in _blanket(net) if s.goal_ref != ref]
    parked += [VehicleState(Pose2(x, 2.0, math.pi), 0.0, goal_ref=ref) for x in (29.5, 8.5)]
    return parked + [VehicleState(Pose2(19.0, 4.2, math.pi), 0.0, goal_ref=ref)]


def _in_the_gap(st):
    return st is not None and 18.5 <= st.pose.x <= 19.5 and st.pose.y == 2.0


def test_an_ended_vehicle_does_not_block_its_own_respawn(monkeypatch):
    """The ended vehicle's slot empties at the tick's end and fills at
    the next tick start, in the gap that vehicle blocked, with no spawn
    deferred on the way. The training loop fills it in the same call
    that ends it."""
    net = single_network("fourway")
    states = _last_gap_scene(net)
    last = len(states) - 1
    assert not scene._free_intervals(net, _live(states))
    assert len(scene._free_intervals(net, _live(states[:last]))) == 1
    ep = scene.EpisodeState(list(states), [1] * len(states), ["l1"] * len(states), np.random.default_rng(0), True)
    spawned = []
    monkeypatch.setattr(scene, "spawn_vehicle", lambda *args: spawned.append(spawn_vehicle(*args)) or spawned[-1])
    cfg = SceneConfig(network=net, n_vehicles=len(states))
    sim_step(ep, cfg, HoldTraffic())
    assert [json.loads(r)["id"] for r in ep.log if '"status":"failed"' in r] == [last]
    assert ep.states[last] is None and spawned == []
    traffic = JitterTraffic(0)
    sim_step(ep, cfg, traffic)
    assert len(spawned) == 1 and spawned[0] is ep.states[last]
    assert _in_the_gap(traffic.seen[0][last])
    imitation._respawn_terminal(states, net, np.random.default_rng(0))
    assert _in_the_gap(states[last])


@pytest.mark.parametrize("kind", ["fourway", "city"])
def test_sim_step_and_the_training_loop_fill_the_same_slots(kind, monkeypatch):
    """From a tick's post-move snapshot and the generator as the tick left
    it, imitation._respawn_terminal ends the same vehicles as sim_step and
    fills the same slots with the same vehicles as the next tick start, and
    leaves the generator in the same state."""
    snapshots = []
    fail = scene.detect_fail

    def spying_fail(states, indices, network):
        snapshots.append([s.copy() if s is not None else None for s in states])
        return fail(states, indices, network)

    monkeypatch.setattr(scene, "detect_fail", spying_fail)
    net = _network(kind)
    cfg = SceneConfig(network=net, n_vehicles=8 if kind == "fourway" else 20, t_limit_s=30 * DT_S)
    refilled = 0
    for seed in range(3):
        ep = init_episode(cfg, seed=(seed, 6), collect_log=False)
        traffic = JitterTraffic(seed)
        sim_step(ep, cfg, traffic)
        while not ep.done:
            post, rng = snapshots[-1], copy.deepcopy(ep.rng)
            ended = [i for i, (a, b) in enumerate(zip(post, ep.states)) if a is not None and b is None]
            sim_step(ep, cfg, traffic)
            imitation._respawn_terminal(post, net, rng)
            assert post == traffic.seen[-1]
            assert rng.bit_generator.state == ep.rng.bit_generator.state
            refilled += sum(post[i] is not None for i in ended)
    assert refilled > 0


def _network(kind):
    return make_city() if kind == "city" else single_network(kind)


def _random_lane_ref(net, rng, name):
    lanes = list(net.layouts[name].lanes)
    return f"{name}:{lanes[rng.integers(len(lanes))]}"


def _random_edge_states(net, rng, n):
    """Vehicles at random poses on and beside the roads, with random goal
    lanes. With connectors, every third one sits in or beside a shared
    connector, within 10 m of its mid-port, with its goal in the far
    layout."""
    states = []
    for k in range(n):
        if net.connectors and k % 3 == 0:
            a, arm_id, b, _ = net.connectors[rng.integers(len(net.connectors))]
            lay = net.layouts[a]
            arm = lay.arms[arm_id]
            lw = LANE_WIDTH_M
            u = rng.uniform(arm.u_end - 10.0, arm.u_end + 10.0)
            w = rng.uniform(-1.5 * lw, 1.5 * lw)
            (ux, uy), (wx, wy) = arm.unit_u, arm.unit_w
            x = lay.center[0] + u * ux + w * wx
            y = lay.center[1] + u * uy + w * wy
            goal = _random_lane_ref(net, rng, b)
        else:
            lay = net.layouts[net.names[rng.integers(len(net.names))]]
            x, y = np.asarray(lay.center) + rng.uniform(-40.0, 40.0, 2)
            goal = _random_lane_ref(net, rng, net.names[rng.integers(len(net.names))])
        pose = Pose2(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))
        states.append(VehicleState(pose, 2.0, goal_ref=goal))
    return states


def _edge_oracle(st, net):
    """Scalar road-edge check of one vehicle against every layout of the
    network, one segment at a time."""
    cz = c_zone(st.pose)
    for lay in net.layouts.values():
        for seg in np.vstack([lay.boundary_segments(), lay.marking_segments()]):
            if segment_intersects_rect(seg[:2], seg[2:], cz):
                return True
    return False


def _fail_oracle(states, indices, net):
    """Scalar fail check: each vehicle against every other with
    rects_overlap, then against the road edges with _edge_oracle."""
    out = {}
    for i in indices:
        cz = c_zone(states[i].pose)
        contact = any(rects_overlap(cz, c_zone(states[j].pose)) for j in indices if j != i)
        out[i] = contact or _edge_oracle(states[i], net)
    return out


def _apart(states):
    """states with every vehicle that touches an earlier kept one
    removed, so that no two c-zones touch."""
    kept = []
    for i, st in enumerate(states):
        if st is None:
            continue
        if any(rects_overlap(c_zone(st.pose), c_zone(states[j].pose)) for j in kept):
            states[i] = None
        else:
            kept.append(i)
    return states


def _cluster_states(net, rng, n_clusters, size):
    """Dense clusters: size vehicles at random headings within 8 m of
    each of n_clusters points near the layout centers."""
    states = []
    for _ in range(n_clusters):
        lay = net.layouts[net.names[rng.integers(len(net.names))]]
        cx, cy = np.asarray(lay.center) + rng.uniform(-30.0, 30.0, 2)
        for _ in range(size):
            x, y = cx + rng.uniform(-8.0, 8.0), cy + rng.uniform(-8.0, 8.0)
            pose = Pose2(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))
            states.append(VehicleState(pose, 2.0, goal_ref=_random_lane_ref(net, rng, lay.name)))
    return states


@pytest.mark.parametrize("kind", ["city", "fourway", "roundabout", "tshape"])
def test_batched_road_edge_hits_match_scalar_oracle(kind):
    """The road-edge part of detect_fail, on vehicles that do not touch."""
    net = _network(kind)
    rng = np.random.default_rng(31)
    states = _random_edge_states(net, rng, 120)
    states[5] = None
    states = _apart(states)
    active = [i for i, st in enumerate(states) if st is not None]
    hits = detect_fail(states, active, net)
    expected = {i: _edge_oracle(states[i], net) for i in active}
    assert hits == expected
    assert 10 < sum(expected.values()) < len(active) - 10
    for i in active:
        assert hits[i] == detect_fail(states, [i], net)[i]


@pytest.mark.parametrize("kind", ["city", "fourway"])
@pytest.mark.parametrize("layout", ["corridor", "clusters"])
def test_detect_fail_matches_the_scalar_pair_loop(kind, layout):
    """One pairwise pass equals testing each vehicle against every other,
    on the corridor states above and on dense clusters, both with
    contacts; every contact fails both partners."""
    net = _network(kind)
    rng = np.random.default_rng(31)
    if layout == "corridor":
        states = _random_edge_states(net, rng, 120)
    else:
        states = _cluster_states(net, rng, 6, 8)
    states[5] = None
    active = [i for i, st in enumerate(states) if st is not None]
    expected = _fail_oracle(states, active, net)
    assert detect_fail(states, active, net) == expected
    contact_only = [i for i in active if expected[i] and not _edge_oracle(states[i], net)]
    assert len(contact_only) >= 2 and not all(expected.values())


def test_road_edge_hits_check_the_goal_layout_past_a_port():
    # make_city: F's north arm ends at y = 34, where R's south arm begins,
    # and F stays the nearest center up to y = 38. The vehicle straddles
    # R's road edge at x = 4, which counts whatever its goal.
    net = make_city()
    st = VehicleState(Pose2(4.5, 37.0, math.pi / 2), 2.0, goal_ref="R:S.in")
    assert detect_fail([st], [0], net) == {0: True}
    st.goal_ref = "F:N.out"
    assert detect_fail([st], [0], net) == {0: True}


@pytest.mark.parametrize("y", [-3.5, 0.0])
def test_road_edge_hits_count_every_layouts_edges_on_a_connector(y):
    """make_city: F's east arm and T1's west arm meet at x = 34 as one
    connector. At x = 15, on F's half, heading east with its goal in T1,
    a vehicle off its lane straddles F's road edge (y = -3.5) or centre
    marking (y = 0.0) and fails; in its lane (y = -2.0) it does not."""
    net = make_city()
    st = VehicleState(Pose2(15.0, y, 0.0), 2.0, goal_ref="T1:W.in")
    assert detect_fail([st], [0], net) == {0: True}
    st.pose = Pose2(15.0, -2.0, 0.0)
    assert detect_fail([st], [0], net) == {0: False}


@pytest.mark.parametrize("kind", ["fourway", "city"])
def test_sim_step_checks_road_edges_once_per_tick(monkeypatch, kind):
    """One detect_fail call per sim_step, over every active slot, and one
    kernel call in it, with one row per active vehicle over the network's
    whole edge table."""
    kernel_shapes = []
    kernel = scene.segments_hit_rects

    def counting_kernel(segs, cx, cy, theta, length, width):
        kernel_shapes.append((len(cx), len(segs)))
        return kernel(segs, cx, cy, theta, length, width)

    fail_calls = []
    fail = scene.detect_fail

    def spying_fail(states, indices, network):
        fail_calls.append((list(indices), [i for i, st in enumerate(states) if st is not None]))
        return fail(states, indices, network)

    monkeypatch.setattr(scene, "segments_hit_rects", counting_kernel)
    monkeypatch.setattr(scene, "detect_fail", spying_fail)
    net = _network(kind)
    n_segs = len(net.edge_segments())
    cfg = SceneConfig(network=net, n_vehicles=12, t_limit_s=40 * DT_S)
    ep = init_episode(cfg, seed=(8, 0), collect_log=True)
    while not ep.done:
        kernel_shapes.clear()
        fail_calls.clear()
        sim_step(ep, cfg, HoldTraffic())
        assert len(fail_calls) == 1
        indices, active = fail_calls[0]
        assert indices == active and active
        assert kernel_shapes == [(len(active), n_segs)]
    assert ep.tick == 40
    # vehicles failed, and their slots respawned inside the vehicle loop
    assert any('"status":"failed"' in line for line in ep.log)


def _contact_pair():
    """Two vehicles 3 m apart in the fourway's W.in lane, heading east and
    coasting: their c-zones overlap after any tick, and neither touches a
    road edge or has finished its route."""
    return [
        VehicleState(Pose2(x, -2.0, 0.0), 2.0, goal_ref="I0:W.in", target_lane_seq=["I0:E.out"])
        for x in (-20.0, -17.0)
    ]


def test_sim_step_fails_both_partners_of_a_contact():
    cfg = SceneConfig(network=single_network("fourway"), n_vehicles=2, av_policy="scripted", t_limit_s=10.0)
    ep = init_episode(cfg, seed=(2, 0), collect_log=True)
    av_state = VehicleState(Pose2(2.0, -25.0, math.pi / 2), 2.0, goal_ref="I0:S.in", target_lane_seq=["I0:N.out"])
    ep.states = [av_state, *_contact_pair()]
    wrecks = list(ep.states[1:])
    sim_step(ep, cfg, HoldTraffic(), ScriptedAV())
    ended = {r["id"]: r["status"] for r in map(json.loads, ep.log) if r["status"] != "active"}
    assert ended == {1: "failed", 2: "failed"}
    assert not ep.done and ep.states[0] is av_state
    assert all(new is not old for new, old in zip(ep.states[1:], wrecks))


def test_a_fresh_vehicle_starts_with_no_belief():
    """The AV observes the tick's actions before the ended vehicle leaves
    its slot, and the vehicle that takes the slot over at the next tick
    start inherits no belief from it."""

    class DecideSpy(AdaptiveController):
        def decide(self, states, i, network, plans):
            believed.append(1 in self.beliefs)
            return super().decide(states, i, network, plans)

    def stub(states, indices, levels, network, plans):
        # level 1 coasts and level 2 accelerates: coasting moves a belief
        return np.array([0 if k == 1 else 1 for k in levels])

    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=2, av_policy="adaptive", t_limit_s=10.0)
    ep = init_episode(cfg, seed=(2, 0), collect_log=True)
    ep.states = [
        VehicleState(Pose2(-20.0, -2.0, 0.0), 2.0, goal_ref="I0:W.in", target_lane_seq=["I0:E.out"]),
        # 8 m ahead of the AV, straddling the road edge: it fails this tick
        VehicleState(Pose2(-12.0, -4.2, 0.0), 2.0, goal_ref="I0:W.in", target_lane_seq=["I0:E.out"]),
        VehicleState(Pose2(-2.0, 15.0, -math.pi / 2), 2.0, goal_ref="I0:N.in", target_lane_seq=["I0:S.out"]),
    ]
    ended = ep.states[1]
    believed = []
    av = DecideSpy(predictor=stub)
    sim_step(ep, cfg, HoldTraffic(), av)
    assert [json.loads(r)["id"] for r in ep.log if '"status":"failed"' in r] == [1]
    assert ep.states[1] is None and 1 in av.beliefs
    # the observation did move the belief of the vehicle that stayed
    assert not np.array_equal(av.beliefs[2], [0.5, 0.5])
    believed.clear()
    sim_step(ep, cfg, HoldTraffic(), av)
    assert ep.states[1] is not None and ep.states[1] is not ended
    assert believed == [False]


def test_detect_success_requires_exhausted_route_and_exit_lane():
    net = single_network("fourway")
    inside = VehicleState(Pose2(20.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    assert detect_success(inside, net)
    pending = VehicleState(
        Pose2(20.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out", target_lane_seq=["I0:N.out"]
    )
    assert not detect_success(pending, net)
    entering = VehicleState(Pose2(-20.0, 2.0, math.pi), 2.0, goal_ref="I0:W.in")
    assert not detect_success(entering, net)


def test_init_episode_av_rides_slot_zero():
    net = single_network("tshape")
    cfg = SceneConfig(network=net, n_vehicles=3, av_policy="adaptive")
    ep = init_episode(cfg, seed=(5, 0), collect_log=True)
    assert ep.av_index == 0
    assert len(ep.states) == 4
    assert ep.levels[0] == 0
    assert set(ep.levels[1:]) <= {1, 2}
    assert ep.tags[0] == "adaptive"


def test_init_episode_is_seed_deterministic():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=3)
    a = init_episode(cfg, seed=(9, 1), collect_log=True)
    b = init_episode(cfg, seed=(9, 1), collect_log=True)
    for sa, sb in zip(a.states, b.states):
        assert (sa.pose.x, sa.pose.y, sa.pose.theta, sa.speed) == (
            sb.pose.x,
            sb.pose.y,
            sb.pose.theta,
            sb.speed,
        )
    assert a.levels == b.levels


def test_sim_step_is_synchronous():
    # all vehicles must advance from the same joint state: a traffic policy
    # that reads positions sees pre-step coordinates for every index
    net = single_network("fourway")
    seen = {}

    class Recorder(TrafficPolicy):
        def select(self, states, levels, indices, network, plans):
            for i in indices:
                seen[i] = (states[i].pose.x, states[i].pose.y)
            return {i: 1 for i in indices}

    cfg = SceneConfig(network=net, n_vehicles=2)
    ep = init_episode(cfg, seed=(2, 0), collect_log=True)
    before = [(s.pose.x, s.pose.y) for s in ep.states]
    sim_step(ep, cfg, Recorder())
    assert [seen[i] for i in range(2)] == before


def _run_out(ep, cfg, av):
    """Steps a prepared episode under HoldTraffic until it ends."""
    while not ep.done:
        sim_step(ep, cfg, HoldTraffic(), av)


def test_episode_time_cap_classifies_deadlock():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=2.0)
    av = ScriptedAV(action=0)
    ep = init_episode(cfg, seed=(3, 0), collect_log=True)
    ep.states[0].speed = 0.0  # a parked AV can neither succeed nor collide
    _run_out(ep, cfg, av)
    assert ep.outcome == KIND_DEADLOCK
    assert ep.tick * DT_S == pytest.approx(2.0)
    assert av.observed == ep.tick


def test_av_boundary_strike_ends_episode_as_collision():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=30.0)
    ep = init_episode(cfg, seed=(4, 0), collect_log=True)
    # aim the AV at the outer boundary
    ep.states[0] = VehicleState(Pose2(-12.0, -2.0, -math.pi / 2), 4.0, goal_ref="I0:E.out")
    _run_out(ep, cfg, ScriptedAV())
    assert ep.outcome == KIND_COLLISION
    assert ep.tick * DT_S < 5.0


def test_av_reaching_exit_lane_is_success():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=60.0)
    ep = init_episode(cfg, seed=(6, 0), collect_log=True)
    ep.states[0] = VehicleState(Pose2(8.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    _run_out(ep, cfg, ScriptedAV())
    assert ep.outcome == KIND_SUCCESS
    assert ep.av_speed_sum > 0.0


def test_background_respawn_keeps_drawn_level():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=2, av_policy=None, t_limit_s=10.0)
    ep = init_episode(cfg, seed=(8, 0), collect_log=True)
    levels_before = list(ep.levels)
    # force vehicle 1 into a crash with a planted obstacle at its nose
    ep.states[0] = VehicleState(Pose2(-12.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    ep.states[1] = VehicleState(Pose2(-9.5, -2.0, 0.0), 0.0, goal_ref="I0:E.out")
    sim_step(ep, cfg, HoldTraffic())
    assert ep.levels == levels_before
    assert not ep.done  # background failures never end the episode


def test_log_records_parse_and_carry_policy_tags():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=2, av_policy="rule-based", t_limit_s=1.0)
    ep = init_episode(cfg, seed=(11, 0), collect_log=True)
    _run_out(ep, cfg, ScriptedAV())
    assert ep.log, "expected log lines"
    for line in ep.log:
        rec = json.loads(line)
        assert set(rec) == {"tick", "id", "x", "y", "v", "theta", "action", "policy", "status"}
    tags = {json.loads(line)["policy"] for line in ep.log}
    assert "rule-based" in tags
    assert tags - {"rule-based"} <= {"l1", "l2"}


def test_expert_traffic_drives_toward_goals():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=1, av_policy=None, t_limit_s=8.0)
    ep = init_episode(cfg, seed=(13, 2), collect_log=True)
    start_goal_d = euclidean_dist(
        (ep.states[0].pose.x, ep.states[0].pose.y),
        net.resolve(ep.states[0].goal_ref)[1].p1,
    )
    for _ in range(16):
        sim_step(ep, cfg, ExpertTraffic())
        if ep.states[0] is None:
            break
    if ep.states[0] is not None:
        end_goal_d = euclidean_dist(
            (ep.states[0].pose.x, ep.states[0].pose.y),
            net.resolve(ep.states[0].goal_ref)[1].p1,
        )
        assert end_goal_d < start_goal_d


# ---------------------------------------------------------------------------
# the tick's shared plan cache


class PrivateTableTraffic(ExpertTraffic):
    """Expert traffic that searches into a fresh cache on every call."""

    def select(self, states, levels, indices, network, plans):
        return super().select(states, levels, indices, network, PlanCache())


class PrivateTableAV(AdaptiveController):
    """Adaptive AV whose decide and observe each search into a fresh cache."""

    def decide(self, states, i, network, plans):
        return super().decide(states, i, network, PlanCache())

    def observe(self, prev_states, actions, network, plans):
        super().observe(prev_states, actions, network, PlanCache())


def _adaptive_expert_scene(ticks=15):
    net = single_network("fourway")
    return SceneConfig(network=net, n_vehicles=3, av_policy="adaptive", t_limit_s=ticks * DT_S)


def test_shared_plan_table_matches_private_tables():
    cfg = _adaptive_expert_scene()
    shared_av, private_av = AdaptiveController(), PrivateTableAV()
    shared = run_episode(cfg, ExpertTraffic(), shared_av, seed=(1, 0), collect_log=True)
    private = run_episode(cfg, PrivateTableTraffic(), private_av, seed=(1, 0), collect_log=True)
    assert shared[0].duration_s == 15 * DT_S
    assert shared == private
    assert shared_av.beliefs.keys() == private_av.beliefs.keys()
    for j, p in shared_av.beliefs.items():
        assert np.array_equal(p, private_av.beliefs[j])
    # the observations moved some belief, so observe really planned
    assert any(not np.array_equal(p, [0.5, 0.5]) for p in shared_av.beliefs.values())


def test_each_tick_searches_each_plan_once(monkeypatch):
    """select, decide and observe of one tick get one PlanCache, and each
    tick a new one; it holds every plan searched in the tick, once."""
    calls = []
    search = planner._best_response

    def counting(*args):
        calls[-1] += 1
        return search(*args)

    seen = []  # per tick: the cache each phase got

    class CacheSpy(ExpertTraffic):
        def select(self, states, levels, indices, network, plans):
            seen.append([plans])
            return super().select(states, levels, indices, network, plans)

    class CacheSpyAV(AdaptiveController):
        def decide(self, states, i, network, plans):
            seen[-1].append(plans)
            return super().decide(states, i, network, plans)

        def observe(self, prev_states, actions, network, plans):
            seen[-1].append(plans)
            super().observe(prev_states, actions, network, plans)

    monkeypatch.setattr(planner, "_best_response", counting)
    cfg = _adaptive_expert_scene()
    ep = init_episode(cfg, seed=(1, 0), collect_log=True)
    av = CacheSpyAV()
    while not ep.done:
        calls.append(0)
        sim_step(ep, cfg, CacheSpy(), av)
    assert len(calls) == len(seen) == 15
    assert all(len(phases) == 3 and all(c is phases[0] for c in phases) for phases in seen)
    assert len({id(phases[0]) for phases in seen}) == 15
    for n, (plans, _, _) in zip(calls, seen):
        assert isinstance(plans, PlanCache)
        # every (slot, level) plan once, plus the AV's own best response
        assert n <= len(plans) + 1


def test_each_tick_builds_one_ego_tree_per_distinct_ego_input(monkeypatch):
    """features_many runs once per distinct ego input per tick, however many
    searches read that tree. Two episodes run in lockstep from one seed, so
    each tick of the second repeats the inputs of the first: it must build
    its trees again rather than find them from an earlier tick."""
    egos, searches, trees = [], [], []
    search, features = planner._best_response, planner.features_many

    def counting(*args):
        ego = args[0]
        p = ego.pose
        egos[-1].add((p.x, p.y, p.theta, ego.speed, ego.phase, ego.goal_ref))
        searches[-1] += 1
        return search(*args)

    def counting_features(*args):
        trees[-1] += 1
        return features(*args)

    monkeypatch.setattr(planner, "_best_response", counting)
    monkeypatch.setattr(planner, "features_many", counting_features)
    cfg = _adaptive_expert_scene()
    runs = [(init_episode(cfg, seed=(1, 0), collect_log=True), AdaptiveController()) for _ in range(2)]
    while not runs[0][0].done:
        for ep, av in runs:
            egos.append(set())
            searches.append(0)
            trees.append(0)
            sim_step(ep, cfg, ExpertTraffic(), av)
    assert runs[1][0].done and len(trees) == 30
    assert trees == [len(e) for e in egos]
    assert all(trees) and sum(searches) > sum(trees)


# ---------------------------------------------------------------------------
# metamorphic: a permutation of the slots permutes the plans and the flags


def _expert_snapshots(net, n_vehicles, ticks, seed, monkeypatch):
    """Copies of the joint state of an expert-traffic episode before the
    move of each tick in ticks, and the post-move snapshot and indices of
    each detect_fail call of its first max(ticks) + 1 ticks."""
    checked = []
    real = scene.detect_fail

    def spy(states, indices, network):
        checked.append(([s.copy() if s is not None else None for s in states], list(indices)))
        return real(states, indices, network)

    cfg = SceneConfig(network=net, n_vehicles=n_vehicles, traffic_model="mixed", t_limit_s=60.0)
    ep = init_episode(cfg, seed=seed, collect_log=False)
    before = []
    with monkeypatch.context() as mp:
        mp.setattr(scene, "detect_fail", spy)
        for t in range(max(ticks) + 1):
            if t in ticks:
                before.append([s.copy() if s is not None else None for s in ep.states])
            sim_step(ep, cfg, ExpertTraffic())
    return before, checked


@pytest.mark.parametrize("kind, n_vehicles", [("fourway", 4), ("city", 8)])
def test_reversing_the_slots_permutes_plans_and_fail_flags(kind, n_vehicles, monkeypatch):
    """Reversing the slot order of recorded expert snapshots moves every
    level-0, 1 and 2 plan, and every fail flag, with its vehicle: the
    opponents a search keeps, and the certificate that may end it early,
    see the same poses in another order."""
    net = _network(kind)
    before, checked = _expert_snapshots(net, n_vehicles, (4, 12, 20, 28), (5, 0), monkeypatch)
    contested = 0
    for states in before:
        n = len(states)
        rev = states[::-1]
        live = [i for i, s in enumerate(states) if s is not None]
        fwd_cache, rev_cache = PlanCache(), PlanCache()
        for i, k in itertools.product(live, (0, 1, 2)):
            want = planner.expert_policy(states, i, k, net, fwd_cache)
            got = planner.expert_policy(rev, n - 1 - i, k, net, rev_cache)
            assert got.action_sequence[0] == want.action_sequence[0]
            assert got.action_sequence == want.action_sequence and got.value.hex() == want.value.hex()
            contested += bool(planner.near_indices(states, i, planner.INTERACTION_RADIUS_M))
    failed = 0
    for states, indices in checked:
        n = len(states)
        flags = detect_fail(states, indices, net)
        assert detect_fail(states[::-1], [n - 1 - i for i in indices], net) == {n - 1 - i: f for i, f in flags.items()}
        failed += sum(flags.values())
    # some searches had opponents to order, and some vehicle failed
    assert contested and failed
