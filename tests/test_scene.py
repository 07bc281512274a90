"""Spawning, lifecycle predicates, and the synchronous episode loop."""

import json
import math

import numpy as np
import pytest
from spawn_oracle import spawn_by_rejection

from intersim import planner, scene
from intersim.controllers import AdaptiveController
from intersim.dynamics import DEFAULT_ACTIONS, DT_S, PHASE_APPROACH, Pose2, VehicleState
from intersim.geometry import euclidean_dist, make_city, segment_intersects_rect, single_network
from intersim.planner import PlanCache
from intersim.reward import DEFAULT_ZONES
from intersim.scene import (
    AVController,
    ExpertTraffic,
    MIN_SEPARATION_M,
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_SUCCESS,
    SceneConfig,
    TrafficPolicy,
    context_layout,
    detect_fail,
    detect_success,
    draw_levels,
    init_episode,
    road_edge_hits,
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


@pytest.mark.parametrize("kind", ["fourway", "city"])
def test_spawn_matches_the_rejection_oracle(kind):
    """Crowded scenes with empty slots, and blanketed ones where every try
    defers: the same vehicle or None, and the generator left in the same
    state."""
    net = make_city() if kind == "city" else single_network(kind)
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        states = [None]
        for _ in range(int(rng.integers(4, 20))):
            states.append(spawn_vehicle(net, states, rng, 4.0))
        if seed % 8 == 0:
            states = _blanket(net) + [None]
        for min_sep in (MIN_SEPARATION_M, 6.0):
            got_rng, want_rng = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
            got = spawn_vehicle(net, states, got_rng, min_sep)
            want = spawn_by_rejection(net, states, want_rng, min_sep)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            outcomes.add(got is None)
    assert outcomes == {True, False}


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
    assert detect_fail([a, b], 0, net)
    assert detect_fail([a, b], 1, net)
    # same vehicle alone in the lane center is fine
    assert not detect_fail([a, None], 0, net)
    # straddling the road edge trips the boundary check
    off = VehicleState(Pose2(-12.0, -4.2, 0.0), 2.0, goal_ref="I0:E.out")
    assert detect_fail([off], 0, net)


def test_contact_check_tests_a_vehicle_exactly_at_its_reach(monkeypatch):
    # c-zones cannot touch beyond c_length + 1 m between centers; a vehicle
    # exactly that far away still gets the rectangle test
    net = single_network("fourway")
    reach = DEFAULT_ZONES.c_length + 1.0
    ego = VehicleState(Pose2(0.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    pairs = []
    real = scene.rects_overlap
    monkeypatch.setattr(scene, "rects_overlap", lambda a, b: pairs.append((a, b)) or real(a, b))
    for gap, tested in ((reach, 1), (math.nextafter(reach, math.inf), 0)):
        other = VehicleState(Pose2(gap, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
        pairs.clear()
        assert not detect_fail([ego, other], 0, net, edge_hits={0: False})
        assert len(pairs) == tested


def test_sim_step_resets_beliefs_exactly_for_the_slots_it_spawns():
    """reset_belief goes to each empty slot whose spawn lands (deferred
    spawns) and to each background slot whose vehicle ended, in that
    order, and to no other slot."""

    class Recorder(AVController):
        def __init__(self):
            self.resets = []

        def reset_belief(self, i):
            self.resets.append(i)

    class Jitter(TrafficPolicy):
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def select(self, states, levels, indices, network, plans):
            return {i: int(self.rng.integers(len(DEFAULT_ACTIONS))) for i in indices}

    cfg = SceneConfig(network=single_network("fourway"), n_vehicles=10, t_limit_s=60 * DT_S)
    ep = init_episode(cfg, seed=(4, 0), collect_log=True)
    av = Recorder()
    seen = {"landed": 0, "deferred": 0, "ended": 0}
    while not ep.done:
        empty = [i for i, s in enumerate(ep.states) if s is None]
        start = len(ep.log)
        av.resets.clear()
        sim_step(ep, cfg, Jitter(ep.tick), av)
        recs = [json.loads(line) for line in ep.log[start:]]
        landed = [r["id"] for r in recs if r["status"] == "active" and r["id"] in empty]
        ended = [r["id"] for r in recs if r["status"] != "active"]
        assert av.resets == landed + ended
        seen["landed"] += len(landed)
        seen["deferred"] += len(empty) - len(landed)
        seen["ended"] += len(ended)
    assert min(seen.values()) > 0, seen


def _network(kind):
    return make_city() if kind == "city" else single_network(kind)


def _random_lane_ref(net, rng, name):
    lanes = list(net.layouts[name].lanes)
    return f"{name}:{lanes[rng.integers(len(lanes))]}"


def _random_edge_states(net, rng, n):
    """Vehicles at random poses on and beside the roads, with random goal
    lanes. With connectors, every third one sits in or beside a shared
    connector, within 10 m of its mid-port, with its goal in the far
    layout; returns the slots on the road with the layout they must be
    assigned to."""
    states, handoffs = [], {}
    for k in range(n):
        if net.connectors and k % 3 == 0:
            a, arm_id, b, _ = net.connectors[rng.integers(len(net.connectors))]
            lay = net.layouts[a]
            arm = lay.arms[arm_id]
            lw = lay.params["lane_width"]
            u = rng.uniform(arm.u_end - 10.0, arm.u_end + 10.0)
            w = rng.uniform(-1.5 * lw, 1.5 * lw)
            (ux, uy), (wx, wy) = arm.unit_u(), arm.unit_w()
            x = lay.center[0] + u * ux + w * wx
            y = lay.center[1] + u * uy + w * wy
            goal = _random_lane_ref(net, rng, b)
            if abs(w) <= lw:
                handoffs[k] = b
        else:
            lay = net.layouts[net.names[rng.integers(len(net.names))]]
            x, y = np.asarray(lay.center) + rng.uniform(-40.0, 40.0, 2)
            goal = _random_lane_ref(net, rng, net.names[rng.integers(len(net.names))])
        pose = Pose2(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))
        states.append(VehicleState(pose, 2.0, goal_ref=goal))
    return states, handoffs


def _edge_oracle(st, net):
    """Scalar road-edge check of one vehicle against its context and goal
    layouts, one segment at a time."""
    cz = DEFAULT_ZONES.c_zone(st.pose)
    for name in {context_layout(st, net), st.goal_ref.split(":")[0]}:
        lay = net.layouts[name]
        for seg in np.vstack([lay.boundary_segments(), lay.marking_segments()]):
            if segment_intersects_rect(seg[:2], seg[2:], cz):
                return True
    return False


@pytest.mark.parametrize("kind", ["city", "fourway", "roundabout", "tshape"])
def test_batched_road_edge_hits_match_scalar_oracle(kind):
    net = _network(kind)
    rng = np.random.default_rng(31)
    states, handoffs = _random_edge_states(net, rng, 120)
    states[5] = None
    active = [i for i, st in enumerate(states) if st is not None]
    hits = road_edge_hits(states, active, net)
    expected = {i: _edge_oracle(states[i], net) for i in active}
    assert hits == expected
    assert 10 < sum(expected.values()) < len(active) - 10
    for i in active:
        assert detect_fail(states, i, net) == detect_fail(states, i, net, edge_hits=hits)
    if kind == "city":
        moved = [i for i, b in handoffs.items() if states[i] is not None]
        assert all(context_layout(states[i], net) == handoffs[i] for i in moved)
        off_nearest = [i for i in moved if net.nearest_layout(states[i].pose.x, states[i].pose.y) != handoffs[i]]
        assert len(off_nearest) >= 5


def test_road_edge_hits_check_the_goal_layout_past_a_port():
    # make_city: F's north arm ends at y = 34, where R's south arm begins,
    # and F stays the nearest center up to y = 38. Off the lane the vehicle
    # keeps F as its context, but it straddles R's road edge at x = 4.
    net = make_city()
    st = VehicleState(Pose2(4.5, 37.0, math.pi / 2), 2.0, goal_ref="R:S.in")
    assert context_layout(st, net) == "F"
    assert road_edge_hits([st], [0], net) == {0: True}
    st.goal_ref = "F:N.out"
    assert road_edge_hits([st], [0], net) == {0: False}


@pytest.mark.parametrize("kind", ["fourway", "city"])
def test_sim_step_checks_road_edges_once_per_layout(monkeypatch, kind):
    kernel_rows = []
    kernel = scene.segments_hit_rects

    def counting_kernel(segs, cx, *args):
        kernel_rows.append(len(cx))
        return kernel(segs, cx, *args)

    edge_calls = []
    edges = scene.road_edge_hits

    def spying_edges(states, indices, network):
        pairs = {(context_layout(states[i], network), i) for i in indices}
        pairs |= {(states[i].goal_ref.split(":")[0], i) for i in indices}
        edge_calls.append((len({name for name, _ in pairs}), len(pairs)))
        return edges(states, indices, network)

    monkeypatch.setattr(scene, "segments_hit_rects", counting_kernel)
    monkeypatch.setattr(scene, "road_edge_hits", spying_edges)
    cfg = SceneConfig(network=_network(kind), n_vehicles=12, t_limit_s=40 * DT_S)
    ep = init_episode(cfg, seed=(8, 0))
    while not ep.done:
        kernel_rows.clear()
        edge_calls.clear()
        sim_step(ep, cfg, HoldTraffic())
        assert len(edge_calls) == 1
        n_layouts, n_pairs = edge_calls[0]
        assert len(kernel_rows) == n_layouts
        assert sum(kernel_rows) == n_pairs
    assert ep.tick == 40
    # vehicles failed, and their slots respawned inside the vehicle loop
    assert any('"status":"failed"' in line for line in ep.log)


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
    ep = init_episode(cfg, seed=(5, 0))
    assert ep.av_index == 0
    assert len(ep.states) == 4
    assert ep.levels[0] == 0
    assert set(ep.levels[1:]) <= {1, 2}
    assert ep.tags[0] == "adaptive"


def test_init_episode_is_seed_deterministic():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=3)
    a = init_episode(cfg, seed=(9, 1))
    b = init_episode(cfg, seed=(9, 1))
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
    ep = init_episode(cfg, seed=(2, 0))
    before = [(s.pose.x, s.pose.y) for s in ep.states]
    sim_step(ep, cfg, Recorder())
    assert [seen[i] for i in range(2)] == before


def test_episode_time_cap_classifies_deadlock():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=2.0)
    av = ScriptedAV(action=0)
    ep = init_episode(cfg, seed=(3, 0))
    ep.states[0].speed = 0.0  # a parked AV can neither succeed nor collide
    res = run_episode(cfg, HoldTraffic(), av, seed=None, episode=ep)
    assert res["outcome"] == KIND_DEADLOCK
    assert res["duration_s"] == pytest.approx(2.0)
    assert av.observed == res["ticks"]


def test_av_boundary_strike_ends_episode_as_collision():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=30.0)
    ep = init_episode(cfg, seed=(4, 0))
    # aim the AV at the outer boundary
    ep.states[0] = VehicleState(Pose2(-12.0, -2.0, -math.pi / 2), 4.0, goal_ref="I0:E.out")
    res = run_episode(cfg, HoldTraffic(), ScriptedAV(), seed=None, episode=ep)
    assert res["outcome"] == KIND_COLLISION
    assert res["duration_s"] < 5.0


def test_av_reaching_exit_lane_is_success():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=0, av_policy="level1", t_limit_s=60.0)
    ep = init_episode(cfg, seed=(6, 0))
    ep.states[0] = VehicleState(Pose2(8.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    res = run_episode(cfg, HoldTraffic(), ScriptedAV(), seed=None, episode=ep)
    assert res["outcome"] == KIND_SUCCESS
    assert res["mean_speed"] > 0.0


def test_background_respawn_keeps_drawn_level():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=2, av_policy=None, t_limit_s=10.0)
    ep = init_episode(cfg, seed=(8, 0))
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
    res = run_episode(cfg, HoldTraffic(), ScriptedAV(), seed=None, episode=ep, collect_log=True)
    assert res["log"], "expected log lines"
    for line in res["log"]:
        rec = json.loads(line)
        assert set(rec) == {"tick", "id", "x", "y", "v", "theta", "action", "policy", "status"}
    tags = {json.loads(line)["policy"] for line in res["log"]}
    assert "rule-based" in tags
    assert tags - {"rule-based"} <= {"l1", "l2"}


def test_expert_traffic_drives_toward_goals():
    net = single_network("fourway")
    cfg = SceneConfig(network=net, n_vehicles=1, av_policy=None, t_limit_s=8.0)
    ep = init_episode(cfg, seed=(13, 2))
    start_goal_d = euclidean_dist(
        (ep.states[0].pose.x, ep.states[0].pose.y),
        net.resolve(ep.states[0].goal_ref)[1].ref_point,
    )
    for _ in range(16):
        sim_step(ep, cfg, ExpertTraffic())
        if ep.states[0] is None:
            break
    if ep.states[0] is not None:
        end_goal_d = euclidean_dist(
            (ep.states[0].pose.x, ep.states[0].pose.y),
            net.resolve(ep.states[0].goal_ref)[1].ref_point,
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
    assert shared["ticks"] == 15
    assert shared == private
    assert shared_av.beliefs.table.keys() == private_av.beliefs.table.keys()
    for j, p in shared_av.beliefs.table.items():
        assert np.array_equal(p, private_av.beliefs.table[j])
    # the observations moved some belief, so observe really planned
    assert any(not np.array_equal(p, [0.5, 0.5]) for p in shared_av.beliefs.table.values())


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
    ep = init_episode(cfg, seed=(1, 0))
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
    runs = [(init_episode(cfg, seed=(1, 0)), AdaptiveController()) for _ in range(2)]
    while not runs[0][0].done:
        for ep, av in runs:
            egos.append(set())
            searches.append(0)
            trees.append(0)
            sim_step(ep, cfg, ExpertTraffic(), av)
    assert runs[1][0].done and len(trees) == 30
    assert trees == [len(e) for e in egos]
    assert all(trees) and sum(searches) > sum(trees)
