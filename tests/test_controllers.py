"""Belief updates, adaptive planning, reference paths, rule-based control."""

import itertools
import math

import numpy as np
import pytest

from adaptive_oracle import (
    PerRowAdaptive,
    PerRowDistilledAdaptive,
    PerRowFixedLevel,
    batched,
    rollout_per_row,
)
from planner_oracle import exhaustive_plan, reward

from intersim import controllers
from intersim import dynamics as dyn
from intersim import reward as rw
from intersim.controllers import (
    ACCEL_SET,
    AdaptiveController,
    BeliefState,
    DistilledAdaptiveController,
    FixedLevelController,
    RuleBasedController,
    adaptive_plan,
    conflict_set,
    estimate_level,
    estimate_levels,
    estimate_path,
    path_arclength,
    point_along,
    project_arclength,
    reference_path,
    rule_based_action,
    update_beliefs,
)
from intersim.dynamics import DEFAULT_ACTIONS, PHASE_APPROACH, Pose2, VehicleState
from intersim.geometry import make_city, single_network
from intersim.planner import DEFAULT_PLANNER, LAMBDA, PlanCache, level0_plan, levelk_plan, near_indices
from intersim.scene import SceneConfig, TrafficPolicy, init_episode, sim_step


# ---------------------------------------------------------------------------
# belief updates


def test_update_matches_hand_computed_example():
    # prior (0.5, 0.5), step 0.6, observation matches the level-2
    # prediction exactly: level-2 mass becomes 0.4*0.5 + 0.6 = 0.8, the
    # level-1 mass stays 0.5, and the normalizer is 1.3
    b = BeliefState(beta=0.6)
    preds = {1: (2.5, 0.0), 2: (0.0, 0.0)}
    out = update_beliefs(b, 3, (0.0, 0.0), preds)
    assert out.vec(3) == pytest.approx([0.5 / 1.3, 0.8 / 1.3])
    assert out.vec(3)[0] == pytest.approx(0.38461538461538464)
    # the input belief state is untouched
    assert b.vec(3) == pytest.approx([0.5, 0.5])


def test_zero_step_size_freezes_beliefs():
    b = BeliefState(beta=0.0)
    preds = {1: (2.5, 0.0), 2: (-5.0, 0.0)}
    out = update_beliefs(b, 0, (-5.0, 0.0), preds)
    assert out.vec(0) == pytest.approx([0.5, 0.5])


def test_identical_predictions_carry_no_information():
    b = BeliefState(beta=0.6)
    b.table[4] = np.array([0.2, 0.8])
    preds = {1: (2.5, 0.0), 2: (2.5, 0.0)}
    out = update_beliefs(b, 4, (2.5, 0.0), preds)
    assert out.vec(4) == pytest.approx([0.2, 0.8])


def test_equidistant_predictions_credit_both_models():
    b = BeliefState(beta=0.6)
    b.table[1] = np.array([0.3, 0.7])
    # observation halfway between the two predictions
    preds = {1: (2.5, 0.0), 2: (-2.5, 0.0)}
    out = update_beliefs(b, 1, (0.0, 0.0), preds)
    expect = np.array([0.4 * 0.3 + 0.6, 0.4 * 0.7 + 0.6])
    expect /= expect.sum()
    assert out.vec(1) == pytest.approx(list(expect))


def test_beliefs_stay_normalized_under_long_update_streams():
    rng = np.random.default_rng(0)
    b = BeliefState(beta=0.6)
    acts = [(a.accel, a.omega) for a in DEFAULT_ACTIONS]
    for _ in range(2000):
        j = int(rng.integers(3))
        preds = {1: acts[rng.integers(6)], 2: acts[rng.integers(6)]}
        b = update_beliefs(b, j, acts[rng.integers(6)], preds)
    for j in range(3):
        p = b.vec(j)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0)


def test_consistent_observations_converge_monotonically():
    b = BeliefState(beta=0.6)
    preds = {1: (2.5, 0.0), 2: (-5.0, 0.0)}
    prev = b.vec(2)[1]
    for _ in range(30):
        b = update_beliefs(b, 2, (-5.0, 0.0), preds)
        cur = b.vec(2)[1]
        assert cur > prev  # strictly climbs from the first consistent update
        prev = cur
    # the unmatched model keeps its raw mass, so convergence is harmonic
    # rather than geometric: roughly 1 - 1/(0.6 n) after n updates
    assert prev > 0.9


def test_estimate_level_thresholds_and_tie():
    assert estimate_level(np.array([0.38, 0.62])) == 2
    assert estimate_level(np.array([0.62, 0.38])) == 1
    # exact tie goes to the higher level (undecided reads as aggressive)
    assert estimate_level(np.array([0.5, 0.5])) == 2
    b = BeliefState()
    b.table[7] = np.array([0.9, 0.1])
    # an opponent not tracked yet starts uniform, so it reads as level 2
    assert estimate_levels(b, [7, 3]) == {7: 1, 3: 2}


# ---------------------------------------------------------------------------
# adaptive planning


def _crossing_scene():
    net = single_network("fourway")
    ego = VehicleState(
        Pose2(2.0, -5.0, math.pi / 2), 2.5, goal_ref="I0:N.out", phase=PHASE_APPROACH
    )
    opp = VehicleState(
        Pose2(5.0, 2.0, math.pi), 2.5, goal_ref="I0:W.out", phase=PHASE_APPROACH
    )
    return [ego, opp], net


def _saturated(assignments) -> BeliefState:
    b = BeliefState()
    for j, level in assignments.items():
        b.table[j] = np.array([1.0, 0.0]) if level == 1 else np.array([0.0, 1.0])
    return b


def test_adaptive_reduces_to_level0_without_opponents():
    net = single_network("fourway")
    ego = VehicleState(Pose2(-12.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    res = adaptive_plan([ego], 0, BeliefState(), net, PlanCache())
    assert res.action_sequence == level0_plan([ego], 0, net, PlanCache()).action_sequence


def test_adaptive_is_best_response_to_the_estimated_level():
    # with the lone opponent pinned at level L, committing its level-L
    # plan and best-responding is exactly a level-(L+1) plan, so the
    # scalar exhaustive planner provides an independent oracle
    states, net = _crossing_scene()
    for level in (1, 2):
        res = adaptive_plan(states, 0, _saturated({1: level}), net, PlanCache())
        seq, val = exhaustive_plan(states, 0, level + 1, net, DEFAULT_PLANNER)
        assert res.action_sequence == seq
        assert res.value == pytest.approx(val, rel=1e-9, abs=1e-9)


def test_adaptive_with_mixed_estimates_matches_flat_enumeration():
    # three vehicles, one opponent believed cautious and one aggressive:
    # commit each at its estimated level, then enumerate all ego
    # sequences with the scalar kinematics and features
    net = single_network("fourway")
    states = [
        VehicleState(Pose2(2.0, -7.0, math.pi / 2), 2.5, goal_ref="I0:N.out"),
        VehicleState(Pose2(6.0, 2.0, math.pi), 2.5, goal_ref="I0:W.out"),
        VehicleState(Pose2(-7.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out"),
    ]
    beliefs = _saturated({1: 1, 2: 2})
    res = adaptive_plan(states, 0, beliefs, net, PlanCache())

    cfg = DEFAULT_PLANNER
    opp_traj = {}
    for j, level in ((1, 1), (2, 2)):
        seq, _ = exhaustive_plan(states, j, level, net, cfg)
        poses = [states[j].pose]
        p, v = states[j].pose, states[j].speed
        for ai in seq:
            p, v = dyn.step(p, v, cfg.actions[ai])
            poses.append(p)
        opp_traj[j] = poses
    lay, lane = net.resolve(states[0].goal_ref)
    best_seq, best_val = None, -math.inf
    for seq in itertools.product(range(len(cfg.actions)), repeat=cfg.horizon_n):
        p, v = states[0].pose, states[0].speed
        total, f = 0.0, 1.0
        for tau, ai in enumerate(seq):
            p, v = dyn.step(p, v, cfg.actions[ai])
            others = [opp_traj[j][tau + 1] for j in (1, 2)]
            fv = rw.features(
                p, v, others, lay, lane.ref_point,
                exiting=False, target_lane=lane.id, zones=cfg.zones,
            )
            total += f * reward(fv, cfg.weights)
            f *= LAMBDA
        if total > best_val:
            best_seq, best_val = list(seq), total
    assert res.action_sequence == best_seq
    assert res.value == pytest.approx(best_val, rel=1e-9, abs=1e-9)


def test_adaptive_yields_to_aggressive_and_pushes_past_cautious():
    states, net = _crossing_scene()
    vs_cautious = adaptive_plan(states, 0, _saturated({1: 1}), net, PlanCache())
    vs_aggressive = adaptive_plan(states, 0, _saturated({1: 2}), net, PlanCache())
    # a level-1 opponent is modeled as yielding, so the ego keeps rolling;
    # a level-2 opponent plows through, so the ego plans to slow down
    assert vs_cautious.trajectory[:, 3].min() > vs_aggressive.trajectory[:, 3].min()


def test_adaptive_controller_updates_and_resets_beliefs():
    states, net = _crossing_scene()
    av = AdaptiveController()
    a = av.decide(states, 0, net, PlanCache())
    assert 0 <= a < len(DEFAULT_ACTIONS)
    opp_l1 = levelk_plan(states, 1, 1, net, PlanCache()).action_sequence[0]
    opp_l2 = levelk_plan(states, 1, 2, net, PlanCache()).action_sequence[0]
    av.observe(states, {1: opp_l2}, net, PlanCache())
    assert 1 in av.beliefs.table
    if opp_l1 != opp_l2:
        # the observation matched the level-2 prediction
        assert av.beliefs.vec(1)[1] > 0.5
    av.reset_belief(1)
    assert 1 not in av.beliefs.table
    assert av.beliefs.vec(1) == pytest.approx([0.5, 0.5])


def test_fixed_level_controller_matches_expert_plan():
    states, net = _crossing_scene()
    for k in (1, 2):
        av = FixedLevelController(k)
        want = levelk_plan(states, 0, k, net, PlanCache()).action_sequence[0]
        assert av.decide(states, 0, net, PlanCache()) == want
    with pytest.raises(ValueError):
        FixedLevelController(0)


# ---------------------------------------------------------------------------
# distilled paths: the batched predictor against one query per row


def _toy_row(states, i, k, network):
    """Maintain, accelerate or decelerate, by vehicle i's position, its
    slot and the level k. Levels 1 and 2 always differ, so a row paired
    with the wrong vehicle or level changes the answer."""
    st = states[i]
    return (int(abs(st.pose.x) + abs(st.pose.y)) + k + i) % 3


def _toy_actor(states, i, estimates, network):
    return (int(abs(states[i].pose.x)) + sum(j * k for j, k in estimates.items())) % 3


class _ToyTraffic(TrafficPolicy):
    """Background vehicles play _toy_row at their true level, so the
    AV's beliefs have a level to find."""

    def select(self, states, levels, indices, network, plans):
        return {i: _toy_row(states, i, levels[i], network) for i in indices}


_FOURWAY = single_network("fourway")
_TOY_SCENE = SceneConfig(network=_FOURWAY, n_vehicles=4, av_policy="adaptive", t_limit_s=12.0)


def _toy_episode(av, seed):
    ep = init_episode(_TOY_SCENE, seed=(23, seed), collect_log=True)
    while not ep.done:
        sim_step(ep, _TOY_SCENE, _ToyTraffic(), av)
    return ep


def _same_run(av, ref, seed):
    """Runs one seeded episode under each controller in lockstep and
    compares the ndjson logs and, for adaptive ones, the belief tables
    after every tick."""
    got = init_episode(_TOY_SCENE, seed=(23, seed), collect_log=True)
    want = init_episode(_TOY_SCENE, seed=(23, seed), collect_log=True)
    while not want.done:
        sim_step(got, _TOY_SCENE, _ToyTraffic(), av)
        sim_step(want, _TOY_SCENE, _ToyTraffic(), ref)
        if isinstance(ref, AdaptiveController):
            assert av.beliefs.table.keys() == ref.beliefs.table.keys()
            for j, p in ref.beliefs.table.items():
                assert np.array_equal(av.beliefs.table[j], p)
    assert got.log == want.log
    assert (got.done, got.outcome, got.tick) == (want.done, want.outcome, want.tick)


def test_distilled_adaptive_paths_match_per_row_queries():
    predictor = batched(_toy_row)
    refs = []
    for seed in range(4):
        refs.append(PerRowAdaptive(_toy_row))
        _same_run(AdaptiveController(predictor=predictor), refs[-1], seed)
        refs.append(PerRowDistilledAdaptive(_toy_actor, _toy_row))
        _same_run(DistilledAdaptiveController(_toy_actor, predictor), refs[-1], seed)
    # the comparison is only as sharp as the beliefs it compares: every
    # tracked vehicle leans to a level, and respawns reset some of them
    peaks = [p for ref in refs for p in ref.peak_by_slot().values()]
    assert len(peaks) >= 20 and all(p.max() > 0.9 for p in peaks)
    assert sum(len(ref.resolved) for ref in refs) >= 4


def test_fixed_level_distilled_ego_matches_per_row_queries():
    predictor = batched(_toy_row)
    for k in (1, 2):
        for seed in range(3):
            _same_run(FixedLevelController(k, predictor=predictor), PerRowFixedLevel(k, _toy_row), seed)


def test_predictor_rollout_matches_per_row_rollout():
    snaps = []

    class Recording(PerRowAdaptive):
        def decide(self, states, i, network, plans):
            snaps.append([s.copy() if s is not None else None for s in states])
            return super().decide(states, i, network, plans)

    for seed in range(2):
        _toy_episode(Recording(_toy_row), seed)
    rng = np.random.default_rng(8)
    cfg = DEFAULT_PLANNER
    seen = 0
    for states in snaps:
        for i in (i for i, st in enumerate(states) if st is not None):
            near = near_indices(states, i, cfg.interaction_radius_m)
            if len(near) < 2:
                continue
            est = {j: int(rng.integers(1, 3)) for j in near}
            got = controllers.predictor_rollout(states, near, est, _FOURWAY, cfg, batched(_toy_row))
            want = rollout_per_row(states, near, est, _FOURWAY, cfg, _toy_row)
            assert got.keys() == want.keys()
            for j in near:
                assert np.array_equal(got[j], want[j])
            seen += len(set(est.values())) > 1
    assert seen >= 20


def test_one_predictor_call_per_rollout_step_and_at_most_one_per_observe():
    calls = []

    def counting(states, indices, levels, network):
        calls.append(len(indices))
        return batched(_toy_row)(states, indices, levels, network)

    class Counted(AdaptiveController):
        def decide(self, states, i, network, plans):
            n0 = len(calls)
            a = super().decide(states, i, network, plans)
            n_near = len(near_indices(states, i, plans.cfg.interaction_radius_m))
            assert calls[n0:] == ([n_near] * plans.cfg.horizon_n if n_near else [])
            stats["rollouts"] += n_near > 0
            return a

        def observe(self, prev_states, actions, network, plans):
            n0 = len(calls)
            super().observe(prev_states, actions, network, plans)
            near = near_indices(prev_states, self._ego, plans.cfg.interaction_radius_m)
            n_opp = sum(j != self._ego and j in near for j in actions)
            assert calls[n0:] == ([n_opp * len(self.beliefs.model_set)] if n_opp else [])
            stats["observes"] += n_opp > 0

    stats = {"rollouts": 0, "observes": 0}
    for seed in range(2):
        _toy_episode(Counted(predictor=counting), seed)
    assert stats["rollouts"] >= 10 and stats["observes"] >= 10


# ---------------------------------------------------------------------------
# reference paths


def test_straight_through_is_a_straight_segment():
    lay = single_network("fourway").layouts["I0"]
    pts = reference_path(lay, "W.in", "E.out")
    assert pts.shape == (2, 2)
    assert pts[0][1] == pytest.approx(pts[1][1])  # constant y across the box


def test_turn_arc_joins_centerlines_tangentially():
    lay = single_network("tshape").layouts["I0"]
    pts = reference_path(lay, "W.in", "S.out")
    d = np.diff(pts, axis=0)
    headings = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    # entry matches the entrance direction, exit matches the exit direction
    assert headings[0] == pytest.approx(0.0, abs=1e-6)
    assert headings[-1] == pytest.approx(-math.pi / 2, abs=1e-6)
    # tangency: no kink larger than the arc sampling step
    assert np.abs(np.diff(headings)).max() <= math.radians(5.0) + 1e-9


def test_uturn_is_rejected_at_box_intersections():
    lay = single_network("fourway").layouts["I0"]
    with pytest.raises(ValueError):
        reference_path(lay, "N.in", "N.out")
    with pytest.raises(ValueError):
        reference_path(lay, "N.out", "S.out")


def _routes(lay):
    ins = [lid for lid, ln in lay.lanes.items() if ln.kind == "in"]
    outs = [lid for lid, ln in lay.lanes.items() if ln.kind == "out"]
    return [(e, x) for e in ins for x in outs]


@pytest.mark.parametrize("kind", ["fourway", "tshape", "roundabout"])
def test_reference_path_is_built_once_per_route_and_read_only(kind):
    """The cached path equals one built on a fresh layout, every call
    returns it, a write raises, and a U-turn raises on every call."""
    lay = single_network(kind).layouts["I0"]
    fresh = single_network(kind).layouts["I0"]
    for e, x in _routes(lay):
        if lay.kind != "roundabout" and lay.lanes[e].arm == lay.lanes[x].arm:
            for _ in range(3):
                with pytest.raises(ValueError):
                    reference_path(lay, e, x)
            continue
        pts = reference_path(lay, e, x)
        assert reference_path(lay, e, x) is pts
        want = controllers._build_reference_path(fresh, e, x)
        assert np.array_equal(pts.view(np.uint64), want.view(np.uint64))
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0


def _dedup_by_loop(pts, tol=1e-9):
    keep = [0]
    for m in range(1, len(pts)):
        if np.linalg.norm(pts[m] - pts[keep[-1]]) > tol:
            keep.append(m)
    return pts[keep]


def test_dedup_matches_the_vertex_loop():
    """Paths whose steps are all long take the shortcut; repeated
    vertices and steps just above and below tol take the loop."""
    lay = single_network("roundabout").layouts["I0"]
    paths = [controllers._build_reference_path(lay, e, x) for e, x in _routes(lay)]
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [4.0, 2.0]])
    for step in (0.0, 0.5e-9, 1.5e-9, 2.5e-9):
        paths.append(np.insert(base, 2, base[1] + [step, 0.0], axis=0))
    paths.append(base[:1])
    for pts in paths:
        got = controllers._dedup(pts.copy())
        assert np.array_equal(got, _dedup_by_loop(pts))
    assert len(controllers._dedup(paths[-4])) == len(base)  # 0.5e-9 is dropped
    assert len(controllers._dedup(paths[-3])) == len(base) + 1  # 1.5e-9 is kept


def _drivable(lay, x, y, tol=1e-6):
    lw = lay.params["lane_width"]
    if lay.kind == "roundabout":
        r = math.hypot(x - lay.center[0], y - lay.center[1])
        island = lay.params["island_radius"]
        if island - tol <= r <= island + lw + tol:
            return True
    else:
        if abs(x - lay.center[0]) <= lw + tol and abs(y - lay.center[1]) <= lw + tol:
            return True
    for arm in lay.arms.values():
        u, w = lay.arm_frame(arm.id, x, y)
        if arm.u_start - tol <= u <= arm.u_end + tol and abs(w) <= lw + tol:
            return True
    return False


def test_roundabout_path_stays_in_the_drivable_region():
    lay = single_network("roundabout").layouts["I0"]
    # entry to the third exit: most of a full circulation
    pts = reference_path(lay, "N.in", "E.out")
    cum = path_arclength(pts)
    for s in np.linspace(0.0, cum[-1], 400):
        x, y, _ = point_along(pts, cum, s)
        assert _drivable(lay, x, y), f"({x:.2f},{y:.2f}) left the road"


def test_box_turns_stay_in_the_drivable_region():
    for kind, pair in (("fourway", ("N.in", "W.out")), ("tshape", ("E.in", "S.out"))):
        lay = single_network(kind).layouts["I0"]
        pts = reference_path(lay, *pair)
        cum = path_arclength(pts)
        for s in np.linspace(0.0, cum[-1], 300):
            x, y, _ = point_along(pts, cum, s)
            assert _drivable(lay, x, y), f"{kind} ({x:.2f},{y:.2f}) left the road"


def test_roundabout_uturn_circulates_the_full_ring():
    lay = single_network("roundabout").layouts["I0"]
    pts = reference_path(lay, "N.in", "N.out")
    cum = path_arclength(pts)
    ring_r = lay.params["island_radius"] + 0.5 * lay.params["lane_width"]
    # a U-turn must sweep essentially the whole circle
    assert cum[-1] > 2 * math.pi * ring_r * 0.8


def test_arclength_projection_roundtrip():
    lay = single_network("fourway").layouts["I0"]
    pts = reference_path(lay, "S.in", "W.out")
    cum = path_arclength(pts)
    for s in (0.0, 5.0, 0.5 * cum[-1], cum[-1]):
        x, y, _ = point_along(pts, cum, s)
        assert project_arclength(pts, cum, x, y) == pytest.approx(s, abs=1e-6)


# ---------------------------------------------------------------------------
# conflict set and the acceleration rule


def _plain_state(x, y, th, v=2.0):
    return VehicleState(Pose2(x, y, th), v, goal_ref="I0:E.out")


def test_conflict_requires_crossing_and_proximity():
    states = [_plain_state(0.0, 0.0, 0.0), _plain_state(5.0, -5.0, math.pi / 2)]
    crossing = {
        0: np.array([[0.0, 0.0], [20.0, 0.0]]),
        1: np.array([[5.0, -5.0], [5.0, 15.0]]),
    }
    assert conflict_set(states, 0, crossing) == [1]
    # same crossing geometry but the opponent sits 20 m out: proximity fails
    far = [_plain_state(0.0, 0.0, 0.0), _plain_state(20.0, -5.0, math.pi / 2)]
    crossing_far = {
        0: np.array([[0.0, 0.0], [30.0, 0.0]]),
        1: np.array([[20.0, -5.0], [20.0, 15.0]]),
    }
    assert conflict_set(far, 0, crossing_far) == []
    # parallel paths 3 m apart never cross: the path condition fails
    parallel = [_plain_state(0.0, 0.0, 0.0), _plain_state(0.0, 3.0, 0.0)]
    lanes = {
        0: np.array([[0.0, 0.0], [20.0, 0.0]]),
        1: np.array([[0.0, 3.0], [20.0, 3.0]]),
    }
    assert conflict_set(parallel, 0, lanes) == []


def test_empty_conflict_set_takes_the_largest_acceleration():
    states = [_plain_state(0.0, 0.0, 0.0)]
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    assert rule_based_action(states, 0, path, {}) == 2.5


def test_head_on_conflict_brakes_hard():
    # opponent closing along the ego's own path: every meter not driven
    # is a meter kept, so the hard brake maximizes the one-step minimum
    states = [_plain_state(0.0, 0.0, 0.0, v=3.0), _plain_state(9.0, 0.0, math.pi, v=3.0)]
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    opp = {1: np.array([[9.0, 0.0], [-10.0, 0.0]])}
    assert rule_based_action(states, 0, path, opp) == -5.0


def test_receding_conflict_behind_accelerates():
    # conflicting vehicle behind the ego and driving away: advancing
    # opens the gap fastest
    states = [_plain_state(0.0, 0.0, 0.0, v=3.0), _plain_state(-6.0, 0.0, math.pi, v=3.0)]
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    opp = {1: np.array([[-6.0, 0.0], [1.0, 0.0]])}
    assert rule_based_action(states, 0, path, opp) == 2.5


def test_rule_output_always_in_the_acceleration_set():
    rng = np.random.default_rng(12)
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    for _ in range(60):
        states = [_plain_state(0.0, 0.0, 0.0, v=float(rng.uniform(0, 5)))]
        opp_paths = {}
        for j in range(1, 1 + int(rng.integers(1, 4))):
            x, y = rng.uniform(-12, 12, 2)
            th = float(rng.uniform(-math.pi, math.pi))
            states.append(_plain_state(float(x), float(y), th, v=float(rng.uniform(0, 5))))
            opp_paths[j] = np.array(
                [[x, y], [x + 25 * math.cos(th), y + 25 * math.sin(th)]]
            )
        a = rule_based_action(states, 0, path, opp_paths)
        assert a in ACCEL_SET


def test_vanishing_radius_empties_the_conflict_set():
    states = [_plain_state(0.0, 0.0, 0.0, v=3.0), _plain_state(4.0, 0.0, math.pi, v=3.0)]
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    opp = {1: np.array([[4.0, 0.0], [-10.0, 0.0]])}
    assert rule_based_action(states, 0, path, opp, 1e-9) == max(ACCEL_SET)


def test_tie_goes_to_the_smaller_acceleration():
    # stationary ego, stationary obstacle dead ahead: every braking
    # candidate leaves the ego in place, so -5, -2.5 and 0 tie at the
    # obstacle distance and the most cautious one wins; accelerating
    # closes the gap and loses
    states = [_plain_state(0.0, 0.0, 0.0, v=0.0), _plain_state(1.0, 0.0, 0.0, v=0.0)]
    path = np.array([[0.0, 0.0], [40.0, 0.0]])
    opp = {1: np.array([[1.0, 0.0], [20.0, 0.0]])}
    assert rule_based_action(states, 0, path, opp) == -5.0


def test_rule_based_controller_tracks_its_reference_path():
    net = single_network("fourway")
    states = [
        VehicleState(
            Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out", phase=PHASE_APPROACH
        )
    ]
    av = RuleBasedController()
    for _ in range(40):
        a = av.decide(states, 0, net, PlanCache())
        assert 0 <= a < len(DEFAULT_ACTIONS)
        moved = av.advance(states, 0, net)
        assert moved is not None
        states[0].pose, states[0].speed = moved
    # free road: the controller reaches the speed cap and stays on the
    # lane centerline the whole way
    assert states[0].speed == pytest.approx(5.0)
    assert states[0].pose.y == pytest.approx(-2.0, abs=1e-6)
    assert states[0].pose.x > -10.0


def test_estimate_path_prefers_reference_curve_on_entrance():
    net = single_network("fourway")
    st = VehicleState(
        Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:N.out", phase=PHASE_APPROACH
    )
    pts = estimate_path([st], 0, net)
    assert len(pts) > 4  # turning curve, not a straight ref-point hop
    cum = path_arclength(pts)
    x_end, y_end, _ = point_along(pts, cum, cum[-1])
    lane = net.resolve("I0:N.out")[1]
    assert math.hypot(x_end - lane.p1[0], y_end - lane.p1[1]) < 1e-6


class _RandomTraffic(TrafficPolicy):
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def select(self, states, levels, indices, network, plans):
        return {i: int(self.rng.integers(len(DEFAULT_ACTIONS))) for i in indices}


class _CheckedRuleAV(RuleBasedController):
    """Rule-based AV that also records, on every decide, the opponents it
    estimated paths for, the opponents within rc_m, and its acceleration
    beside that of an eager reference estimating every opponent."""

    def __init__(self, rc_m):
        super().__init__(rc_m)
        self.estimated = []
        self.records = []

    def decide(self, states, i, network, plans):
        self.estimated.clear()
        a = super().decide(states, i, network, plans)
        ego = states[i]
        within = [
            j for j, st in enumerate(states)
            if j != i and st is not None
            and math.hypot(st.pose.x - ego.pose.x, st.pose.y - ego.pose.y) <= self.rc_m
        ]
        every = {
            j: estimate_path(states, j, network)
            for j, st in enumerate(states)
            if j != i and st is not None
        }
        eager = rule_based_action(states, i, self._pts, every, self.rc_m, self._s)
        self.records.append((a, self._accel, eager, list(self.estimated), within))
        return a


def _city_decisions(monkeypatch, rc_values, min_states):
    """Records of _CheckedRuleAV over seeded city episodes with 20 randomly
    driven vehicles, cycling through rc_values, until min_states."""
    real = controllers.estimate_path

    def counting(states, j, network):
        av.estimated.append(j)
        return real(states, j, network)

    monkeypatch.setattr(controllers, "estimate_path", counting)
    net = make_city()
    cfg = SceneConfig(network=net, n_vehicles=20, av_policy="rule-based", t_limit_s=10.0)
    records = []
    seed = 0
    while len(records) < min_states:
        av = _CheckedRuleAV(rc_values[seed % len(rc_values)])
        ep = init_episode(cfg, seed=(17, seed))
        traffic = _RandomTraffic(seed)
        while not ep.done:
            sim_step(ep, cfg, traffic, av)
        records += av.records
        seed += 1
    return records


def test_decide_matches_an_eager_reference_on_city_states(monkeypatch):
    records = _city_decisions(monkeypatch, (14.0, 30.0), 200)
    conflicted = 0
    for a, accel, eager, _, _ in records:
        assert accel == eager
        assert DEFAULT_ACTIONS[a].accel == eager and DEFAULT_ACTIONS[a].omega == 0.0
        conflicted += eager != max(ACCEL_SET)
    assert conflicted >= 10  # the sample exercises the conflict branch


@pytest.mark.parametrize("rc", [0.0, 14.0, 1e6])
def test_decide_estimates_paths_only_within_rc(monkeypatch, rc):
    records = _city_decisions(monkeypatch, (rc,), 60)
    for _, _, _, estimated, within in records:
        assert estimated == within
    n_within = sum(len(w) for *_, w in records)
    if rc == 0.0:
        assert n_within == 0
    else:
        assert n_within > 0
    if rc == 1e6:
        assert all(len(w) >= 10 for *_, w in records)


def test_opponent_exactly_at_rc_is_estimated(monkeypatch):
    # centers 5 m apart exactly (a 3-4-5 offset): inside a radius of 5,
    # outside the next float below it
    net = single_network("fourway")
    states = [
        VehicleState(Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out", phase=PHASE_APPROACH),
        VehicleState(Pose2(-17.0, 2.0, -math.pi / 2), 3.0, goal_ref="I0:S.out", phase=PHASE_APPROACH),
    ]
    assert math.hypot(3.0, 4.0) == 5.0
    calls = []
    real = controllers.estimate_path
    monkeypatch.setattr(
        controllers, "estimate_path", lambda st, j, network: calls.append(j) or real(st, j, network)
    )
    for rc, expected in ((5.0, [1]), (math.nextafter(5.0, 0.0), [])):
        calls.clear()
        av = RuleBasedController(rc)
        av.decide(states, 0, net, PlanCache())
        assert calls == expected
        every = {1: real(states, 1, net)}
        assert av._accel == rule_based_action(states, 0, av._pts, every, av.rc_m, av._s)
