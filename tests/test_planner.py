"""Level-k planner against the exhaustive scalar enumerator."""

import dataclasses
import math

import numpy as np
import pytest

from intersim import planner
from intersim.controllers import BeliefState, adaptive_plan
from intersim.dynamics import (
    DEFAULT_ACTIONS,
    PHASE_APPROACH,
    PHASE_EXIT,
    Action,
    ActionSet,
    Pose2,
    VehicleState,
    rollout,
)
from intersim.geometry import single_network
from intersim.planner import (
    DEFAULT_PLANNER,
    PlanCache,
    best_response,
    expert_policy,
    level0_plan,
    levelk_plan,
)
from intersim.reward import RewardWeights

from planner_oracle import exhaustive_plan, point_segment_dist, random_plan_scene


def _check_against_oracle(states, net, i, k, cfg):
    seq, val = exhaustive_plan(states, i, k, net, cfg)
    res = levelk_plan(states, i, k, net, cfg)
    assert res.action_sequence == seq
    assert res.value == pytest.approx(val, rel=1e-9, abs=1e-9)


def test_matches_exhaustive_search_short_horizons():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n_h = 2 + trial % 2
        cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=n_h)
        states, net = random_plan_scene(rng)
        i = int(rng.integers(len(states)))
        k = int(rng.integers(3))
        _check_against_oracle(states, net, i, k, cfg)


def test_matches_exhaustive_search_full_horizon():
    rng = np.random.default_rng(1234)
    for trial in range(8):
        states, net = random_plan_scene(rng, n_vehicles=1 + trial % 2)
        i = int(rng.integers(len(states)))
        k = int(rng.integers(3))
        _check_against_oracle(states, net, i, k, DEFAULT_PLANNER)


# every turn rate distinct (no two children share a pose), and every turn
# rate zero (all children share one)
_DISTINCT_OMEGAS = ActionSet(
    (Action(0.0, 0.0), Action(2.5, 0.3), Action(-2.5, -0.3), Action(0.0, math.pi / 4), Action(0.0, -math.pi / 4)),
    ("maintain", "a", "b", "c", "d"),
)
_STRAIGHT_ONLY = ActionSet(
    (Action(0.0, 0.0), Action(2.5, 0.0), Action(-2.5, 0.0), Action(-5.0, 0.0)),
    ("maintain", "accelerate", "decelerate", "hard_brake"),
)


@pytest.mark.parametrize("actions", [_DISTINCT_OMEGAS, _STRAIGHT_ONLY], ids=["distinct", "straight"])
def test_matches_exhaustive_search_with_other_action_sets(actions):
    rng = np.random.default_rng(7)
    for trial in range(18):
        cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=1 + trial % 3, actions=actions)
        states, net = random_plan_scene(rng)
        i = int(rng.integers(len(states)))
        _check_against_oracle(states, net, i, trial % 3, cfg)


def test_one_features_call_per_best_response(monkeypatch):
    searches, rows = [], []
    real_br, real_fm = planner._best_response, planner.features_many

    def best_response(*args):
        searches.append(len(rows))
        return real_br(*args)

    def features_many(x, *args):
        rows.append(len(x))
        return real_fm(x, *args)

    monkeypatch.setattr(planner, "_best_response", best_response)
    monkeypatch.setattr(planner, "features_many", features_many)
    states, net = _crossing_scene()
    levelk_plan(states, 0, 2, net)
    n = DEFAULT_PLANNER.horizon_n
    assert len(searches) == 3
    # one call per search, over one row per (parent, distinct omega)
    assert searches == [0, 1, 2]
    assert rows == [3 * (6**n - 1) // 5] * 3


def test_one_features_call_per_ego_in_a_shared_cache(monkeypatch):
    rows = []
    real_fm = planner.features_many

    def features_many(x, *args):
        rows.append(len(x))
        return real_fm(x, *args)

    monkeypatch.setattr(planner, "features_many", features_many)
    states, net = _crossing_scene()
    cache = PlanCache()
    # (0, 0), (1, 1) and (0, 2) search; vehicle 0's two searches share a tree
    levelk_plan(states, 0, 2, net, cache=cache)
    assert rows == [3 * (6**DEFAULT_PLANNER.horizon_n - 1) // 5] * 2
    assert len(cache.trees) == 2
    assert set(cache) == {(0, 0), (1, 1), (0, 2)}


# ---------------------------------------------------------------------------
# ego trees shared through a PlanCache


def _same_plan(got, want):
    assert got.action_sequence == want.action_sequence
    assert got.value.hex() == want.value.hex()
    assert got.trajectory.tobytes() == want.trajectory.tobytes()


def _twin(st, field, lay, rng):
    """A copy of st that differs in one field of the ego-tree key."""
    tw = st.copy()
    if field == "speed":
        tw.speed = st.speed + 1.0
    elif field == "phase":
        tw.phase = PHASE_EXIT if st.phase == PHASE_APPROACH else PHASE_APPROACH
    else:
        lanes = sorted(lid for lid in lay.lanes if f"I0:{lid}" != st.goal_ref)
        tw.goal_ref = f"I0:{lanes[rng.integers(len(lanes))]}"
    return tw


def _plan(states, net, cfg, query, beliefs, cache):
    kind, i, k = query
    if kind == "levelk":
        return levelk_plan(states, i, k, net, cfg, cache)
    return adaptive_plan(states, i, beliefs, net, cfg, cache=cache)


_ACTION_SETS = (DEFAULT_ACTIONS, _DISTINCT_OMEGAS, _STRAIGHT_ONLY)


def test_shared_plan_cache_matches_a_fresh_search_each():
    """Every plan read through one shared PlanTable, in shuffled order, equals
    the same plan searched with a fresh cache of its own. Each scene plans
    under two configs in one table, the adaptive best response of a slot
    beside its levelk searches, and a twin of one vehicle that differs in
    speed, phase or goal only."""
    rng = np.random.default_rng(2024)
    for trial in range(300):
        states, net = random_plan_scene(rng, n_vehicles=1 + trial % 2)
        src = int(rng.integers(len(states)))
        states.append(_twin(states[src], ("speed", "phase", "goal_ref")[trial % 3], net.layouts["I0"], rng))
        cfgs = (
            dataclasses.replace(DEFAULT_PLANNER, horizon_n=(4, 3, 2)[trial % 3], actions=_ACTION_SETS[trial // 3 % 3]),
            dataclasses.replace(DEFAULT_PLANNER, horizon_n=1),
        )
        beliefs = BeliefState()
        for j in range(len(states)):
            p = rng.choice([0.0, rng.uniform(), 1.0])
            beliefs.table[j] = np.array([p, 1.0 - p])
        queries = [
            (cfg, (kind, i, k))
            for cfg in cfgs
            for i in range(len(states))
            for kind, k in (("levelk", 0), ("levelk", 1), ("levelk", 2), ("adaptive", None))
        ]
        plans = {}
        for q in rng.permutation(len(queries)):
            cfg, query = queries[q]
            got = _plan(states, net, cfg, query, beliefs, plans.setdefault(cfg, PlanCache()))
            _same_plan(got, _plan(states, net, cfg, query, beliefs, PlanCache()))


@pytest.mark.parametrize("field", ["speed", "phase", "goal_ref"])
def test_egos_that_differ_in_one_key_field_get_their_own_tree(field):
    # outside the core on the west inbound lane, where phase decides
    # whether the wrong-lane term applies
    net = single_network("fourway")
    ego = VehicleState(Pose2(-12.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out", phase=PHASE_APPROACH)
    twin = _twin(ego, field, net.layouts["I0"], np.random.default_rng(3))
    alone = [best_response(st, {}, net) for st in (ego, twin)]
    assert alone[0].value != alone[1].value
    cache = PlanCache()
    for st, want in zip((ego, twin), alone):
        _same_plan(best_response(st, {}, net, cache=cache), want)
    assert len(cache.trees) == 2


def test_nearby_segments_match_scalar_distance():
    rng = np.random.default_rng(11)
    segs = rng.uniform(-20, 20, (40, 4))
    segs[5, 2:] = segs[5, :2]  # a zero-length segment
    for _ in range(20):
        x, y, r = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, 15)
        want = [s for s in segs if point_segment_dist((x, y), s[:2], s[2:]) <= r]
        got = planner._nearby_segments(segs, x, y, r)
        assert np.array_equal(got, np.array(want).reshape(-1, 4))
    assert planner._nearby_segments(segs, 100.0, 100.0, 1.0).shape == (0, 4)
    assert planner._nearby_segments(np.zeros((0, 4)), 0.0, 0.0, 1.0).shape == (0, 4)


def _crossing_scene():
    """Two straight-through vehicles on collision course at a four-way."""
    net = single_network("fourway")
    ego = VehicleState(
        Pose2(2.0, -5.0, math.pi / 2), 2.5, goal_ref="I0:N.out", phase=PHASE_APPROACH
    )
    opp = VehicleState(
        Pose2(5.0, 2.0, math.pi), 2.5, goal_ref="I0:W.out", phase=PHASE_APPROACH
    )
    return [ego, opp], net


def test_level_one_yields_at_contested_crossing():
    # Level-1 assumes the other car plows ahead (level-0 disregards it
    # entirely), so it is the cautious rung: it holds speed and brakes
    # rather than fight for the conflict cell. Levels 0 and 2 both push.
    states, net = _crossing_scene()
    plans = {k: levelk_plan(states, 0, k, net) for k in range(3)}
    acc1 = plans[1].first_action.accel
    assert acc1 <= 0.0
    assert plans[1].action_sequence != plans[0].action_sequence
    assert plans[0].first_action.accel > acc1 or plans[0].first_action.omega != 0.0
    assert plans[2].first_action.accel > acc1 or plans[2].first_action.omega != 0.0


def test_ties_resolve_to_lexicographically_first_sequence():
    # With goal and speed weights zeroed, an unobstructed vehicle scores 0
    # for every sequence; first maximum must be all-maintain.
    net = single_network("fourway")
    w = RewardWeights(goal_dist=0.0, speed=0.0)
    cfg = dataclasses.replace(DEFAULT_PLANNER, weights=w)
    ego = VehicleState(Pose2(-10.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    res = levelk_plan([ego], 0, 2, net, cfg)
    assert res.action_sequence == [0, 0, 0, 0]
    assert res.value == 0.0


def test_shared_cache_holds_every_subplan_once():
    states, net = _crossing_scene()
    states = states + [
        VehicleState(Pose2(-2.0, 6.0, -math.pi / 2), 2.0, goal_ref="I0:S.out")
    ]
    cache = PlanCache()
    expert_policy(states, 0, 2, net, cache=cache)
    # one k=2 query pulls in both opponents at k=1 and all three at k=0
    assert set(cache) == {(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (0, 2)}
    for i in range(3):
        for k in (1, 2):
            expert_policy(states, i, k, net, cache=cache)
    assert set(cache) == {(i, k) for i in range(3) for k in range(3)}
    again = expert_policy(states, 0, 2, net, cache=cache)
    assert again is cache[(0, 2)]


def test_far_vehicles_are_ignored():
    net = single_network("fourway")
    ego = VehicleState(Pose2(-12.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    far = VehicleState(Pose2(38.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    solo = levelk_plan([ego], 0, 2, net)
    paired = levelk_plan([ego, far], 0, 2, net)
    assert paired.action_sequence == solo.action_sequence
    assert paired.value == pytest.approx(solo.value)
    assert paired.opp_trajectories == {}


def test_vehicle_exactly_at_the_interaction_radius_is_an_opponent():
    # centers 5 m apart exactly (a 3-4-5 offset): inside a radius of 5,
    # outside the next float below it
    net = single_network("fourway")
    ego = VehicleState(Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    other = VehicleState(Pose2(-17.0, 2.0, -math.pi / 2), 3.0, goal_ref="I0:S.out")
    states = [ego, None, other]
    assert planner.near_indices(states, 0, 5.0) == [2]
    assert planner.near_indices(states, 0, math.nextafter(5.0, 0.0)) == []
    for radius, opponents in ((5.0, [2]), (math.nextafter(5.0, 0.0), [])):
        cfg = dataclasses.replace(DEFAULT_PLANNER, interaction_radius_m=radius)
        assert list(level0_plan(states, 0, net, cfg).opp_trajectories) == opponents
        assert list(levelk_plan(states, 0, 1, net, cfg).opp_trajectories) == opponents


def test_none_slots_are_skipped():
    # despawned vehicles leave None holes in the roster
    states, net = _crossing_scene()
    res_full = levelk_plan([states[0]], 0, 1, net)
    res_holes = levelk_plan([states[0], None], 0, 1, net)
    assert res_holes.action_sequence == res_full.action_sequence


def test_reported_trajectory_replays_the_sequence():
    states, net = _crossing_scene()
    res = levelk_plan(states, 0, 2, net)
    acts = [DEFAULT_ACTIONS[a] for a in res.action_sequence]
    expect = rollout(states[0].pose, states[0].speed, acts)
    assert np.allclose(res.trajectory, expect)
    assert set(res.opp_trajectories) == {1}
    assert res.opp_trajectories[1].shape == (5, 4)


def test_level0_freezes_opponents():
    states, net = _crossing_scene()
    res = level0_plan(states, 0, net)
    tr = res.opp_trajectories[1]
    assert np.all(tr[:, 0] == states[1].pose.x)
    assert np.all(tr[:, 3] == 0.0)


def test_expert_rejects_out_of_range_level():
    states, net = _crossing_scene()
    with pytest.raises(ValueError):
        expert_policy(states, 0, 3, net)
    with pytest.raises(ValueError):
        expert_policy(states, 0, -1, net)


def test_horizon_one_reduces_to_greedy_step():
    cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=1)
    rng = np.random.default_rng(99)
    for _ in range(6):
        states, net = random_plan_scene(rng, n_vehicles=2)
        seq, val = exhaustive_plan(states, 0, 1, net, cfg)
        res = levelk_plan(states, 0, 1, net, cfg)
        assert res.action_sequence == seq
        assert len(res.action_sequence) == 1
