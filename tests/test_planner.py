"""Level-k planner against the exhaustive scalar enumerator."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from intersim import planner, reward
from intersim.controllers import BeliefState, adaptive_plan
from intersim.dynamics import (
    DEFAULT_ACTIONS,
    PHASE_APPROACH,
    PHASE_EXIT,
    PHASE_INSIDE,
    V_MAX,
    Action,
    ActionSet,
    Pose2,
    VehicleState,
    rollout,
)
from intersim.geometry import make_city, single_network
from intersim.planner import (
    DEFAULT_PLANNER,
    PlanCache,
    best_response,
    expert_policy,
    level0_plan,
    levelk_plan,
)
from intersim.reward import RewardWeights

from planner_oracle import disk_cull_tree, exhaustive_plan, random_plan_scene, repeat_per_row_search


def _check_against_oracle(states, net, i, k, cfg):
    seq, val = exhaustive_plan(states, i, k, net, cfg)
    res = levelk_plan(states, i, k, net, PlanCache(cfg))
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

    def best_response(ego, opp, network, cache):
        # a search that shares nothing, in a fresh cache of its own
        searches.append(len(rows))
        return real_br(ego, opp, network, PlanCache(cache.cfg))

    def features_many(x, *args):
        rows.append(len(x))
        return real_fm(x, *args)

    monkeypatch.setattr(planner, "_best_response", best_response)
    monkeypatch.setattr(planner, "features_many", features_many)
    states, net = _crossing_scene()
    levelk_plan(states, 0, 2, net, PlanCache())
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
    levelk_plan(states, 0, 2, net, cache)
    assert rows == [3 * (6**DEFAULT_PLANNER.horizon_n - 1) // 5] * 2
    assert len(cache.trees) == 2
    assert set(cache) == {(0, 0), (1, 1), (0, 2)}


# ---------------------------------------------------------------------------
# ego trees shared through a PlanCache


def _same_plan(got, want):
    assert got.action_sequence == want.action_sequence
    assert got.value.hex() == want.value.hex()
    assert got.trajectory.tobytes() == want.trajectory.tobytes()


def _spy_opponents(monkeypatch):
    """The opponent trajectories of every search, in call order: the
    second argument of each planner._best_response call."""
    seen = []
    real = planner._best_response

    def spy(ego, opp_trajectories, network, cache):
        seen.append(opp_trajectories)
        return real(ego, opp_trajectories, network, cache)

    monkeypatch.setattr(planner, "_best_response", spy)
    return seen


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


def _plan(states, net, query, beliefs, cache):
    kind, i, k = query
    if kind == "levelk":
        return levelk_plan(states, i, k, net, cache)
    return adaptive_plan(states, i, beliefs, net, cache)


_ACTION_SETS = (DEFAULT_ACTIONS, _DISTINCT_OMEGAS, _STRAIGHT_ONLY)


def test_shared_plan_cache_matches_a_fresh_search_each():
    """Every plan read through one shared PlanCache per config, in shuffled
    order, equals the same plan searched with a fresh cache of its own.
    Each scene plans under two configs, interleaved, the adaptive best
    response of a slot beside its levelk searches, and a twin of one
    vehicle that differs in speed, phase or goal only."""
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
        shared = {cfg: PlanCache(cfg) for cfg in cfgs}
        for q in rng.permutation(len(queries)):
            cfg, query = queries[q]
            got = _plan(states, net, query, beliefs, shared[cfg])
            _same_plan(got, _plan(states, net, query, beliefs, PlanCache(cfg)))


@pytest.mark.parametrize("field", ["speed", "phase", "goal_ref"])
def test_egos_that_differ_in_one_key_field_get_their_own_tree(field):
    # outside the core on the west inbound lane, where phase decides
    # whether the wrong-lane term applies
    net = single_network("fourway")
    ego = VehicleState(Pose2(-12.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out", phase=PHASE_APPROACH)
    twin = _twin(ego, field, net.layouts["I0"], np.random.default_rng(3))
    alone = [best_response(st, {}, net, PlanCache()) for st in (ego, twin)]
    assert alone[0].value != alone[1].value
    cache = PlanCache()
    for st, want in zip((ego, twin), alone):
        _same_plan(best_response(st, {}, net, cache), want)
    assert len(cache.trees) == 2


# ---------------------------------------------------------------------------
# the culls: opponents beyond the overlap reach of a tree's box, segments
# beyond the reach of its c-zones


def _overlap_reach(zones):
    # the circumradii of the larger zone of each vehicle, plus 1e-6 m
    return max(math.hypot(zones.c_length, zones.c_width), math.hypot(zones.s_length, zones.s_width)) + 1e-6


def _box_gap(box, x, y):
    x0, y0, x1, y1 = box
    return math.hypot(max(x0 - x, x - x1, 0.0), max(y0 - y, y - y1, 0.0))


def _standing(tree, x, y, theta, t, n):
    """An opponent trajectory at (x, y, theta) at instant t, and far beyond
    the tree's box at every other instant."""
    traj = np.zeros((n + 1, 4))
    traj[:, :2] = tree.box[2] + 40.0, tree.box[3] + 40.0
    traj[t, :3] = x, y, theta
    return traj


def _off_box(tree, d, rng, n):
    """An opponent at distance d from the tree's box at a random instant,
    off a random corner or edge, at a random heading."""
    x0, y0, x1, y1 = tree.box
    a = rng.uniform(-math.pi, math.pi)
    if rng.random() < 0.5:
        x, y = (x1 if math.cos(a) > 0 else x0) + d * math.cos(a), (y1 if math.sin(a) > 0 else y0) + d * math.sin(a)
    else:
        x, y = (x1 + d, rng.uniform(y0, y1)) if math.cos(a) > 0 else (rng.uniform(x0, x1), y0 - d)
    return _standing(tree, x, y, rng.uniform(-math.pi, math.pi), int(rng.integers(1, n + 1)), n)


def _corner_to_corner(tree, length, width, gap, row, corner):
    """Pose (x, y, theta) and instant of an opponent whose zone of the given
    size meets that zone of pose row row corner to corner, at the instant
    the row faces: gap metres apart along the diagonal (negative:
    overlapping), heading like the row."""
    x, y, theta = (float(p[row]) for p in tree.poses[:3])
    phi = theta + (1, -1, 1, -1)[corner] * math.atan2(width, length) + (0, 0, math.pi, math.pi)[corner]
    d = math.hypot(length, width) + gap
    t = int(np.searchsorted(np.cumsum(tree.depth_rows), row, side="right")) + 1
    return x + d * math.cos(phi), y + d * math.sin(phi), theta, t


def _probe_opponents(tree, zones, rng, n):
    """Opponents at reach - 1e-9, reach and reach + 1e-9 from the box, and
    corner to corner with pose rows at either zone: a random row, and the
    row and corner that put the opponent farthest from the box."""
    reach = _overlap_reach(zones)
    out = [_off_box(tree, d, rng, n) for d in (reach - 1e-9, reach, reach + 1e-9) for _ in range(2)]
    rows = len(tree.poses[0])
    for size in ((zones.c_length, zones.c_width), (zones.s_length, zones.s_width)):
        picks = [(int(rng.integers(rows)), int(rng.integers(4)), gap) for gap in (-1e-3, -1e-9, 1e-9)]
        far = max(
            itertools.product(range(rows), range(4)),
            key=lambda rc: _box_gap(tree.box, *_corner_to_corner(tree, *size, 0.0, *rc)[:2]),
        )
        for row, corner, gap in picks + [(*far, -1e-3)]:
            out.append(_standing(tree, *_corner_to_corner(tree, *size, gap, row, corner), n))
    return out


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
@pytest.mark.parametrize("actions", _ACTION_SETS, ids=["default", "distinct", "straight"])
def test_culled_search_matches_the_repeat_per_row_reference(monkeypatch, horizon, actions):
    """Culling opponents beyond the overlap reach of the tree's box changes
    no overlap flag and no plan bit, at the edge of the reach and for zones
    that meet corner to corner; the kernel sees only opponents in reach."""
    tested, filled = [], []
    real, real_fill = reward.overlap_rects_group, planner.opponent_features

    def kernel(*args):
        tested.append(len(args[5]))
        return real(*args)

    def fill(out, *args):
        real_fill(out, *args)
        filled.append(out)

    monkeypatch.setattr(reward, "overlap_rects_group", kernel)
    monkeypatch.setattr(planner, "opponent_features", fill)
    cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=horizon, actions=actions)
    rng = np.random.default_rng(100 + horizon)
    flags, culled = np.zeros(2), 0
    for trial in range(6):
        states, net = random_plan_scene(rng, 1)
        ego = states[0]
        ego.speed = (0.0, 2.0, V_MAX, V_MAX + 2.0, 3.0, 4.5)[trial]
        if trial % 2:
            ego.pose = Pose2(ego.pose.x, ego.pose.y, trial * math.pi / 2)  # axis-aligned travel
        cache = PlanCache(cfg)
        tree = cache.tree(ego, net)
        probes = _probe_opponents(tree, cfg.zones, rng, horizon)
        for opp in [{j: t} for j, t in enumerate(probes)] + [dict(enumerate(probes))]:
            want_cols, (seq, value, traj) = repeat_per_row_search(tree, ego, opp, cfg)
            del tested[:], filled[:]
            tree.searched.clear()  # search again, not read a shared search
            res = best_response(ego, opp, net, cache)
            (got,) = filled
            assert len(tested) <= 1 and sum(tested) <= len(opp)
            culled += len(opp) - sum(tested)
            assert np.array_equal(got[:, [0, 3]], want_cols)
            assert res.action_sequence == seq
            assert res.value.hex() == value.hex()
            assert res.trajectory.tobytes() == traj.tobytes()
            flags += (want_cols == -1.0).any(axis=0)
    # both zones overlap somewhere, and some opponents were culled
    assert flags.all() and culled > 0


def test_a_search_calls_the_overlap_kernel_only_with_opponents_in_reach(monkeypatch):
    calls = []
    real = reward.overlap_rects_group

    def kernel(*args):
        calls.append(len(args[5]))
        return real(*args)

    monkeypatch.setattr(reward, "overlap_rects_group", kernel)
    rng = np.random.default_rng(41)
    reach = _overlap_reach(DEFAULT_PLANNER.zones)
    n = DEFAULT_PLANNER.horizon_n
    for trial in range(8):
        states, net = random_plan_scene(rng, 1)
        ego = states[0]
        cache = PlanCache()
        tree = cache.tree(ego, net)
        out = {j: _off_box(tree, reach + 1e-9, rng, n) for j in range(4)}
        best_response(ego, out, net, cache)
        assert calls == []
        best_response(ego, {**out, 9: _off_box(tree, reach - 1e-9, rng, n)}, net, cache)
        assert calls == [1]
        calls.clear()


def test_searches_that_differ_only_beyond_reach_share_one(monkeypatch):
    """A search is keyed by the poses of the opponents in reach: opponent
    sets that differ only beyond reach, or in the slots of the opponents in
    reach, fill the overlap columns once and return the same stored plan."""
    calls = []
    real = planner.opponent_features

    def fill(out, x, y, cth, sth, opp, *args):
        calls.append(len(opp))
        return real(out, x, y, cth, sth, opp, *args)

    monkeypatch.setattr(planner, "opponent_features", fill)
    rng = np.random.default_rng(43)
    reach = _overlap_reach(DEFAULT_PLANNER.zones)
    n = DEFAULT_PLANNER.horizon_n
    for trial in range(8):
        states, net = random_plan_scene(rng, 1)
        ego = states[0]
        cache = PlanCache()
        tree = cache.tree(ego, net)
        near = _off_box(tree, reach - 1e-9, rng, n)
        one = {0: near, 1: _off_box(tree, reach + 1e-9, rng, n)}
        other = {2: _off_box(tree, reach + 1.0, rng, n), 5: near.copy(), 7: _off_box(tree, 2 * reach, rng, n)}
        calls.clear()
        got = [best_response(ego, opp, net, cache) for opp in (one, other)]
        assert calls == [1]
        assert got[0] is got[1]
        _same_plan(got[1], best_response(ego, other, net, PlanCache()))


# headings at zero and on either side of the wrap at +-pi, and speeds at
# and beyond the clip limits
_EDGE_HEADINGS = (
    0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0),
    math.nextafter(-math.pi, 0.0), math.nextafter(-math.pi, -4.0),
)
_EDGE_SPEEDS = (0.0, V_MAX, V_MAX + 1.5)


def _tree_egos(rng):
    """Random egos, with speeds up to v_max + 3 m/s and any phase: anywhere
    around each single intersection, and on the city's connector roads
    around the ports, heading for a lane of either end. Then egos at every
    edge heading and speed around the four-way."""
    city = make_city()
    places = [(single_network(kind), "I0", None) for kind in ("fourway", "tshape", "roundabout") for _ in range(5)]
    places += [(city, name, city.layouts[name].port(arm)) for a, arm_a, b, arm_b in city.connectors
               for name, arm in ((a, arm_a), (b, arm_b))]
    egos = [(place, None, None) for place in places]
    egos += [(places[0], theta, speed) for theta, speed in itertools.product(_EDGE_HEADINGS, _EDGE_SPEEDS)]
    for (net, name, port), theta, speed in egos:
        lay = net.layouts[name]
        cx, cy = lay.center if port is None else port
        lanes = sorted(lay.lanes)
        x, y = cx + rng.uniform(-22, 22), cy + rng.uniform(-22, 22)
        yield net, VehicleState(
            Pose2(x, y, rng.uniform(-math.pi, math.pi) if theta is None else theta),
            float(rng.uniform(0.0, V_MAX + 3.0)) if speed is None else speed,
            goal_ref=f"{name}:{lanes[rng.integers(len(lanes))]}",
            phase=(PHASE_APPROACH, PHASE_INSIDE, PHASE_EXIT)[rng.integers(3)],
        )


# the planner's memos of the tables that ego trees share
_MEMOS = (planner._structure_table, planner._heading_table, planner._speed_table)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _same_tree(tree, want):
    poses, box, depth_rows, node_rows, node_speeds, F = want
    assert [p.tobytes() for p in tree.poses] == [p.tobytes() for p in poses]
    assert tree.box == box and list(tree.depth_rows) == depth_rows
    assert [r.tobytes() for r in tree.node_rows] == [r.tobytes() for r in node_rows]
    assert [v.tobytes() for v in tree.node_speeds] == [v.tobytes() for v in node_speeds]
    assert tree.features.tobytes() == F.tobytes()


@pytest.mark.parametrize("horizon", [1, 3, 4])
@pytest.mark.parametrize("actions", _ACTION_SETS, ids=["default", "distinct", "straight"])
def test_box_culled_tree_matches_the_disk_culled_reference(horizon, actions):
    """The box cull of segments, the long-axis kernel and the shared
    heading, speed and structure tables build every tree byte for byte as
    the disk cull, the rows-by-segments kernel and the per-depth expansion
    did: on a cold memo, and on a warm one that holds the other egos'
    tables and, on the second build, the ego's own."""
    cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=horizon, actions=actions)
    rng = np.random.default_rng(60 + horizon)
    cases = [(net, ego, disk_cull_tree(ego, net, cfg)) for net, ego in _tree_egos(rng)]
    flags = np.zeros(2)
    for net, ego, want in cases:
        _clear_memos()
        _same_tree(planner._ego_tree(ego, net, cfg), want)
        flags += (want[5][:, 1:3] == -1.0).any(axis=0)
    for net, ego, want in cases:
        for _ in range(2):
            _same_tree(planner._ego_tree(ego, net, cfg), want)
    # boundary and lane terms both fire somewhere
    assert flags.all()


def _arrays(x):
    if isinstance(x, np.ndarray):
        return [x]
    return [a for item in x for a in _arrays(item)] if isinstance(x, tuple) else []


def test_table_memos_are_bounded_read_only_and_keyed_by_bit_pattern():
    """Each memo is bounded; no tree can write into a table it shares with
    others; the headings 0.0 and -0.0 take two entries; and a search from a
    cold memo equals one from a warm memo."""
    assert all(isinstance(memo.cache_parameters()["maxsize"], int) for memo in _MEMOS)
    net = single_network("fourway")
    cfg = DEFAULT_PLANNER
    om, group = (a.tobytes() for a in cfg.actions.omega_groups)
    acc = cfg.actions.arrays()[0].tobytes()
    _clear_memos()
    trees = []
    for theta in (0.0, -0.0):
        trees.append(planner._ego_tree(VehicleState(Pose2(-12.0, -2.0, theta), 2.0, goal_ref="I0:E.out"), net, cfg))
    info = planner._heading_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    shared = _arrays((
        planner._structure_table(group, cfg.horizon_n),
        planner._heading_table((0.0).hex(), om, group, cfg.horizon_n),
        planner._heading_table((-0.0).hex(), om, group, cfg.horizon_n),
        planner._speed_table((2.0).hex(), acc, cfg.horizon_n),
    ))
    for tree in trees:
        shared += [*tree.poses[2:], *tree.node_rows, *tree.node_speeds]
    for a in shared:
        with pytest.raises(ValueError):
            a[...] = 0

    states, net = _crossing_scene()
    _clear_memos()
    cold = [levelk_plan(states, i, 2, net, PlanCache()) for i in range(2)]
    for i, want in enumerate(cold):
        _same_plan(levelk_plan(states, i, 2, net, PlanCache()), want)


@pytest.mark.parametrize("speed", [3.0, V_MAX + 2.0])
def test_a_segment_exactly_at_the_box_reach_is_kept(monkeypatch, speed):
    """A c-zone lies within its circumradius of its row: on each side of
    the box of the pose rows, a segment at that reach plus 1e-6 m is kept
    and one a float beyond it is not, also above v_max."""
    cfg = DEFAULT_PLANNER
    z = cfg.zones
    r = 0.5 * math.hypot(z.c_length, z.c_width) + 1e-6
    net = single_network("fourway")
    ego = VehicleState(Pose2(0.0, 0.0, 0.3), speed, goal_ref="I0:E.out")
    x0, y0, x1, y1 = (float(v) for v in planner._ego_tree(ego, net, cfg).box)

    def sides(east, west, north, south):
        # one segment beside each side of the box, as long as that side
        return [[east, y0, east, y1], [west, y1, west, y0], [x0, north, x1, north], [x1, south, x0, south]]

    at = (x1 + r, x0 - r, y1 + r, y0 - r)
    beyond = [math.nextafter(v, math.copysign(math.inf, v - c)) for v, c in zip(at, (x1, x0, y1, y0))]
    segs = np.array(sides(*at) + sides(*beyond))
    # a fresh layout, so that its segments and their bounds derive from these
    fresh = single_network("fourway")
    lay = fresh.layouts["I0"]
    monkeypatch.setattr(lay, "boundaries", [seg.reshape(2, 2) for seg in segs])
    monkeypatch.setattr(lay, "markings", [seg.reshape(2, 2) for seg in segs[::-1]])
    kept = []
    real = planner.features_many

    def features_many(*args):
        kept.append((args[4], args[5]))
        return real(*args)

    monkeypatch.setattr(planner, "features_many", features_many)
    planner._ego_tree(ego, fresh, cfg)
    (bsegs, msegs), = kept
    assert np.array_equal(bsegs, segs[:4]) and np.array_equal(msegs, segs[3::-1])


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
    plans = {k: levelk_plan(states, 0, k, net, PlanCache()) for k in range(3)}
    first = {k: DEFAULT_ACTIONS[plan.action_sequence[0]] for k, plan in plans.items()}
    acc1 = first[1].accel
    assert acc1 <= 0.0
    assert plans[1].action_sequence != plans[0].action_sequence
    assert first[0].accel > acc1 or first[0].omega != 0.0
    assert first[2].accel > acc1 or first[2].omega != 0.0


def test_ties_resolve_to_lexicographically_first_sequence():
    # With goal and speed weights zeroed, an unobstructed vehicle scores 0
    # for every sequence; first maximum must be all-maintain.
    net = single_network("fourway")
    w = RewardWeights(goal_dist=0.0, speed=0.0)
    cfg = dataclasses.replace(DEFAULT_PLANNER, weights=w)
    ego = VehicleState(Pose2(-10.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    res = levelk_plan([ego], 0, 2, net, PlanCache(cfg))
    assert res.action_sequence == [0, 0, 0, 0]
    assert res.value == 0.0


def test_shared_cache_holds_every_subplan_once():
    states, net = _crossing_scene()
    states = states + [
        VehicleState(Pose2(-2.0, 6.0, -math.pi / 2), 2.0, goal_ref="I0:S.out")
    ]
    cache = PlanCache()
    expert_policy(states, 0, 2, net, cache)
    # one k=2 query pulls in both opponents at k=1 and all three at k=0
    assert set(cache) == {(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (0, 2)}
    for i in range(3):
        for k in (1, 2):
            expert_policy(states, i, k, net, cache)
    assert set(cache) == {(i, k) for i in range(3) for k in range(3)}
    again = expert_policy(states, 0, 2, net, cache)
    assert again is cache[(0, 2)]


def test_far_vehicles_are_ignored(monkeypatch):
    net = single_network("fourway")
    ego = VehicleState(Pose2(-12.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    far = VehicleState(Pose2(38.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    solo = levelk_plan([ego], 0, 2, net, PlanCache())
    seen = _spy_opponents(monkeypatch)
    paired = levelk_plan([ego, far], 0, 2, net, PlanCache())
    assert paired.action_sequence == solo.action_sequence
    assert paired.value == pytest.approx(solo.value)
    assert seen == [{}]


def test_vehicle_exactly_at_the_interaction_radius_is_an_opponent(monkeypatch):
    # centers 5 m apart exactly (a 3-4-5 offset): inside a radius of 5,
    # outside the next float below it
    net = single_network("fourway")
    ego = VehicleState(Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    other = VehicleState(Pose2(-17.0, 2.0, -math.pi / 2), 3.0, goal_ref="I0:S.out")
    states = [ego, None, other]
    assert planner.near_indices(states, 0, 5.0) == [2]
    assert planner.near_indices(states, 0, math.nextafter(5.0, 0.0)) == []
    seen = _spy_opponents(monkeypatch)
    for radius, opponents in ((5.0, [2]), (math.nextafter(5.0, 0.0), [])):
        cfg = dataclasses.replace(DEFAULT_PLANNER, interaction_radius_m=radius)
        level0_plan(states, 0, net, PlanCache(cfg))
        assert list(seen[-1]) == opponents
        levelk_plan(states, 0, 1, net, PlanCache(cfg))
        assert list(seen[-1]) == opponents  # the ego's search follows its opponents


def test_none_slots_are_skipped():
    # despawned vehicles leave None holes in the roster
    states, net = _crossing_scene()
    res_full = levelk_plan([states[0]], 0, 1, net, PlanCache())
    res_holes = levelk_plan([states[0], None], 0, 1, net, PlanCache())
    assert res_holes.action_sequence == res_full.action_sequence


def test_reported_trajectory_replays_the_sequence(monkeypatch):
    states, net = _crossing_scene()
    seen = _spy_opponents(monkeypatch)
    res = levelk_plan(states, 0, 2, net, PlanCache())
    acts = [DEFAULT_ACTIONS[a] for a in res.action_sequence]
    expect = rollout(states[0].pose, states[0].speed, acts)
    assert np.allclose(res.trajectory, expect)
    assert set(seen[-1]) == {1}
    assert seen[-1][1].shape == (5, 4)


def test_level0_freezes_opponents(monkeypatch):
    states, net = _crossing_scene()
    seen = _spy_opponents(monkeypatch)
    level0_plan(states, 0, net, PlanCache())
    assert len(seen) == 1
    tr = seen[0][1]
    assert np.all(tr[:, 0] == states[1].pose.x)
    assert np.all(tr[:, 3] == 0.0)


def test_expert_rejects_out_of_range_level():
    states, net = _crossing_scene()
    with pytest.raises(ValueError):
        expert_policy(states, 0, 3, net, PlanCache())
    with pytest.raises(ValueError):
        expert_policy(states, 0, -1, net, PlanCache())


def test_horizon_one_reduces_to_greedy_step():
    cfg = dataclasses.replace(DEFAULT_PLANNER, horizon_n=1)
    rng = np.random.default_rng(99)
    for _ in range(6):
        states, net = random_plan_scene(rng, n_vehicles=2)
        seq, val = exhaustive_plan(states, 0, 1, net, cfg)
        res = levelk_plan(states, 0, 1, net, PlanCache(cfg))
        assert res.action_sequence == seq
        assert len(res.action_sequence) == 1
