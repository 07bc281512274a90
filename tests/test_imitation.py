"""Encodings, datasets, the classifier, and the aggregation loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from encode_oracle import encode_row, opponent_order
from fit_oracle import reference_fit

from intersim import controllers
from intersim import imitation as im
from intersim import scene
from intersim.dynamics import DEFAULT_ACTIONS, PHASE_APPROACH, Pose2, VehicleState, step, update_goal
from intersim.geometry import ISLAND_RADIUS_M, LANE_WIDTH_M, make_city, single_network
from intersim.imitation import (
    DaggerConfig,
    DemoDataset,
    DistilledTraffic,
    EGO_BLOCK,
    LEVELK_DIM,
    M_NEAR,
    PolicyApproximator,
    SENTINEL_DX_M,
    SLOT_WIDTH,
    TrainConfig,
    collect_probes,
    dagger_train,
    default_encoding,
    encode_many,
    encode_state,
    evaluate_match,
    levelk_feature_names,
    wilson_interval,
)
from intersim.planner import HORIZON_N, INTERACTION_RADIUS_M, K_MAX, PlanCache, expert_policy, near_indices
from intersim.scene import spawn_vehicle

POS_SCALE = 40.0


def _scene():
    net = single_network("fourway")
    ego = VehicleState(
        Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out", phase=PHASE_APPROACH
    )
    opp = VehicleState(
        Pose2(2.0, -8.0, math.pi / 2), 2.0, goal_ref="I0:N.out", phase=PHASE_APPROACH
    )
    far = VehicleState(
        Pose2(2.0, 20.0, -math.pi / 2), 1.0, goal_ref="I0:S.out", phase=PHASE_APPROACH
    )
    return [ego, opp, far], net


# ---------------------------------------------------------------------------
# encodings


def test_encoding_dimensions_and_names_line_up():
    states, net = _scene()
    x = encode_state(states, 0, 1, net)
    assert x.shape == (LEVELK_DIM,)
    names = levelk_feature_names()
    assert len(names) == LEVELK_DIM
    assert len(set(names)) == LEVELK_DIM


def test_commanded_level_is_a_trailing_one_hot():
    states, net = _scene()
    x1 = encode_state(states, 0, 1, net)
    x2 = encode_state(states, 0, 2, net)
    assert np.array_equal(x1[:-2], x2[:-2])
    assert list(x1[-2:]) == [1.0, 0.0]
    assert list(x2[-2:]) == [0.0, 1.0]
    with pytest.raises(ValueError):
        encode_state(states, 0, 0, net)
    with pytest.raises(ValueError):
        encode_state(states, 0, 3, net)


def test_layout_kind_one_hot_follows_the_label():
    for kind, label in (("fourway", 1), ("tshape", 2), ("roundabout", 3)):
        net = single_network(kind)
        lay = net.layouts["I0"]
        lane_id = next(lid for lid, ln in lay.lanes.items() if ln.kind == "out")
        st = VehicleState(Pose2(0.0, -20.0, math.pi / 2), 2.0, goal_ref=f"I0:{lane_id}")
        x = encode_state([st], 0, 1, net)
        hot = x[-5:-2]  # layout block sits between the slots and the level
        assert list(hot) == [1.0 if i == label - 1 else 0.0 for i in range(3)]


def test_empty_slots_read_as_far_stopped_traffic():
    net = single_network("fourway")
    st = VehicleState(Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    x = encode_state([st], 0, 1, net)
    far = SENTINEL_DX_M / POS_SCALE
    for slot in range(6):
        base = EGO_BLOCK + SLOT_WIDTH * slot
        block = x[base : base + SLOT_WIDTH]
        assert block == pytest.approx([far, 0.0, far, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def test_opponent_slots_fill_nearest_first():
    states, net = _scene()
    x = encode_state(states, 0, 1, net)
    # slot 0 holds the opponent at ~22.8 m, slot 1 the one at ~31 m
    dx0 = x[EGO_BLOCK] * POS_SCALE
    dy0 = x[EGO_BLOCK + 1] * POS_SCALE
    assert (dx0, dy0) == pytest.approx((22.0, -6.0))
    dx1 = x[EGO_BLOCK + SLOT_WIDTH] * POS_SCALE
    dy1 = x[EGO_BLOCK + SLOT_WIDTH + 1] * POS_SCALE
    assert (dx1, dy1) == pytest.approx((22.0, 22.0))


def test_lane_tracking_channels_vanish_on_the_centerline():
    net = single_network("fourway")
    # exactly on the goal-lane centerline, heading along it
    st = VehicleState(Pose2(-20.0, -2.0, 0.0), 3.0, goal_ref="I0:E.out")
    x = encode_state([st], 0, 1, net)
    assert x[12] == pytest.approx(0.0, abs=1e-12)
    assert x[13] == pytest.approx(1.0)
    assert x[14] == pytest.approx(0.0, abs=1e-12)
    # 1 m off the centerline: a quarter lane width of cross-track error
    st2 = VehicleState(Pose2(-20.0, -1.0, 0.0), 3.0, goal_ref="I0:E.out")
    x2 = encode_state([st2], 0, 1, net)
    assert abs(x2[12]) == pytest.approx(0.25)
    # heading 90 degrees off the lane
    st3 = VehicleState(Pose2(-20.0, -2.0, math.pi / 2), 3.0, goal_ref="I0:E.out")
    x3 = encode_state([st3], 0, 1, net)
    assert x3[13] == pytest.approx(0.0, abs=1e-12)
    assert abs(x3[14]) == pytest.approx(1.0)


def test_lane_tracking_handles_ring_arcs():
    net = single_network("roundabout")
    lay = net.layouts["I0"]
    r_mid = ISLAND_RADIUS_M + 0.5 * LANE_WIDTH_M
    # on the ring centerline at angle 0, heading along the CCW tangent
    st = VehicleState(Pose2(r_mid, 0.0, math.pi / 2), 2.0, goal_ref="I0:ring.q1")
    x = encode_state([st], 0, 1, net)
    assert x[12] == pytest.approx(0.0, abs=1e-12)
    assert x[13] == pytest.approx(1.0)
    # 1 m outside the ring radius
    st2 = VehicleState(Pose2(r_mid + 1.0, 0.0, math.pi / 2), 2.0, goal_ref="I0:ring.q1")
    x2 = encode_state([st2], 0, 1, net)
    assert abs(x2[12]) == pytest.approx(0.25)


def test_encoding_is_pure_and_deterministic():
    states, net = _scene()
    before = [(s.pose.x, s.pose.y, s.pose.theta, s.speed) for s in states]
    a = encode_state(states, 0, 2, net)
    b = encode_state(states, 0, 2, net)
    assert np.array_equal(a, b)
    assert [(s.pose.x, s.pose.y, s.pose.theta, s.speed) for s in states] == before


def _traffic(kind, seed, n_vehicles):
    """n_vehicles spawned 3 m apart that then drive 25 random ticks, so
    that phases, goal lanes and ring arcs vary, with slot 1 left empty."""
    net = make_city() if kind == "city" else single_network(kind)
    rng = np.random.default_rng(seed)
    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene, "MIN_SEPARATION_M", 3.0)
        for _ in range(n_vehicles):
            states.append(spawn_vehicle(net, states, rng))
    for _ in range(25):
        for st in states:
            if st is not None:
                st.pose, st.speed = step(st.pose, st.speed, DEFAULT_ACTIONS[int(rng.integers(6))])
                update_goal(st, net)
    states[1] = None
    return states, net


def _with_ties(states, net):
    """Appends an ego at an exact point and four opponents around it: one
    4 m north before one 4 m east (equal distance, so the bearing decides)
    and two on the same point 3 m west (so the slot decides). Returns the
    ego's slot."""
    name = net.names[0]
    lay = net.layouts[name]
    goal = f"{name}:{next(iter(lay.lanes))}"
    ex, ey = lay.center[0] + 1.5, lay.center[1] - 2.0
    for dx, dy in ((0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (-3.0, 0.0), (-3.0, 0.0)):
        states.append(VehicleState(Pose2(ex + dx, ey + dy, 0.5), 1.5, goal_ref=goal))
    return len(states) - 5


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("kind", ["fourway", "tshape", "roundabout", "city"])
def test_encode_many_is_byte_equal_to_the_per_row_oracle(kind):
    """Crowded scenes with tied distances and sparse scenes with sentinel
    slots, every live ego at both levels and some egos twice more."""
    for seed, n_vehicles, ties in ((0, 12, True), (1, 3, False)):
        states, net = _traffic(kind, seed, n_vehicles)
        if ties:
            ego = _with_ties(states, net)
            order = opponent_order(states, ego)
            # the tie-breaks decide: east before north, then the lower slot
            assert order.index(ego + 2) < order.index(ego + 1)
            assert order.index(ego + 3) < order.index(ego + 4)
        live = [i for i, st in enumerate(states) if st is not None]
        indices = [i for i in live for _ in (1, 2)] + live[:2]
        levels = [1, 2] * len(live) + [2, 1]
        got = encode_many(states, indices, levels, net, PlanCache())
        want = np.stack([encode_row(states, i, k, net, M_NEAR) for i, k in zip(indices, levels)])
        assert got.shape == (len(indices), LEVELK_DIM)
        assert np.array_equal(_bits(got), _bits(want))
        for r in (0, len(indices) - 1):
            assert np.array_equal(_bits(encode_state(states, indices[r], levels[r], net)), _bits(want[r]))
        if not ties:
            assert len(live) - 1 < M_NEAR  # sentinel slots are in play


def test_encode_many_refuses_levels_outside_the_behavioral_set():
    states, net = _scene()
    for bad in (0, 3):
        with pytest.raises(ValueError):
            encode_many(states, [0, 1], [1, bad], net, PlanCache())
    assert encode_many(states, [], [], net, PlanCache()).shape == (0, LEVELK_DIM)


def test_exact_distance_ties_order_by_bearing_then_slot():
    """Two ties, each between a lower slot to the north and a higher slot
    to the east at exactly the same distance: one inside the M_NEAR slots
    (4 m) and one across the cut (5 m), where only the eastern one gets a
    slot. Slot order alone would pick the northern one both times."""
    net = single_network("fourway")
    ex, ey = 1.5, -2.0
    offsets = [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (-2.0, 0.0), (0.0, -3.0), (3.0, 3.0), (0.0, 5.0), (5.0, 0.0)]
    states = [VehicleState(Pose2(ex + dx, ey + dy, 0.3), 2.0, goal_ref="I0:E.out") for dx, dy in offsets]
    assert math.hypot(*offsets[1]) == math.hypot(*offsets[2]) and math.hypot(*offsets[6]) == math.hypot(*offsets[7])
    order = opponent_order(states, 0)[:M_NEAR]
    assert order == [3, 4, 2, 1, 5, 7]
    got = encode_many(states, [0, 0], [1, 2], net, PlanCache())
    assert np.array_equal(_bits(got), _bits(np.stack([encode_row(states, 0, k, net, M_NEAR) for k in (1, 2)])))
    for slot, j in enumerate(order):
        base = EGO_BLOCK + SLOT_WIDTH * slot
        assert tuple(got[0, base : base + 2] * POS_SCALE) == pytest.approx(offsets[j])


def _random_levelk_policy():
    return PolicyApproximator([LEVELK_DIM, 16, len(DEFAULT_ACTIONS)], default_encoding(), seed=3)


def _distilled_ticks(kind, n_ticks):
    """(s_t, levels, background slots) at select of the first n_ticks
    ticks of seeded episodes with distilled traffic and the adaptive AV,
    both on a random-weight classifier, and the network."""
    policy = _random_levelk_policy()
    ticks = []

    class Recording(DistilledTraffic):
        def select(self, states, levels, indices, network, plans):
            ticks.append(([s.copy() if s is not None else None for s in states], list(levels), list(indices)))
            return super().select(states, levels, indices, network, plans)

    cfg = scene.SceneConfig(network=single_network(kind), n_vehicles=4, av_policy="adaptive", t_limit_s=30.0)
    seed = 0
    while len(ticks) < n_ticks:
        ep = scene.init_episode(cfg, seed=(31, seed), collect_log=False)
        av = controllers.AdaptiveController(predictor=policy.act)
        while not ep.done and len(ticks) < n_ticks:
            scene.sim_step(ep, cfg, Recording(policy), av)
        seed += 1
    return ticks, cfg.network


@pytest.mark.parametrize("kind", ["fourway", "roundabout"])
def test_one_cache_per_tick_encodes_as_fresh_calls_and_the_oracle_do(kind):
    """The rows of select, rollout step 1 and observe of each sampled tick,
    all through one PlanCache (observe's on a copy of s_t, as sim_step
    gives it), are byte-equal to encodings through a fresh cache per call
    and to the per-row oracle; each tick has its own cache."""
    ticks, net = _distilled_ticks(kind, 40)
    shared = 0
    for states, levels, bg in ticks:
        near = near_indices(states, 0, INTERACTION_RADIUS_M) if states[0] is not None else []
        opps = [j for j in bg if j in near]
        prev = [s.copy() if s is not None else None for s in states]
        row_sets = [
            (states, bg, [levels[i] for i in bg]),
            (states, near, [1 + j % 2 for j in near]),
            (prev, [j for j in opps for _ in (1, 2)], [1, 2] * len(opps)),
        ]
        plans = PlanCache()
        for snapshot, indices, ks in row_sets:
            got = encode_many(snapshot, indices, ks, net, plans)
            assert np.array_equal(_bits(got), _bits(encode_many(snapshot, indices, ks, net, PlanCache())))
            want = [encode_row(snapshot, i, k, net, M_NEAR) for i, k in zip(indices, ks)]
            assert np.array_equal(_bits(got), _bits(np.array(want).reshape(len(want), LEVELK_DIM)))
        assert plans.heads.keys() == set(bg) | set(near)
        shared += bool(opps)
    assert shared >= 20


def test_a_distilled_tick_builds_each_head_of_s_t_once(monkeypatch):
    """One sim_step with distilled traffic and the adaptive AV builds the
    head of each background vehicle of s_t once (select builds them;
    rollout step 1 and observe read them), and rollout steps 2 to
    HORIZON_N build one head per opponent they move."""
    read_from, built = [], []
    read_live, common_block = im._read_live, im._common_block

    def spy_read(states, network):
        read_from.append(states)
        return read_live(states, network)

    def spy_block(live, i):
        built.append((read_from[-1], i))
        return common_block(live, i)

    monkeypatch.setattr(im, "_read_live", spy_read)
    monkeypatch.setattr(im, "_common_block", spy_block)
    policy = _random_levelk_policy()
    s_t = []

    class Recording(DistilledTraffic):
        def select(self, states, levels, indices, network, plans):
            near = near_indices(states, 0, INTERACTION_RADIUS_M) if states[0] is not None else []
            s_t.append((states, list(indices), near))
            return super().select(states, levels, indices, network, plans)

    cfg = scene.SceneConfig(network=single_network("fourway"), n_vehicles=3, av_policy="adaptive", t_limit_s=15.0)
    rolled = 0
    for seed in range(4):
        ep = scene.init_episode(cfg, seed=(1, seed), collect_log=False)
        av = controllers.AdaptiveController(predictor=policy.act)
        while not ep.done:
            built.clear()
            scene.sim_step(ep, cfg, Recording(policy), av)
            states, bg, near = s_t[-1]
            assert sorted(i for src, i in built if src is states) == sorted(bg)
            later = sorted(i for src, i in built if src is not states)
            assert later == sorted(near * (HORIZON_N - 1))
            rolled += bool(near)
    assert rolled >= 60


# ---------------------------------------------------------------------------
# dataset persistence


def _read_dataset_csv(path):
    """The DemoDataset a to_csv file holds: the header's names, then one
    row of floats and a trailing label per line."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        assert header[-1] == "label"
        ds = DemoDataset(header[:-1])
        for line in f:
            parts = line.rstrip("\n").split(",")
            ds.append(np.array([float(v) for v in parts[:-1]]), int(parts[-1]))
    return ds


def test_dataset_csv_roundtrip_is_byte_stable(tmp_path):
    ds = DemoDataset(["a", "b", "c", "d"])
    ds.append(np.array([0.1, 1.0 / 3.0, -2.5e-7, 100.0]), 3)
    ds.append(np.array([-0.0, 1e-300, math.pi, -5.0]), 0)
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    ds.to_csv(str(p1))
    back = _read_dataset_csv(str(p1))
    back.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    X, y = back.arrays()
    assert X.tobytes() == ds.arrays()[0].tobytes() and list(y) == [3, 0]
    assert back.feature_names == ["a", "b", "c", "d"]


def test_dataset_rejects_bad_rows():
    ds = DemoDataset(["a", "b", "c"])
    with pytest.raises(ValueError):
        ds.append(np.zeros(4), 0)
    with pytest.raises(ValueError):
        ds.append(np.zeros(3), 6)
    with pytest.raises(ValueError):
        ds.append(np.zeros(3), -1)
    assert len(ds) == 0


# ---------------------------------------------------------------------------
# the classifier


def test_wilson_interval_known_values():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(0.2775, abs=1e-3)  # classic 0-of-10 bound
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0)
    assert 0.6 < lo < 1.0
    # the interval always brackets the point estimate and narrows with n
    lo1, hi1 = wilson_interval(90, 100)
    lo2, hi2 = wilson_interval(900, 1000)
    assert lo1 < 0.9 < hi1
    assert (hi2 - lo2) < (hi1 - lo1)


def test_policy_json_roundtrip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(5)
    pol = PolicyApproximator([10, 8, 6], default_encoding(), seed=5)
    X = rng.normal(size=(50, 10))
    path = tmp_path / "pol.json"
    pol.save(str(path))
    back = PolicyApproximator.load(str(path))
    assert back.sizes == pol.sizes
    assert back.encoding == pol.encoding
    assert np.array_equal(back.predict(X), pol.predict(X))
    assert np.allclose(back.theta(), pol.theta())


def test_policy_rejects_foreign_formats(tmp_path):
    pol = PolicyApproximator([4, 3, 6], default_encoding())
    data = pol.to_json()
    data["format_version"] = 99
    with pytest.raises(ValueError):
        PolicyApproximator.from_json(data)
    with pytest.raises(ValueError):
        PolicyApproximator([4, 3], default_encoding())
    with pytest.raises(ValueError):
        pol.set_theta(np.zeros(7))


def test_argmax_ties_resolve_to_the_lowest_action():
    pol = PolicyApproximator([5, 4, 6], default_encoding(), seed=0)
    pol.set_theta(np.zeros_like(pol.theta()))
    X = np.random.default_rng(0).normal(size=(20, 5))
    assert np.all(pol.predict(X) == 0)


def test_fit_is_deterministic_given_seeds():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(400, 6))
    y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
    cfg = TrainConfig(hidden=12)
    thetas = []
    for _ in range(2):
        pol = PolicyApproximator([6, 12, 6], default_encoding(), seed=3)
        pol.fit(X, y, cfg, np.random.default_rng(42), steps=500)
        thetas.append(pol.theta())
    assert np.array_equal(thetas[0], thetas[1])


def test_fit_learns_a_separable_problem():
    rng = np.random.default_rng(2)
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    X = np.concatenate([rng.normal(c, 0.4, size=(200, 2)) for c in centers])
    y = np.repeat(np.arange(3), 200)
    pol = PolicyApproximator([2, 16, 6], default_encoding(), seed=1)
    pol.fit(X, y, TrainConfig(hidden=16), np.random.default_rng(7), steps=3000)
    assert (pol.predict(X) == y).mean() > 0.95


def _labelled(rng, n, d):
    X = rng.normal(size=(n, d))
    return X, (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int) + (X[:, 2] > 1.0).astype(int)


@pytest.mark.parametrize(
    "hidden, n, batch_size, steps",
    [
        (12, 400, 64, 40),  # one hidden layer; 400 rows re-permute after 6 batches
        ((10, 7), 400, 64, 40),  # two hidden layers
        (12, 23, 64, 15),  # fewer rows than a batch: every step takes all of them
        ((10, 7), 300, 32, 1),  # one step: the learning rate does not anneal
        (12, 130, 64, 5),  # 130 rows: batches at 0 and 64, then a re-permute
    ],
)
def test_fit_equals_the_per_layer_reference_bit_for_bit(hidden, n, batch_size, steps):
    """The flat-vector step with products into buffers gives the theta
    bytes and the loss of the per-layer loop."""
    X, y = _labelled(np.random.default_rng(n), n, 9)
    cfg = TrainConfig(hidden=hidden, batch_size=batch_size)
    sizes = [9, *([hidden] if isinstance(hidden, int) else hidden), 6]
    pol = PolicyApproximator(sizes, default_encoding(), seed=4)
    want_theta, want_loss = reference_fit(pol, X, y, cfg, np.random.default_rng(11), steps)
    loss = pol.fit(X, y, cfg, np.random.default_rng(11), steps)
    assert pol.theta().tobytes() == want_theta.tobytes()
    assert loss == want_loss


def test_fit_layer_views_share_theta():
    """ws and bs stay views of the parameters through a fit and a
    set_theta, so logits read what fit wrote."""
    X, y = _labelled(np.random.default_rng(3), 100, 5)
    pol = PolicyApproximator([5, 8, 6], default_encoding(), seed=2)
    pol.fit(X, y, TrainConfig(hidden=8), np.random.default_rng(1), 10)
    theta = pol.theta()
    flat = np.concatenate([part for w, b in zip(pol.ws, pol.bs) for part in (w.ravel(), b)])
    assert flat.tobytes() == theta.tobytes()
    pol.set_theta(theta[::-1].copy())
    assert pol.ws[0].ravel()[0] == theta[-1]


def test_a_diverging_fit_raises():
    """The loss is floored at log(1e-12), so a runaway step shows as
    overflow or as runaway weights: inputs of order 100 at lr 50 overflow
    the logits; unit-scale inputs at lr 50 keep every loss finite while
    the weights grow past PARAM_LIMIT."""
    X, y = _labelled(np.random.default_rng(5), 200, 6)
    for scale in (100.0, 1.0):
        pol = PolicyApproximator([6, 12, 6], default_encoding(), seed=0)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged"):
            pol.fit(scale * X, y, TrainConfig(hidden=12, lr=50.0), np.random.default_rng(0), 300)


def test_a_fit_whose_hidden_layer_dies_raises():
    """At lr 50, one DAgger episode of 4 ticks with 2 vehicles and 4 hidden
    units ends with every rectifier dead on every row of its dataset,
    which holds two labels, so it would answer one class for every input.
    The parameters stay under PARAM_LIMIT, so only the dead layer tells."""
    cfg = DaggerConfig(n_max=1, t_max=4, n_vehicles=2, train=TrainConfig(hidden=4, lr=50.0, min_steps=300))
    with pytest.raises(RuntimeError, match="diverged .hidden layer 1 is dead on every row"):
        dagger_train(cfg)


# ---------------------------------------------------------------------------
# aggregation loop


def test_dagger_gate_appends_only_disagreements(monkeypatch):
    # expert frozen at `maintain`, classifier voting the same: no rows
    fake = lambda states, i, k, net, cfg, cache=None: SimpleNamespace(
        action_sequence=[0, 0, 0, 0]
    )
    monkeypatch.setattr(im, "expert_policy", fake)
    monkeypatch.setattr(
        im.PolicyApproximator,
        "predict",
        lambda self, X: np.zeros(np.atleast_2d(X).shape[0], dtype=int),
    )
    cfg = DaggerConfig(n_max=1, t_max=3, n_vehicles=2, train=TrainConfig(hidden=4))
    res = dagger_train(cfg)
    assert len(res.dataset) == 0
    assert res.history[0]["disagreement"] == 0.0
    # classifier voting something else: every query lands in the dataset
    monkeypatch.setattr(
        im.PolicyApproximator,
        "predict",
        lambda self, X: np.ones(np.atleast_2d(X).shape[0], dtype=int),
    )
    res = dagger_train(cfg)
    assert res.history[0]["disagreement"] == 1.0
    assert len(res.dataset) == res.history[0]["dataset"] > 0
    _, labels = res.dataset.arrays()
    assert np.all(labels == 0)  # rows carry the expert's answer, not the guess


def test_dagger_smoke_run_produces_consistent_history():
    cfg = DaggerConfig(
        n_max=2,
        t_max=3,
        n_vehicles=2,
        seed=5,
        train=TrainConfig(hidden=8, min_steps=20, max_steps=40, final_epochs=1.0, final_max_steps=60),
    )
    res = dagger_train(cfg)
    assert [h["episode"] for h in res.history] == [1, 2]
    sizes = [h["dataset"] for h in res.history]
    assert sizes == sorted(sizes)
    assert len(res.dataset) == sizes[-1]
    for h in res.history:
        assert 0.0 <= h["disagreement"] <= 1.0
    assert res.policy.sizes == [LEVELK_DIM, 8, 6]
    states, net = _scene()
    acts = res.policy.act(states, [0, 1, 2], [1, 2, 1], net, PlanCache())
    assert acts.shape == (3,)
    assert np.all((0 <= acts) & (acts < 6))


# ---------------------------------------------------------------------------
# held-out evaluation and the traffic adapter


def test_probe_rollouts_move_all_vehicles_from_one_snapshot():
    # every vehicle of a tick must decide on that tick's snapshot, not on
    # the poses of vehicles that already moved
    def shown(states):
        return [(s.pose.x, s.pose.y, s.speed) for s in states if s is not None]

    seen = []

    class Recorder:
        def act(self, states, indices, levels, network, plans):
            seen.append((shown(states), list(indices)))
            assert set(levels) <= {1, 2}
            return np.ones(len(indices), dtype=int)  # accelerate, so every move changes the poses

    probes = collect_probes(Recorder(), 1, DaggerConfig(n_vehicles=3, t_max=3), seed=7)
    # one act call per tick for all its vehicles, one probe per vehicle and level
    snaps = list({id(snap): snap for snap, _, _, _ in probes}.values())
    assert len(snaps) == 3
    assert seen == [
        (shown(snap), [i for s, i, k, _ in probes if s is snap and k == 1]) for snap in snaps
    ]
    assert all(len(indices) == 3 for _, indices in seen)


def test_the_training_loops_respawn_both_partners_of_a_contact():
    # two vehicles 3 m apart in one lane touch; a third, far away, is fine.
    # Every flag comes from the snapshot before any respawn, so the later
    # partner still sees the earlier one
    net = single_network("fourway")
    states = [
        VehicleState(Pose2(x, -2.0, 0.0), 2.0, goal_ref="I0:W.in", target_lane_seq=["I0:E.out"])
        for x in (-20.0, -17.0)
    ]
    far = VehicleState(Pose2(2.0, -25.0, math.pi / 2), 2.0, goal_ref="I0:S.in", target_lane_seq=["I0:N.out"])
    states = [far, *states]
    before = list(states)
    im._respawn_terminal(states, net, np.random.default_rng(0))
    assert states[0] is far
    assert all(new is not None and new is not old for new, old in zip(states[1:], before[1:]))


@pytest.mark.parametrize("k_max", [K_MAX + 1, 7])
def test_dagger_config_refuses_levels_the_expert_does_not_search(k_max):
    # the loops keep the behavioral levels at or below k_max, so a higher
    # k_max would silently train like K_MAX
    with pytest.raises(ValueError, match="k_max must be at most"):
        DaggerConfig(k_max=k_max)
    assert DaggerConfig(k_max=K_MAX).k_max == K_MAX


def test_probe_match_pipeline_on_a_tiny_policy():
    cfg = DaggerConfig(n_vehicles=2, t_max=2)
    pol = PolicyApproximator([LEVELK_DIM, 8, 6], default_encoding(), seed=3)
    probes = collect_probes(pol, 1, cfg, seed=7)
    assert len(probes) == 2 * 2 * 2
    out = evaluate_match(pol, probes)
    assert out["n"] == len(probes)
    hits = sum(
        int(pol.predict(encode_state(s, i, k, net))[0])
        == expert_policy(s, i, k, net, PlanCache()).action_sequence[0]
        for s, i, k, net in probes
    )
    assert out["match"] == hits / len(probes)
    assert 0.0 <= out["ci_low"] <= out["match"] <= out["ci_high"] <= 1.0
    with pytest.raises(ValueError):
        evaluate_match(pol, [])


def test_distilled_traffic_matches_per_vehicle_queries():
    states, net = _scene()
    pol = PolicyApproximator([LEVELK_DIM, 8, 6], default_encoding(), seed=2)
    traffic = DistilledTraffic(pol)
    levels = {0: 1, 1: 2, 2: 1}
    out = traffic.select(states, levels, [0, 1, 2], net, PlanCache())
    assert out == {i: int(pol.predict(encode_state(states, i, levels[i], net))[0]) for i in range(3)}
    assert traffic.select(states, levels, [], net, PlanCache()) == {}
    assert pol.act(states, [], [], net, PlanCache()).shape == (0,)
