"""Encodings, datasets, the classifier, and the aggregation loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from intersim import imitation as im
from intersim.dynamics import PHASE_APPROACH, Pose2, VehicleState
from intersim.geometry import single_network
from intersim.imitation import (
    ADAPTIVE_DIM,
    DaggerConfig,
    DemoDataset,
    DistilledTraffic,
    EGO_BLOCK,
    LEVELK_DIM,
    PolicyApproximator,
    SENTINEL_DX_M,
    SLOT_WIDTH,
    TrainConfig,
    adaptive_feature_names,
    behavioral_clone_train,
    collect_expert_rollouts,
    collect_probes,
    dagger_train,
    dagger_train_adaptive,
    default_encoding,
    encode_state,
    encode_state_adaptive,
    evaluate_match,
    levelk_feature_names,
    wilson_interval,
)
from intersim.planner import expert_policy

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
    xa = encode_state_adaptive(states, 0, {1: 2, 2: 1}, net)
    assert xa.shape == (ADAPTIVE_DIM,)
    names = levelk_feature_names()
    assert len(names) == LEVELK_DIM
    assert len(set(names)) == LEVELK_DIM
    anames = adaptive_feature_names()
    assert len(anames) == ADAPTIVE_DIM
    assert len(set(anames)) == ADAPTIVE_DIM


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
    r_mid = lay.params["island_radius"] + 0.5 * lay.params["lane_width"]
    # on the ring centerline at angle 0, heading along the CCW tangent
    st = VehicleState(Pose2(r_mid, 0.0, math.pi / 2), 2.0, goal_ref="I0:ring.q1")
    x = encode_state([st], 0, 1, net)
    assert x[12] == pytest.approx(0.0, abs=1e-12)
    assert x[13] == pytest.approx(1.0)
    # 1 m outside the ring radius
    st2 = VehicleState(Pose2(r_mid + 1.0, 0.0, math.pi / 2), 2.0, goal_ref="I0:ring.q1")
    x2 = encode_state([st2], 0, 1, net)
    assert abs(x2[12]) == pytest.approx(0.25)


def test_adaptive_encoding_carries_signed_level_estimates():
    states, net = _scene()
    x = encode_state_adaptive(states, 0, {1: 2, 2: 1}, net)
    ch0 = EGO_BLOCK + (SLOT_WIDTH + 1) * 0 + SLOT_WIDTH
    ch1 = EGO_BLOCK + (SLOT_WIDTH + 1) * 1 + SLOT_WIDTH
    assert x[ch0] == 1.0  # nearest opponent believed level-2
    assert x[ch1] == -1.0  # farther one believed level-1
    # absent estimates default to the cautious model
    x_def = encode_state_adaptive(states, 0, {}, net)
    assert x_def[ch0] == -1.0 and x_def[ch1] == -1.0
    # empty slots keep a zero estimate channel
    ch_empty = EGO_BLOCK + (SLOT_WIDTH + 1) * 5 + SLOT_WIDTH
    assert x[ch_empty] == 0.0


def test_encoding_is_pure_and_deterministic():
    states, net = _scene()
    before = [(s.pose.x, s.pose.y, s.pose.theta, s.speed) for s in states]
    a = encode_state(states, 0, 2, net)
    b = encode_state(states, 0, 2, net)
    assert np.array_equal(a, b)
    assert [(s.pose.x, s.pose.y, s.pose.theta, s.speed) for s in states] == before


# ---------------------------------------------------------------------------
# dataset persistence


def test_dataset_csv_roundtrip_is_byte_stable(tmp_path):
    ds = DemoDataset(4, ["a", "b", "c", "d"])
    ds.append(np.array([0.1, 1.0 / 3.0, -2.5e-7, 100.0]), 3)
    ds.append(np.array([-0.0, 1e-300, math.pi, -5.0]), 0)
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    ds.to_csv(str(p1))
    DemoDataset.from_csv(str(p1)).to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    back = DemoDataset.from_csv(str(p1))
    X, y = back.arrays()
    assert X.shape == (2, 4) and list(y) == [3, 0]
    assert back.feature_names == ["a", "b", "c", "d"]


def test_dataset_rejects_bad_rows():
    ds = DemoDataset(3)
    with pytest.raises(ValueError):
        ds.append(np.zeros(4), 0)
    with pytest.raises(ValueError):
        ds.append(np.zeros(3), 6)
    with pytest.raises(ValueError):
        ds.append(np.zeros(3), -1)
    assert len(ds) == 0


def test_dataset_requires_label_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        DemoDataset.from_csv(str(p))


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


def test_clone_train_rejects_empty_and_fits_small_data():
    with pytest.raises(ValueError):
        behavioral_clone_train(DemoDataset(LEVELK_DIM))
    cfg = DaggerConfig(n_vehicles=2, t_max=3)
    ds = collect_expert_rollouts(1, cfg, seed=11)
    assert len(ds) == 2 * 3 * 2  # vehicles x ticks x levels
    pol = behavioral_clone_train(
        ds, TrainConfig(hidden=16, min_steps=50, final_epochs=50.0, final_max_steps=500)
    )
    X, y = ds.arrays()
    assert (pol.predict(X) == y).mean() > 0.3  # far above the 1/6 floor


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
    acts = res.policy.act(states, [0, 1, 2], [1, 2, 1], net)
    assert acts.shape == (3,)
    assert np.all((0 <= acts) & (acts < 6))


def test_dagger_early_stop_by_calm_streak():
    cfg = DaggerConfig(
        n_max=10,
        t_max=2,
        n_vehicles=2,
        seed=5,
        train=TrainConfig(hidden=8, min_steps=10, max_steps=20),
        stop_disagreement_below=2.0,  # always satisfied
        stop_patience=1,
    )
    res = dagger_train(cfg)
    assert len(res.history) == 1


def test_adaptive_dagger_smoke_run():
    cfg = DaggerConfig(
        n_max=1,
        t_max=3,
        n_vehicles=2,
        seed=4,
        train=TrainConfig(hidden=8, min_steps=20, max_steps=40, final_epochs=1.0, final_max_steps=60),
    )
    res = dagger_train_adaptive(cfg)
    assert res.policy.sizes == [ADAPTIVE_DIM, 8, 6]
    assert res.policy.encoding["variant"] == "adaptive"
    states, net = _scene()
    x = encode_state_adaptive(states, 0, {1: 1, 2: 2}, net)
    acts = res.policy.predict(x)
    assert acts.shape == (1,)
    assert 0 <= acts[0] < 6


def test_adaptive_dagger_at_one_level():
    # beliefs span the trained levels only, also after the ego respawns
    # (at the second tick under this seed)
    cfg = DaggerConfig(
        n_max=1,
        t_max=4,
        n_vehicles=3,
        k_max=1,
        seed=5,
        train=TrainConfig(hidden=4, min_steps=5, max_steps=10, final_epochs=1.0, final_max_steps=10),
    )
    res = dagger_train_adaptive(cfg)
    assert [h["episode"] for h in res.history] == [1]
    assert res.history[0]["dataset"] == len(res.dataset)


# ---------------------------------------------------------------------------
# held-out evaluation and the traffic adapter


def test_probe_rollouts_move_all_vehicles_from_one_snapshot():
    # every vehicle of a tick must decide on that tick's snapshot, not on
    # the poses of vehicles that already moved
    def shown(states):
        return [(s.pose.x, s.pose.y, s.speed) for s in states if s is not None]

    seen = []

    class Recorder:
        def act(self, states, indices, levels, network):
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


def test_probe_match_pipeline_on_a_tiny_policy():
    cfg = DaggerConfig(n_vehicles=2, t_max=2)
    ds = collect_expert_rollouts(1, cfg, seed=3)
    pol = behavioral_clone_train(
        ds, TrainConfig(hidden=8, min_steps=30, final_epochs=20.0, final_max_steps=200)
    )
    probes = collect_probes(pol, 1, cfg, seed=7)
    assert len(probes) == 2 * 2 * 2
    out = evaluate_match(pol, probes)
    assert out["n"] == len(probes)
    hits = sum(
        int(pol.predict(encode_state(s, i, k, net))[0])
        == expert_policy(s, i, k, net).action_sequence[0]
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
    out = traffic.select(states, levels, [0, 1, 2], net, {})
    assert out == {i: int(pol.predict(encode_state(states, i, levels[i], net))[0]) for i in range(3)}
    assert traffic.select(states, levels, [], net, {}) == {}
    assert pol.act(states, [], [], net).shape == (0,)
