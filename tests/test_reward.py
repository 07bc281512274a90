"""Feature values on constructed scenes, and batch/scalar agreement."""

import math

import numpy as np
import pytest

from intersim import geometry as geo
from intersim import reward as rw
from intersim.geometry import Pose2

from planner_oracle import discounted_return, reward


@pytest.fixture(scope="module")
def fourway():
    return geo.make_fourway()


def feats(pose, speed, others, lay, ref, **kw):
    return rw.features(pose, speed, others, lay, ref, **kw).as_array()


def test_weight_order():
    w = rw.DEFAULT_WEIGHTS.as_array()
    assert np.array_equal(w, [1000.0, 500.0, 50.0, 100.0, 5.0, 1.0])


def test_reward_linear_combination(fourway):
    # fifteen meters from the reference, speed 3, nothing else active
    fv = rw.FeatureVector(0, 0, 0, 0, -15.0, 3.0)
    assert reward(fv) == -72.0


def test_discounted_return():
    assert discounted_return([1.0, 1.0, 1.0, 1.0], 0.8) == pytest.approx(2.952)
    assert discounted_return([], 0.8) == 0.0
    assert discounted_return([2.0], 0.5) == 2.0


def test_collision_zone_feature(fourway):
    ego = Pose2(0.0, -2.0, 0.0)
    ref = (34.0, -2.0)
    close = [Pose2(3.0, -2.0, math.pi)]
    far = [Pose2(8.6, -2.0, math.pi)]
    touching = [Pose2(5.0, -2.0, math.pi)]
    assert feats(ego, 2.0, close, fourway, ref)[0] == -1.0
    assert feats(ego, 2.0, far, fourway, ref)[0] == 0.0
    assert feats(ego, 2.0, touching, fourway, ref)[0] == -1.0  # closed set


def test_safe_zone_feature(fourway):
    ego = Pose2(0.0, -2.0, 0.0)
    ref = (34.0, -2.0)
    at7 = [Pose2(7.0, -2.0, math.pi)]
    at8 = [Pose2(8.0, -2.0, math.pi)]
    at9 = [Pose2(8.5, -2.0, math.pi)]
    assert feats(ego, 2.0, at7, fourway, ref)[3] == -1.0
    assert feats(ego, 2.0, at8, fourway, ref)[3] == -1.0
    assert feats(ego, 2.0, at9, fourway, ref)[3] == 0.0
    # the collision zones are clear in all three
    assert feats(ego, 2.0, at7, fourway, ref)[0] == 0.0


def test_boundary_feature(fourway):
    ref = (34.0, -2.0)
    off_road = Pose2(10.0, -3.5, 0.0)  # zone dips past y = -4
    on_road = Pose2(10.0, -2.0, 0.0)
    assert feats(off_road, 2.0, [], fourway, ref)[1] == -1.0
    assert feats(on_road, 2.0, [], fourway, ref)[1] == 0.0


def test_marking_feature(fourway):
    ref = (34.0, -2.0)
    straddling = Pose2(10.0, 0.5, 0.0)
    clear = Pose2(10.0, -2.0, 0.0)
    assert feats(straddling, 2.0, [], fourway, ref)[2] == -1.0
    assert feats(clear, 2.0, [], fourway, ref)[2] == 0.0


def test_wrong_lane_feature_only_when_exiting(fourway):
    ref = (34.0, -2.0)
    # in the oncoming half of the east arm but not touching the marking
    pose = Pose2(10.0, 1.5, 0.0)
    assert feats(pose, 2.0, [], fourway, ref, exiting=True, target_lane="E.out")[2] == -1.0
    assert feats(pose, 2.0, [], fourway, ref, exiting=False, target_lane="E.out")[2] == 0.0
    # own goal lane never counts against
    good = Pose2(10.0, -1.5, 0.0)
    assert feats(good, 2.0, [], fourway, ref, exiting=True, target_lane="E.out")[2] == 0.0


def test_goal_distance_and_speed(fourway):
    fv = feats(Pose2(4.0, -2.0, 0.0), 3.25, [], fourway, (34.0, -2.0))
    assert fv[4] == -30.0
    assert fv[5] == 3.25
    fv = feats(Pose2(0.0, 0.0, 0.0), 0.0, [], fourway, (10.0, -7.0))
    assert fv[4] == -17.0


def test_features_many_matches_scalar(fourway):
    rng = np.random.default_rng(23)
    roundabout = geo.make_roundabout()
    for lay, target in ((fourway, "E.out"), (roundabout, "N.out")):
        ref = lay.lanes[target].ref_point
        B = 120
        x = rng.uniform(-16, 16, B)
        y = rng.uniform(-16, 16, B)
        th = rng.uniform(-math.pi, math.pi, B)
        v = rng.uniform(0, 5, B)
        exiting = rng.random(B) < 0.5
        opp = np.array([[3.0, -2.0, 2.0], [-6.0, 1.0, -0.5], [10.0, 10.0, 1.0]])
        got = rw.features_many(
            x, y, th, v,
            lay.boundary_segments(),
            lay.marking_segments(),
            lay.straight_lane_rects(),
            target,
            exiting,
            ref,
        )
        rw.opponent_features(got, x, y, np.cos(th), np.sin(th), opp[:, None], [B], rw.DEFAULT_ZONES)
        for i in range(B):
            want = feats(
                Pose2(x[i], y[i], th[i]),
                v[i],
                [Pose2(*o) for o in opp],
                lay,
                ref,
                exiting=bool(exiting[i]),
                target_lane=target,
            )
            assert np.allclose(got[i], want), f"row {i} in {lay.kind}"


def test_features_many_no_opponents(fourway):
    got = rw.features_many(
        np.array([0.0]),
        np.array([-2.0]),
        np.array([0.0]),
        np.array([2.0]),
        fourway.boundary_segments(),
        fourway.marking_segments(),
        fourway.straight_lane_rects(),
        "E.out",
        np.array([False]),
        (34.0, -2.0),
    )
    assert got.shape == (1, 6)
    assert got[0, 0] == 0.0 and got[0, 3] == 0.0


def test_features_many_one_call_equals_one_call_per_instant(fourway):
    # the planner scores several instants at once, each row facing the
    # opponents of its own instant
    rng = np.random.default_rng(31)
    ref = fourway.lanes["E.out"].ref_point
    road = (fourway.boundary_segments(), fourway.marking_segments(), fourway.straight_lane_rects(), "E.out")
    sizes = (3, 18, 108)
    opp = np.stack(
        [rng.uniform(-8, 8, (2, 3)), rng.uniform(-8, 8, (2, 3)), rng.uniform(-math.pi, math.pi, (2, 3))],
        axis=-1,
    )
    batches = [
        (rng.uniform(-16, 16, n), rng.uniform(-16, 16, n), rng.uniform(-math.pi, math.pi, n),
         rng.uniform(0, 5, n), rng.random(n) < 0.5)
        for n in sizes
    ]
    def features(x, y, th, v, ex, opp, counts):
        out = rw.features_many(x, y, th, v, *road, ex, ref)
        rw.opponent_features(out, x, y, np.cos(th), np.sin(th), opp, counts, rw.DEFAULT_ZONES)
        return out

    per_instant = [
        features(x, y, th, v, ex, opp[:, t : t + 1], [len(x)])
        for t, (x, y, th, v, ex) in enumerate(batches)
    ]
    x, y, th, v, ex = (np.concatenate(c) for c in zip(*batches))
    one = features(x, y, th, v, ex, opp, sizes)
    assert np.array_equal(one, np.concatenate(per_instant))
    assert (one[:, 0] == -1.0).any() and (one[:, 2] == -1.0).any()
