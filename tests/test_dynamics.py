"""Kinematics against hand-computed values, plus route progress logic."""

import math

import numpy as np
import pytest

from intersim import geometry as geo
from intersim import planner
from intersim.dynamics import (
    DEFAULT_ACTIONS,
    PHASE_APPROACH,
    PHASE_EXIT,
    PHASE_INSIDE,
    Action,
    Pose2,
    VehicleState,
    hold_trajectory,
    step,
    update_goal,
)
from intersim.scene import detect_success

from planner_oracle import rollout


def test_action_table_order():
    # maintain first (ties resolve to it), hard brake fourth
    assert DEFAULT_ACTIONS == (
        Action(0.0, 0.0),
        Action(2.5, 0.0),
        Action(-2.5, 0.0),
        Action(-5.0, 0.0),
        Action(0.0, math.pi / 4),
        Action(0.0, -math.pi / 4),
    )


def test_omega_groups_in_first_appearance_order():
    """The planner's columns of the action table: its accelerations, its
    distinct turn rates in first-appearance order and each action's group."""
    acc, distinct, group = planner._action_columns(DEFAULT_ACTIONS)
    assert acc.tolist() == [0.0, 2.5, -2.5, -5.0, 0.0, 0.0]
    assert distinct.tolist() == [0.0, math.pi / 4, -math.pi / 4]
    assert group.tolist() == [0, 0, 0, 0, 1, 2]
    for derived, want in zip((planner._ACCELS, planner._OMEGAS, planner._OMEGA_GROUP), (acc, distinct, group)):
        assert np.array_equal(derived, want) and not derived.flags.writeable
    # told apart by bit pattern: -0.0 is its own group
    _, distinct, group = planner._action_columns((Action(0.0, 0.0), Action(1.0, -0.0), Action(2.0, 0.0)))
    assert [math.copysign(1.0, w) for w in distinct] == [1.0, -1.0]
    assert group.tolist() == [0, 1, 0]


def test_step_uses_pre_update_speed_and_heading():
    pose, v = step(Pose2(0.0, 0.0, 0.0), 4.0, Action(2.5, 0.0))
    assert (pose.x, pose.y) == (1.0, 0.0)
    assert v == 4.625
    assert pose.theta == 0.0


def test_step_saturates_speed():
    _, v = step(Pose2(0, 0, 0), 4.5, Action(2.5, 0.0))
    assert v == 5.0
    _, v = step(Pose2(0, 0, 0), 1.0, Action(-5.0, 0.0))
    assert v == 0.0


def test_step_turn_updates_heading_after_position():
    pose, v = step(Pose2(0.0, 0.0, 0.0), 2.0, Action(0.0, math.pi / 4))
    assert pose.x == pytest.approx(0.5)
    assert pose.y == 0.0  # moved along the old heading
    assert pose.theta == pytest.approx(math.pi / 16)
    assert v == 2.0


def test_step_wraps_heading():
    pose, _ = step(Pose2(0, 0, math.pi - 0.01), 0.0, Action(0.0, math.pi / 4))
    assert -math.pi < pose.theta <= math.pi


def test_rollout_from_standstill():
    acts = [Action(2.5, 0.0), Action(2.5, 0.0)]
    tr = rollout(Pose2(0, 0, 0), 0.0, acts)
    assert np.allclose(tr[:, 3], [0.0, 0.625, 1.25])
    assert np.allclose(tr[:, 0], [0.0, 0.0, 0.15625])


def test_hold_trajectory():
    tr = hold_trajectory(Pose2(3.0, -1.0, 0.5), 4)
    assert tr.shape == (5, 4)
    assert np.allclose(tr[:, 0], 3.0) and np.allclose(tr[:, 3], 0.0)


@pytest.fixture
def fourway_net():
    return geo.single_network("fourway")


def test_update_goal_pops_exit_lane(fourway_net):
    # the final lane stays the goal: whether the route is done is detect_success's call
    st = VehicleState(Pose2(10.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out", phase=PHASE_EXIT)
    update_goal(st, fourway_net)
    assert (st.goal_ref, st.target_lane_seq, st.phase) == ("I0:E.out", [], PHASE_EXIT)
    assert detect_success(st, fourway_net)


def _leaving_f_east(x, y):
    """A city vehicle in F's east arm whose route goes on to T1."""
    return VehicleState(
        Pose2(x, y, 0.0), 2.0, goal_ref="F:E.out", target_lane_seq=["T1:E.out"], phase=PHASE_EXIT
    )


def test_update_goal_not_yet_inside_strip():
    st = _leaving_f_east(5.0, -2.0)
    update_goal(st, geo.make_city())
    assert st.goal_ref == "F:E.out"  # zone straddles the core edge


def test_update_goal_wrong_half_does_not_pop():
    st = _leaving_f_east(10.0, 2.0)
    update_goal(st, geo.make_city())
    assert (st.goal_ref, st.target_lane_seq) == ("F:E.out", ["T1:E.out"])


def test_update_goal_phase_transitions(fourway_net):
    st = VehicleState(Pose2(-10.0, -2.0, 0.0), 2.0, goal_ref="I0:E.out")
    assert st.phase == PHASE_APPROACH
    update_goal(st, fourway_net)
    assert st.phase == PHASE_APPROACH
    st.pose = Pose2(-3.0, -2.0, 0.0)
    update_goal(st, fourway_net)
    assert st.phase == PHASE_INSIDE
    st.pose = Pose2(4.5, -2.0, 0.0)
    update_goal(st, fourway_net)
    assert st.phase == PHASE_EXIT


def test_update_goal_chains_targets(fourway_net):
    net = geo.make_city()
    st = VehicleState(
        Pose2(12.0, -2.0, 0.0),
        2.0,
        goal_ref="F:E.out",
        target_lane_seq=["T1:E.out"],
        phase=PHASE_EXIT,
    )
    update_goal(st, net)
    assert st.goal_ref == "T1:E.out"
    assert st.target_lane_seq == []
    assert st.phase == PHASE_APPROACH


def test_update_goal_roundabout_arc_chain():
    net = geo.single_network("roundabout")
    st = VehicleState(
        Pose2(-0.5, 10.2, math.radians(170)),
        2.0,
        goal_ref="I0:ring.q0",
        target_lane_seq=["I0:ring.q1", "I0:W.out"],
        phase=PHASE_INSIDE,
    )
    update_goal(st, net)
    assert st.goal_ref == "I0:ring.q1"
    assert st.phase == PHASE_INSIDE  # same intersection, no reset
    # not reached yet from 92 degrees
    update_goal(st, net)
    assert (st.goal_ref, st.target_lane_seq) == ("I0:ring.q1", ["I0:W.out"])


def test_update_goal_arc_requires_core(fourway_net):
    net = geo.single_network("roundabout")
    # on the north arm at polar angle 90, but outside the ring
    st = VehicleState(
        Pose2(2.0, 20.0, math.radians(270)), 2.0, goal_ref="I0:ring.q0",
        target_lane_seq=["I0:ring.q1"], phase=PHASE_APPROACH,
    )
    update_goal(st, net)
    assert (st.goal_ref, st.target_lane_seq) == ("I0:ring.q0", ["I0:ring.q1"])


def test_vehicle_state_copy_is_deep_enough():
    st = VehicleState(Pose2(1, 2, 0.3), 1.5, goal_ref="I0:E.out", target_lane_seq=["a", "b"])
    cp = st.copy()
    cp.pose.x = 99.0
    cp.target_lane_seq.pop()
    assert st.pose.x == 1.0 and st.target_lane_seq == ["a", "b"]
