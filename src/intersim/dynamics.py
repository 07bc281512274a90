"""Vehicle kinematics and route progress.

Discrete unicycle update with a fixed decision period. Position moves with
the pre-update speed and heading, then speed and heading are updated; speed
saturates to [0, V_MAX] afterwards and the heading is wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import Pose2, RoadNetwork, arc_reached, wrap_angle
from .reward import DEFAULT_ZONES

DT_S = 0.25
V_MIN = 0.0
V_MAX = 5.0

PHASE_APPROACH = "approach"
PHASE_INSIDE = "inside"
PHASE_EXIT = "exit"


class Action(NamedTuple):
    accel: float  # m/s^2
    omega: float  # rad/s


@dataclass(frozen=True)
class ActionSet:
    """Ordered action table. The order is load bearing: value ties during
    planning resolve to the earliest entry, so keep maintain first."""

    actions: Tuple[Action, ...]
    labels: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, i: int) -> Action:
        return self.actions[i]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        acc = np.array([a.accel for a in self.actions])
        om = np.array([a.omega for a in self.actions])
        return acc, om

    @cached_property
    def omega_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct turn rates in first-appearance order, and each
        action's index into them. Actions that share a turn rate take one
        state to one pose and differ only in speed. Rates are told apart by
        bit pattern, so 0.0 and -0.0 stay apart."""
        keys = [float(a.omega).hex() for a in self.actions]
        firsts = list(dict.fromkeys(keys))
        distinct = np.array([float.fromhex(k) for k in firsts])
        group = np.array([firsts.index(k) for k in keys], dtype=np.intp)
        distinct.flags.writeable = group.flags.writeable = False
        return distinct, group


def default_action_set() -> ActionSet:
    return ActionSet(
        actions=(
            Action(0.0, 0.0),
            Action(2.5, 0.0),
            Action(-2.5, 0.0),
            Action(-5.0, 0.0),
            Action(0.0, math.pi / 4),
            Action(0.0, -math.pi / 4),
        ),
        labels=("maintain", "accelerate", "decelerate", "hard_brake", "turn_left", "turn_right"),
    )


DEFAULT_ACTIONS = default_action_set()


@dataclass
class VehicleState:
    """Pose plus route bookkeeping.

    goal_ref is the lane reference currently steered toward
    ("<intersection>:<lane>"), target_lane_seq the remaining ones after it.
    phase tracks core crossing progress and gates the wrong-lane reward
    term.
    """

    pose: Pose2
    speed: float
    goal_ref: Optional[str] = None
    target_lane_seq: List[str] = field(default_factory=list)
    phase: str = PHASE_APPROACH

    def copy(self) -> "VehicleState":
        return VehicleState(
            pose=Pose2(self.pose.x, self.pose.y, self.pose.theta),
            speed=self.speed,
            goal_ref=self.goal_ref,
            target_lane_seq=list(self.target_lane_seq),
            phase=self.phase,
        )


def step(pose: Pose2, speed: float, action: Action) -> Tuple[Pose2, float]:
    """One kinematic update. Position uses the pre-update speed and heading."""
    x = pose.x + speed * math.cos(pose.theta) * DT_S
    y = pose.y + speed * math.sin(pose.theta) * DT_S
    v = speed + action.accel * DT_S
    v = V_MIN if v < V_MIN else (V_MAX if v > V_MAX else v)
    theta = wrap_angle(pose.theta + action.omega * DT_S)
    return Pose2(x, y, theta), v


def rollout(pose: Pose2, speed: float, actions) -> np.ndarray:
    """States visited when applying an action sequence.

    Returns shape (len(actions) + 1, 4) rows of (x, y, theta, v), first row
    the initial state.
    """
    out = np.empty((len(actions) + 1, 4))
    out[0] = (pose.x, pose.y, pose.theta, speed)
    p, v = pose, speed
    for i, act in enumerate(actions):
        p, v = step(p, v, act)
        out[i + 1] = (p.x, p.y, p.theta, v)
    return out


def hold_trajectory(pose: Pose2, n: int) -> np.ndarray:
    """Trajectory of a vehicle treated as a fixed obstacle (zero speed)."""
    out = np.empty((n + 1, 4))
    out[:] = (pose.x, pose.y, pose.theta, 0.0)
    return out


def update_goal(state: VehicleState, network: RoadNetwork) -> None:
    """Advance phase and pop the goal lane when it is reached.

    An exit lane counts as reached when the collision zone lies fully inside
    its arm strip and the center sits in the lane's half of the road. A ring
    arc counts once the polar angle about the core passes the arc end. The
    last goal lane stays when reached: whether the route is done is
    scene.detect_success's call.
    """
    if state.goal_ref is None:
        return
    lay, lane = network.resolve(state.goal_ref)
    x, y = state.pose.x, state.pose.y

    in_core = lay.in_core(x, y)
    if state.phase == PHASE_APPROACH and in_core:
        state.phase = PHASE_INSIDE
    elif state.phase == PHASE_INSIDE and not in_core:
        state.phase = PHASE_EXIT

    if not state.target_lane_seq:
        return
    if lane.kind == "arc":
        reached = in_core and arc_reached(lay, lane.id, x, y)
    else:
        reached = _zone_in_lane(state, lay, lane)
    if not reached:
        return
    nxt = state.target_lane_seq.pop(0)
    prev_lay = state.goal_ref.split(":")[0]
    state.goal_ref = nxt
    if nxt.split(":")[0] != prev_lay:
        state.phase = PHASE_APPROACH


def _zone_in_lane(state, lay, lane) -> bool:
    """Whether the collision zone lies in lane's arm strip, center in lane's half."""
    arm = lay.arms[lane.arm]
    lw = lay.params["lane_width"]
    c, s = math.cos(state.pose.theta), math.sin(state.pose.theta)
    hl, hw = 0.5 * DEFAULT_ZONES.c_length, 0.5 * DEFAULT_ZONES.c_width
    x, y = state.pose.x, state.pose.y
    for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        px = x + dx * c * hl - dy * s * hw
        py = y + dx * s * hl + dy * c * hw
        u, w = lay.arm_frame(lane.arm, px, py)
        if u < arm.u_start or abs(w) > lw:
            return False
    _, wc = lay.arm_frame(lane.arm, x, y)
    return lane.w_lo <= wc <= lane.w_hi
