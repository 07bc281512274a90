"""AV control stacks evaluated inside the level-k traffic.

Two controllers share the simulator's action interface. The adaptive one
keeps a belief over each neighbor's behavioral level, a probability vector
per slot, moves it by the fixed step BETA toward the level whose prediction
best explains the observed action, and best-responds to the committed
maneuvers of the estimated levels. The rule-based one follows a fixed
reference path through the junction and picks the acceleration that
maximizes its worst-case one-step gap to conflicting traffic.

Traffic and both search-based AVs act through one engine, picked once per
evaluation cell (harness._Built). Its act(states, indices, levels,
network, plans) gives one action index per row, vehicle indices[r] at
level levels[r]; its predict(states, opponents, estimates, network,
plans) gives each opponent's (HORIZON_N + 1, 4) trajectory at its
estimated level. plans is the PlanCache of those states. ExpertEngine
answers by the game-tree search. PolicyEngine wraps an explicit policy's
act, such as the distilled PolicyApproximator.act (this module never
imports the learner), and predicts by predictor_rollout under it.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_ACTIONS, DT_S, V_MAX, VehicleState, step
from .geometry import (
    LANE_WIDTH_M,
    Pose2,
    RoadLayout,
    RoadNetwork,
    arm_point,
    polyline_segments,
    polylines_min_dist,
)
from .planner import (
    BEHAVIORAL_LEVELS,
    HORIZON_N,
    INTERACTION_RADIUS_M,
    PlanCache,
    PlanResult,
    best_response,
    levelk_plan,
    near_indices,
)
from .scene import AVController

# ---------------------------------------------------------------------------
# level estimation

BETA = 0.6  # belief correction step toward the best-explaining level
# the belief of an opponent not tracked yet; read-only, since updates
# replace a vector and never write into one
_UNIFORM = np.full(len(BEHAVIORAL_LEVELS), 1.0 / len(BEHAVIORAL_LEVELS))
_UNIFORM.flags.writeable = False


def update_beliefs(
    p: np.ndarray,
    observed: Tuple[float, float],
    predictions: Dict[int, Tuple[float, float]],
) -> np.ndarray:
    """One observation step for a single opponent whose belief is p.

    observed and each prediction are (accel, heading_rate) pairs. When
    every model predicts the same action the observation carries no
    information and p is kept. Otherwise the models nearest to the
    observation in Euclidean action distance each receive the BETA
    correction on their unnormalized mass, then the vector renormalizes.
    p is not mutated.
    """
    preds = [np.asarray(predictions[k], dtype=float) for k in BEHAVIORAL_LEVELS]
    if all(np.array_equal(preds[0], q) for q in preds[1:]):
        return p
    obs = np.asarray(observed, dtype=float)
    dists = np.array([float(np.linalg.norm(obs - q)) for q in preds])
    mass = p.astype(float)
    winners = np.flatnonzero(dists <= dists.min() + 1e-12)
    mass[winners] = (1.0 - BETA) * mass[winners] + BETA
    return mass / mass.sum()


def estimate_level(p: np.ndarray) -> int:
    # ties resolve to the higher level: undecided reads as aggressive
    best = len(p) - 1 - int(np.argmax(p[::-1]))
    return BEHAVIORAL_LEVELS[best]


def estimate_levels(beliefs: Dict[int, np.ndarray], opponents: Sequence[int]) -> Dict[int, int]:
    """Maximum-likelihood level per opponent; one not tracked yet starts
    with a uniform belief, which joins beliefs."""
    return {j: estimate_level(beliefs.setdefault(j, _UNIFORM)) for j in opponents}


# ---------------------------------------------------------------------------
# engines and adaptive planning


def predictor_rollout(
    states: Sequence[Optional[VehicleState]],
    opponents: Sequence[int],
    estimates: Dict[int, int],
    network: RoadNetwork,
    plans: PlanCache,
    act: Callable[..., Sequence[int]],
) -> Dict[int, np.ndarray]:
    """Joint HORIZON_N-step opponent prediction under an explicit policy.

    Opponents advance together under act at their estimated levels, one
    act call for all of them per horizon step, while the ego stays frozen
    at its current pose, mirroring how the expert's committed
    trajectories treat the planning vehicle. Goal refs are not advanced
    during the rollout, matching the search's frozen route assumption.
    Step 1 reads states through plans, their PlanCache; the later steps
    read copies of the opponents, moved, through fresh caches.
    """
    cur: List[Optional[VehicleState]] = list(states)
    trajs = {}
    for j in opponents:
        st = cur[j] = states[j].copy()
        tr = np.empty((HORIZON_N + 1, 4))
        tr[0] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
        trajs[j] = tr
    levels = [estimates[j] for j in opponents]
    for tau in range(1, HORIZON_N + 1):
        if tau == 1:
            picked = act(states, opponents, levels, network, plans)
        else:
            picked = act(cur, opponents, levels, network, PlanCache())
        for j, a_idx in zip(opponents, picked):
            st = cur[j]
            st.pose, st.speed = step(st.pose, st.speed, DEFAULT_ACTIONS[a_idx])
            trajs[j][tau] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
    return trajs


class ExpertEngine:
    """The game-tree expert: each row's level-k plan, its first action to
    act and its trajectory to predict, searched into plans."""

    def act(self, states, indices, levels, network, plans) -> List[int]:
        return [levelk_plan(states, i, k, network, plans).action_sequence[0] for i, k in zip(indices, levels)]

    def predict(self, states, opponents, estimates, network, plans) -> Dict[int, np.ndarray]:
        return {j: levelk_plan(states, j, estimates[j], network, plans).trajectory for j in opponents}


class PolicyEngine:
    """An explicit policy: act is the policy's own, and predict rolls the
    opponents out under it (predictor_rollout)."""

    def __init__(self, act: Callable[..., Sequence[int]]):
        self.act = act

    def predict(self, states, opponents, estimates, network, plans) -> Dict[int, np.ndarray]:
        return predictor_rollout(states, opponents, estimates, network, plans, self.act)


Engine = ExpertEngine | PolicyEngine


def adaptive_plan(
    states: Sequence[Optional[VehicleState]],
    i: int,
    beliefs: Dict[int, np.ndarray],
    network: RoadNetwork,
    cache: PlanCache,
    engine: Engine,
) -> PlanResult:
    """Best response to opponents committed at their estimated levels.

    Each interacting opponent is predicted over the horizon at its
    estimated level by engine.predict, those trajectories are committed,
    and the ego maximizes its own discounted return against them with the
    planner's tie-break. The first action of the result is the control to
    apply. cache is the PlanCache of these states; the predictions and the
    ego's own search read and add plans, ego trees and encodings there.
    """
    near = near_indices(states, i, INTERACTION_RADIUS_M)
    opp = engine.predict(states, near, estimate_levels(beliefs, near), network, cache)
    return best_response(states[i], opp, network, cache)


class AdaptiveController(AVController):
    """Level-estimating AV: observe, re-estimate, best-respond.

    engine predicts the opponents for planning (adaptive_plan) and
    supplies the per-level action predictions of the belief update, one
    act call for all (opponent, level) rows of a tick. The beliefs, a
    probability vector over BEHAVIORAL_LEVELS per opponent slot, are its
    only record of the opponents: reset_belief drops a slot's vector when
    a new vehicle takes the slot.
    """

    def __init__(self, engine: Engine):
        self.beliefs: Dict[int, np.ndarray] = {}
        self.engine = engine
        self._ego: Optional[int] = None

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        self._ego = i
        return adaptive_plan(states, i, self.beliefs, network, plans, self.engine).action_sequence[0]

    def observe(
        self,
        prev_states: Sequence[Optional[VehicleState]],
        actions: Dict[int, int],
        network: RoadNetwork,
        plans: PlanCache,
    ) -> None:
        if self._ego is None or prev_states[self._ego] is None:
            return
        near = set(near_indices(prev_states, self._ego, INTERACTION_RADIUS_M))
        opps = [j for j in actions if j != self._ego and j in near]
        if not opps:
            return
        rows = [(j, k) for j in opps for k in BEHAVIORAL_LEVELS]
        picked = self.engine.act(prev_states, [j for j, _ in rows], [k for _, k in rows], network, plans)
        pred_idx = dict(zip(rows, picked))
        for j in opps:
            preds: Dict[int, Tuple[float, float]] = {}
            for k in BEHAVIORAL_LEVELS:
                act = DEFAULT_ACTIONS[pred_idx[(j, k)]]
                preds[k] = (act.accel, act.omega)
            obs_act = DEFAULT_ACTIONS[actions[j]]
            p = self.beliefs.get(j, _UNIFORM)
            self.beliefs[j] = update_beliefs(p, (obs_act.accel, obs_act.omega), preds)

    def reset_belief(self, i: int) -> None:
        self.beliefs.pop(i, None)


class FixedLevelController(AVController):
    """Ego that plays a fixed behavioral level through engine.act, queried
    with its one row."""

    def __init__(self, level: int, engine: Engine):
        if level not in BEHAVIORAL_LEVELS:
            raise ValueError(f"fixed ego level must be one of {BEHAVIORAL_LEVELS}")
        self.level = level
        self.engine = engine

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        return int(self.engine.act(states, [i], [self.level], network, plans)[0])


# ---------------------------------------------------------------------------
# reference paths

ARC_STEP_DEG = 5.0


def _lane_dir(lane) -> Tuple[float, float]:
    dx = lane.p1[0] - lane.p0[0]
    dy = lane.p1[1] - lane.p0[1]
    n = math.hypot(dx, dy)
    return dx / n, dy / n


def reference_path(layout: RoadLayout, entrance: str, exit: str) -> Tuple[np.ndarray, np.ndarray]:
    """(pts, cum): the polyline from the entrance centerline to the exit
    centerline, (M, 2) vertices, and its cumulative arc length per vertex,
    (M,) (path_arclength).

    Box intersections join the two centerlines with a circular arc
    tangent to both (straight-through pairs collapse to one segment);
    U-turns there are illegal. Roundabouts run the entrance centerline to
    the circulating-lane circle, follow it counterclockwise to the exit
    radial, then leave along the exit centerline. Arcs get a vertex every
    ARC_STEP_DEG or closer. Both arrays are read-only: they are built once
    per layout and (entrance, exit) and shared by every call.
    """

    def build():
        pts = _build_reference_path(layout, entrance, exit)
        cum = path_arclength(pts)
        pts.flags.writeable = cum.flags.writeable = False
        return pts, cum

    return layout.derived(("reference_path", entrance, exit), build)


def _build_reference_path(layout: RoadLayout, entrance: str, exit: str) -> np.ndarray:
    lane_in = layout.lanes[entrance]
    lane_out = layout.lanes[exit]
    if lane_in.kind != "in" or lane_out.kind != "out":
        raise ValueError("reference path needs an entrance lane and an exit lane")
    if layout.kind in ("fourway", "tshape"):
        if lane_in.arm == lane_out.arm:
            raise ValueError(f"U-turn {entrance} -> {exit} not allowed at {layout.kind}")
        e = _lane_dir(lane_in)
        x = _lane_dir(lane_out)
        cross = e[0] * x[1] - e[1] * x[0]
        if abs(cross) < 1e-9:
            return np.array([lane_in.p0, lane_out.p1], dtype=float)
        # corner: intersection of the two centerline support lines
        a = np.array([[e[0], -x[0]], [e[1], -x[1]]])
        b = np.array(
            [lane_out.p0[0] - lane_in.p0[0], lane_out.p0[1] - lane_in.p0[1]]
        )
        t, _ = np.linalg.solve(a, b)
        corner = np.array(lane_in.p0) + t * np.array(e)
        r = LANE_WIDTH_M
        t1 = corner - r * np.array(e)
        t2 = corner + r * np.array(x)
        left = cross > 0
        n1 = np.array([-e[1], e[0]]) if left else np.array([e[1], -e[0]])
        center = t1 + r * n1
        a1 = math.atan2(t1[1] - center[1], t1[0] - center[0])
        a2 = math.atan2(t2[1] - center[1], t2[0] - center[0])
        sweep = (a2 - a1) % (2 * math.pi)
        if not left:
            sweep = sweep - 2 * math.pi
        n_arc = max(2, int(abs(sweep) / math.radians(ARC_STEP_DEG)) + 1)
        ang = a1 + sweep * np.linspace(0.0, 1.0, n_arc)
        arc = np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])
        pts = np.vstack([[lane_in.p0], arc, [lane_out.p1]])
    elif layout.kind == "roundabout":
        ring = next(l for l in layout.lanes.values() if l.kind == "arc")
        r_ring = ring.arc["r"]
        cx, cy = ring.arc["cx"], ring.arc["cy"]
        half = 0.5 * LANE_WIDTH_M
        u_c = math.sqrt(r_ring * r_ring - half * half)
        # ring points where the entry and exit centerlines meet the circle
        g1 = arm_point(layout.center, layout.arms[lane_in.arm], u_c, half)
        g2 = arm_point(layout.center, layout.arms[lane_out.arm], u_c, -half)
        a1 = math.atan2(g1[1] - cy, g1[0] - cx)
        a2 = math.atan2(g2[1] - cy, g2[0] - cx)
        sweep = (a2 - a1) % (2 * math.pi)
        if sweep < 1e-9:
            sweep = 2 * math.pi
        n_arc = max(2, int(sweep / math.radians(ARC_STEP_DEG)) + 1)
        ang = a1 + sweep * np.linspace(0.0, 1.0, n_arc)
        arc = np.column_stack([cx + r_ring * np.cos(ang), cy + r_ring * np.sin(ang)])
        pts = np.vstack([[lane_in.p0], [lane_in.p1], arc, [lane_out.p0], [lane_out.p1]])
    else:
        raise ValueError(f"unknown layout kind {layout.kind!r}")
    return _dedup(pts)


def _dedup(pts: np.ndarray) -> np.ndarray:
    """pts without each vertex within tol = 1e-9 of the last one kept. pts
    itself when every step is longer than 2 tol, so that none can be dropped."""
    tol = 1e-9
    d = np.diff(pts, axis=0)
    if (np.einsum("ij,ij->i", d, d) > 4.0 * tol * tol).all():
        return pts
    keep = [0]
    for m in range(1, len(pts)):
        if np.linalg.norm(pts[m] - pts[keep[-1]]) > tol:
            keep.append(m)
    return pts[keep]


def path_arclength(pts: np.ndarray) -> np.ndarray:
    """Cumulative arc length per vertex, (M,), starting at 0."""
    d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(d)])


def point_along(pts: np.ndarray, cum: np.ndarray, s: float) -> Tuple[float, float, float]:
    """Position and tangent heading at arc length s (clamped to the path)."""
    s = min(max(float(s), 0.0), float(cum[-1]))
    m = min(max(bisect.bisect_right(cum, s) - 1, 0), len(pts) - 2)
    c0, c1 = cum[m : m + 2].tolist()
    (x0, y0), (x1, y1) = pts[m : m + 2].tolist()
    seg = c1 - c0
    t = 0.0 if seg <= 0 else (s - c0) / seg
    dx, dy = x1 - x0, y1 - y0
    return x0 + t * dx, y0 + t * dy, math.atan2(dy, dx)


def project_arclength(pts: np.ndarray, cum: np.ndarray, x: float, y: float) -> float:
    """Arc length of the path point nearest to (x, y)."""
    q = np.array([x, y])
    a = pts[:-1]
    d = pts[1:] - a
    seg2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", q - a, d) / np.maximum(seg2, 1e-12), 0.0, 1.0)
    close = a + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", close - q, close - q)
    m = int(np.argmin(dist2))
    return float(cum[m] + t[m] * math.sqrt(seg2[m]))


def path_tail(pts: np.ndarray, cum: np.ndarray, s: float) -> np.ndarray:
    """The part of the path from arc length s to the end, starting at the
    interpolated point. Conflict tests run on this so the already-traveled
    stretch cannot register phantom crossings."""
    if s <= 0.0:
        return pts
    x, y, _ = point_along(pts, cum, s)
    m = int(np.searchsorted(cum, min(s, cum[-1]), side="right"))
    m = min(m, len(pts) - 1)
    return _dedup(np.vstack([[(x, y)], pts[m:]]))


# ---------------------------------------------------------------------------
# rule-based control


RC_M = 14.0  # default conflict radius
ACCEL_SET = (-5.0, -2.5, 0.0, 2.5)  # ascending
PATH_TOL_M = 1.0  # paths this close conflict

# accelerations map onto the straight-line entries of the action table
_ACCEL_ACTION = {a.accel: idx for idx, a in enumerate(DEFAULT_ACTIONS) if a.omega == 0.0}


def estimate_path(
    states: Sequence[Optional[VehicleState]], j: int, network: RoadNetwork
) -> np.ndarray:
    """Predicted future path of vehicle j from its pose and target lanes.

    When j sits inside an entrance-lane strip of the layout it is headed
    through, the full reference path to its exit is used. Otherwise the
    path falls back to straight hops from the current position through
    the remaining lane reference points of that layout, which is the
    best available guess for vehicles already mid-junction or off-lane.
    """
    st = states[j]
    lay, local, exit_ref = _route_exit(st, network)
    try:
        pts, cum, s = _route_reference(st, lay, exit_ref, network)
    except ValueError:
        pass  # off the entrance lanes, no exit lane here, or a U-turn at a box
    else:
        return path_tail(pts, cum, s)
    pts = [(st.pose.x, st.pose.y)]
    for r in local:
        pts.append(network.resolve(r)[1].p1)
    if len(pts) == 1:
        # no usable refs: extend along the current heading
        pts.append(
            (
                st.pose.x + 20.0 * math.cos(st.pose.theta),
                st.pose.y + 20.0 * math.sin(st.pose.theta),
            )
        )
    return _dedup(np.array(pts, dtype=float))


def _route_exit(st: VehicleState, network: RoadNetwork):
    """(layout st is headed through, its route refs inside that layout with
    the goal ref first, the first of those that is an exit lane or None)."""
    lay, _ = network.resolve(st.goal_ref)
    refs = [st.goal_ref] + list(st.target_lane_seq)
    local = [r for r in refs if network.resolve(r)[0] is lay]
    exit_ref = next((r for r in local if network.resolve(r)[1].kind == "out"), None)
    return lay, local, exit_ref


def _route_reference(
    st: VehicleState, lay: RoadLayout, exit_ref: Optional[str], network: RoadNetwork
) -> Tuple[np.ndarray, np.ndarray, float]:
    """(pts, cum, s): the reference path of lay from the entrance lane st
    sits on to exit_ref, the exit of its route (_route_exit), the path's
    cumulative arc lengths and st's arc length along it. Raises ValueError
    when st is on no entrance lane, exit_ref is None, or reference_path
    refuses the pair."""
    entrance = _entrance_lane(lay, st.pose.x, st.pose.y)
    if entrance is None:
        raise ValueError("rule-based vehicle must start on an entrance lane")
    if exit_ref is None:
        raise ValueError("rule-based vehicle has no exit lane in its route")
    exit_id = network.resolve(exit_ref)[1].id
    pts, cum = reference_path(lay, entrance, exit_id)
    return pts, cum, project_arclength(pts, cum, st.pose.x, st.pose.y)


def _entrance_lane(lay: RoadLayout, x: float, y: float) -> Optional[str]:
    for lane_id, lane in lay.lanes.items():
        if lane.kind != "in":
            continue
        arm = lay.arms[lane.arm]
        u, w = lay.arm_frame(lane.arm, x, y)
        if arm.u_start - 1e-9 <= u <= arm.u_end + 1e-9 and lane.w_lo - 1e-9 <= w <= lane.w_hi + 1e-9:
            return lane_id
    return None


def conflict_set(
    states: Sequence[Optional[VehicleState]],
    i: int,
    paths: Dict[int, np.ndarray],
    rc_m: float,
) -> List[int]:
    """Vehicles whose estimated path crosses the ego's within the
    conflict radius: both the path condition (minimum polyline distance
    at most the lateral tolerance) and the proximity condition (centers
    within rc_m) must hold."""
    near = set(near_indices(states, i, rc_m))
    ego_segs = polyline_segments(paths[i])
    out = []
    for j, pts in paths.items():
        if j not in near:
            continue
        if polylines_min_dist(ego_segs, polyline_segments(pts)) <= PATH_TOL_M:
            out.append(j)
    return out


def rule_based_action(
    states: Sequence[Optional[VehicleState]],
    i: int,
    ego_path: np.ndarray,
    cum: np.ndarray,
    opp_paths: Dict[int, np.ndarray],
    rc_m: float,
    ego_s: float,
) -> float:
    """One acceleration from ACCEL_SET; conflicts are sought within rc_m,
    and the ego sits at arc length ego_s of ego_path, whose cumulative
    arc lengths per vertex are cum (path_arclength(ego_path)).

    With no conflicting vehicle the largest acceleration is taken.
    Otherwise each candidate advances the ego one DT_S step along its
    reference path at the post-acceleration speed while every
    conflicting opponent advances along its current heading at its
    current speed; the candidate maximizing the minimum predicted
    distance wins, ties going to the smaller acceleration.
    """
    ego = states[i]
    paths = {i: path_tail(ego_path, cum, ego_s), **opp_paths}
    conflicts = conflict_set(states, i, paths, rc_m)
    if not conflicts:
        return ACCEL_SET[-1]
    opp_next = []
    for j in conflicts:
        st = states[j]
        opp_next.append(
            (
                st.pose.x + st.speed * math.cos(st.pose.theta) * DT_S,
                st.pose.y + st.speed * math.sin(st.pose.theta) * DT_S,
            )
        )
    best_a = None
    best_d = -math.inf
    for a in ACCEL_SET:
        v1 = min(max(ego.speed + a * DT_S, 0.0), V_MAX)
        px, py, _ = point_along(ego_path, cum, ego_s + v1 * DT_S)
        dmin = min(math.hypot(px - ox, py - oy) for ox, oy in opp_next)
        if dmin > best_d + 1e-12:
            best_d = dmin
            best_a = a
    return best_a


class RuleBasedController(AVController):
    """Path-following AV with worst-case one-step spacing control.

    Binds its reference path from the entrance lane it starts on to the
    exit lane of its route on first decide, then rides the path: decide
    picks an acceleration, advance integrates it along the path's arc
    length with the tangent heading. Opponent paths re-estimate every
    tick from their moving positions.
    """

    def __init__(self, rc_m: float):
        self.rc_m = rc_m
        self._pts: Optional[np.ndarray] = None
        self._cum: Optional[np.ndarray] = None
        self._s = 0.0
        self._accel = 0.0

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        """rule_based_action as an action index; only opponents within rc_m,
        the ones conflict_set reads, get an estimated path."""
        if self._pts is None:
            lay, _, exit_ref = _route_exit(states[i], network)
            self._pts, self._cum, self._s = _route_reference(states[i], lay, exit_ref, network)
        near = near_indices(states, i, self.rc_m)
        opp_paths = {j: estimate_path(states, j, network) for j in near}
        self._accel = rule_based_action(
            states, i, self._pts, self._cum, opp_paths, self.rc_m, self._s
        )
        return _ACCEL_ACTION[self._accel]

    def advance(
        self,
        states: Sequence[Optional[VehicleState]],
        i: int,
        network: RoadNetwork,
    ) -> Optional[Tuple[Pose2, float]]:
        if self._pts is None:
            return None
        st = states[i]
        v1 = min(max(st.speed + self._accel * DT_S, 0.0), V_MAX)
        self._s += v1 * DT_S
        x, y, theta = point_along(self._pts, self._cum, self._s)
        return Pose2(x, y, theta), v1
