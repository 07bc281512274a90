"""AV control stacks evaluated inside the level-k traffic.

Two controllers share the simulator's action interface. The adaptive one
keeps a belief over each neighbor's behavioral level, refreshes it by
comparing observed actions against per-level predictions, and best-responds
to the committed maneuvers of the estimated levels. The rule-based one
follows a fixed reference path through the junction and picks the
acceleration that maximizes its worst-case one-step gap to conflicting
traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_ACTIONS, DT_S, V_MAX, VehicleState, step
from .geometry import (
    Pose2,
    RoadLayout,
    RoadNetwork,
    polyline_segments,
    polylines_min_dist,
)
from .planner import (
    BEHAVIORAL_LEVELS,
    PlanCache,
    PlannerConfig,
    PlanResult,
    best_response,
    level0_plan,
    levelk_plan,
    near_indices,
)
from .scene import AVController

# predictor(states, indices, levels, network) -> one action index per row,
# for vehicle indices[r] at level levels[r], all read from the same states;
# supplied by the distilled policy (PolicyApproximator.act) so this module
# never imports the learner.
Predictor = Callable[
    [Sequence[Optional[VehicleState]], Sequence[int], Sequence[int], RoadNetwork], np.ndarray
]


# ---------------------------------------------------------------------------
# level estimation


@dataclass
class BeliefState:
    """Per-opponent probability vectors over the behavioral model set.

    Vectors are created uniform on first access and stay normalized
    through updates. beta is the correction step toward the model whose
    prediction best explains the observed action.
    """

    model_set: Tuple[int, ...] = BEHAVIORAL_LEVELS
    beta: float = 0.6
    table: Dict[int, np.ndarray] = field(default_factory=dict)

    def vec(self, j: int) -> np.ndarray:
        if j not in self.table:
            m = len(self.model_set)
            self.table[j] = np.full(m, 1.0 / m)
        return self.table[j]

    def reset(self, j: int) -> None:
        self.table.pop(j, None)

    def copy(self) -> "BeliefState":
        return BeliefState(
            model_set=self.model_set,
            beta=self.beta,
            table={j: p.copy() for j, p in self.table.items()},
        )


def update_beliefs(
    beliefs: BeliefState,
    opponent: int,
    observed: Tuple[float, float],
    predictions: Dict[int, Tuple[float, float]],
) -> BeliefState:
    """One observation step for a single opponent.

    observed and each prediction are (accel, heading_rate) pairs. When
    every model predicts the same action the observation carries no
    information and the prior is kept. Otherwise the models nearest to
    the observation in Euclidean action distance each receive the beta
    correction on their unnormalized mass, then the vector renormalizes.
    Returns a new BeliefState; the input is not mutated.
    """
    out = beliefs.copy()
    preds = [np.asarray(predictions[k], dtype=float) for k in beliefs.model_set]
    if all(np.array_equal(preds[0], p) for p in preds[1:]):
        out.vec(opponent)
        return out
    obs = np.asarray(observed, dtype=float)
    dists = np.array([float(np.linalg.norm(obs - p)) for p in preds])
    mass = out.vec(opponent).astype(float).copy()
    winners = np.flatnonzero(dists <= dists.min() + 1e-12)
    mass[winners] = (1.0 - beliefs.beta) * mass[winners] + beliefs.beta
    out.table[opponent] = mass / mass.sum()
    return out


def estimate_level(p: np.ndarray, model_set: Tuple[int, ...] = BEHAVIORAL_LEVELS) -> int:
    # ties resolve to the higher level: undecided reads as aggressive
    best = len(p) - 1 - int(np.argmax(p[::-1]))
    return model_set[best]


def estimate_levels(beliefs: BeliefState, opponents: Sequence[int]) -> Dict[int, int]:
    """Maximum-likelihood level per opponent; one not tracked yet starts
    with a uniform belief."""
    return {j: estimate_level(beliefs.vec(j), beliefs.model_set) for j in opponents}


# ---------------------------------------------------------------------------
# adaptive planning


def predictor_rollout(
    states: Sequence[Optional[VehicleState]],
    opponents: Sequence[int],
    estimates: Dict[int, int],
    network: RoadNetwork,
    cfg: PlannerConfig,
    predictor: Predictor,
) -> Dict[int, np.ndarray]:
    """Joint N-step opponent prediction under an explicit policy.

    Opponents advance together under predictor at their estimated levels,
    one predictor call for all of them per horizon step, while the ego
    stays frozen at its current pose, mirroring how the expert's committed
    trajectories treat the planning vehicle. Goal refs are not advanced
    during the rollout, matching the search's frozen route assumption.
    """
    cur: List[Optional[VehicleState]] = [
        s.copy() if s is not None else None for s in states
    ]
    n = cfg.horizon_n
    trajs = {}
    for j in opponents:
        tr = np.empty((n + 1, 4))
        st = cur[j]
        tr[0] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
        trajs[j] = tr
    levels = [estimates[j] for j in opponents]
    for tau in range(1, n + 1):
        picked = predictor(cur, opponents, levels, network)
        for j, a_idx in zip(opponents, picked):
            st = cur[j]
            st.pose, st.speed = step(st.pose, st.speed, cfg.actions[a_idx])
            trajs[j][tau] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
    return trajs


def adaptive_plan(
    states: Sequence[Optional[VehicleState]],
    i: int,
    beliefs: BeliefState,
    network: RoadNetwork,
    cache: PlanCache,
    predictor: Optional[Predictor] = None,
) -> PlanResult:
    """Best response to opponents committed at their estimated levels.

    Each interacting opponent is predicted over the horizon as its
    level-k-tilde plan, those trajectories are committed, and the ego
    maximizes its own discounted return against them with the planner's
    tie-break. Without a predictor the predictions come from the game-tree
    search; with one, from a joint closed-loop rollout under that explicit
    policy (predictor_rollout). The first action of the result is the
    control to apply. cache is the PlanCache of these states and carries
    the planner config; the searched predictions and the ego's own search
    read and add plans and ego trees there.
    """
    near = near_indices(states, i, cache.cfg.interaction_radius_m)
    estimates = estimate_levels(beliefs, near)
    if not near:
        return level0_plan(list(states), i, network, cache)
    if predictor is not None:
        opp = predictor_rollout(states, near, estimates, network, cache.cfg, predictor)
    else:
        opp = {j: levelk_plan(list(states), j, estimates[j], network, cache).trajectory for j in near}
    return best_response(states[i], opp, network, cache)


class AdaptiveController(AVController):
    """Level-estimating AV: observe, re-estimate, best-respond.

    predictor, when given, is the distilled policy: it rolls the
    opponents out for planning (adaptive_plan) and supplies the per-level
    action predictions of the belief update, one call for all
    (opponent, level) rows of a tick. Without it the game-tree expert
    does both. The beliefs are its only record of the opponents:
    reset_belief drops a slot's vector when a new vehicle takes the slot.
    """

    def __init__(
        self,
        model_set: Tuple[int, ...] = BEHAVIORAL_LEVELS,
        beta: float = 0.6,
        predictor: Optional[Predictor] = None,
    ):
        self.beliefs = BeliefState(model_set=model_set, beta=beta)
        self.predictor = predictor
        self._ego: Optional[int] = None

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        self._ego = i
        return adaptive_plan(states, i, self.beliefs, network, plans, self.predictor).action_sequence[0]

    def observe(
        self,
        prev_states: Sequence[Optional[VehicleState]],
        actions: Dict[int, int],
        network: RoadNetwork,
        plans: PlanCache,
    ) -> None:
        if self._ego is None or prev_states[self._ego] is None:
            return
        near = set(near_indices(prev_states, self._ego, plans.cfg.interaction_radius_m))
        snapshot = list(prev_states)
        opps = [j for j in actions if j != self._ego and j in near]
        if not opps:
            return
        ks = self.beliefs.model_set
        rows = [(j, k) for j in opps for k in ks]
        if self.predictor is not None:
            picked = self.predictor(snapshot, [j for j, _ in rows], [k for _, k in rows], network)
        else:
            picked = [levelk_plan(snapshot, j, k, network, plans).action_sequence[0] for j, k in rows]
        pred_idx = dict(zip(rows, picked))
        for j in opps:
            preds: Dict[int, Tuple[float, float]] = {}
            for k in ks:
                act = plans.cfg.actions[pred_idx[(j, k)]]
                preds[k] = (act.accel, act.omega)
            obs_act = plans.cfg.actions[actions[j]]
            self.beliefs = update_beliefs(
                self.beliefs, j, (obs_act.accel, obs_act.omega), preds
            )

    def reset_belief(self, i: int) -> None:
        self.beliefs.reset(i)


class DistilledAdaptiveController(AdaptiveController):
    """Adaptive controller whose action head is a trained approximator.

    actor(states, i, estimates, network) -> action index replaces the
    online best-response search; beliefs still update every tick through
    the supplied batched predictor, as in AdaptiveController.observe.
    """

    def __init__(
        self,
        actor: Callable[
            [Sequence[Optional[VehicleState]], int, Dict[int, int], RoadNetwork], int
        ],
        predictor: Predictor,
        model_set: Tuple[int, ...] = BEHAVIORAL_LEVELS,
        beta: float = 0.6,
    ):
        super().__init__(model_set, beta, predictor)
        self.actor = actor

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        self._ego = i
        near = near_indices(states, i, plans.cfg.interaction_radius_m)
        estimates = estimate_levels(self.beliefs, near)
        return self.actor(states, i, estimates, network)


class FixedLevelController(AVController):
    """Ego that plays a fixed behavioral level, as the expert tree search
    or through a distilled predictor queried with its one row."""

    def __init__(self, level: int, predictor: Optional[Predictor] = None):
        if level not in BEHAVIORAL_LEVELS:
            raise ValueError(f"fixed ego level must be one of {BEHAVIORAL_LEVELS}")
        self.level = level
        self.predictor = predictor

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        if self.predictor is not None:
            return int(self.predictor(states, [i], [self.level], network)[0])
        return levelk_plan(list(states), i, self.level, network, plans).action_sequence[0]


# ---------------------------------------------------------------------------
# reference paths

ARC_STEP_DEG = 5.0


def _lane_dir(lane) -> Tuple[float, float]:
    dx = lane.p1[0] - lane.p0[0]
    dy = lane.p1[1] - lane.p0[1]
    n = math.hypot(dx, dy)
    return dx / n, dy / n


def reference_path(
    layout: RoadLayout, entrance: str, exit: str
) -> np.ndarray:
    """Polyline from the entrance centerline to the exit centerline.

    Box intersections join the two centerlines with a circular arc
    tangent to both (straight-through pairs collapse to one segment);
    U-turns there are illegal. Roundabouts run the entrance centerline to
    the circulating-lane circle, follow it counterclockwise to the exit
    radial, then leave along the exit centerline. Arcs get a vertex every
    ARC_STEP_DEG or closer. Returns (M, 2) vertices, read-only: the path
    is built once per layout and (entrance, exit) and shared by every call.
    """

    def build():
        pts = _build_reference_path(layout, entrance, exit)
        pts.flags.writeable = False
        return pts

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
        r = layout.params["lane_width"]
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
        half = 0.5 * layout.params["lane_width"]
        u_c = math.sqrt(r_ring * r_ring - half * half)
        arm_in = layout.arms[lane_in.arm]
        arm_out = layout.arms[lane_out.arm]
        # ring points where the entry and exit centerlines meet the circle
        g1 = _arm_point(layout, arm_in, u_c, half)
        g2 = _arm_point(layout, arm_out, u_c, -half)
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


def _arm_point(layout: RoadLayout, arm, u: float, w: float) -> Tuple[float, float]:
    ux, uy = math.cos(arm.angle), math.sin(arm.angle)
    return (
        layout.center[0] + u * ux - w * uy,
        layout.center[1] + u * uy + w * ux,
    )


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
    s = float(np.clip(s, 0.0, cum[-1]))
    m = int(np.searchsorted(cum, s, side="right")) - 1
    m = min(max(m, 0), len(pts) - 2)
    seg = cum[m + 1] - cum[m]
    t = 0.0 if seg <= 0 else (s - cum[m]) / seg
    p = pts[m] + t * (pts[m + 1] - pts[m])
    d = pts[m + 1] - pts[m]
    return float(p[0]), float(p[1]), math.atan2(d[1], d[0])


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
    if exit_ref is not None:
        entrance = _entrance_lane(lay, st.pose.x, st.pose.y)
        if entrance is not None:
            exit_lane = network.resolve(exit_ref)[1]
            try:
                full = reference_path(lay, entrance, exit_lane.id)
            except ValueError:
                full = None
            if full is not None:
                cum = path_arclength(full)
                s = project_arclength(full, cum, st.pose.x, st.pose.y)
                return path_tail(full, cum, s)
    pts = [(st.pose.x, st.pose.y)]
    for r in local:
        pts.append(network.resolve(r)[1].ref_point)
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
    rc_m: float = RC_M,
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
    opp_paths: Dict[int, np.ndarray],
    rc_m: float = RC_M,
    ego_s: Optional[float] = None,
) -> float:
    """One acceleration from ACCEL_SET; conflicts are sought within rc_m.

    With no conflicting vehicle the largest acceleration is taken.
    Otherwise each candidate advances the ego one DT_S step along its
    reference path at the post-acceleration speed while every
    conflicting opponent advances along its current heading at its
    current speed; the candidate maximizing the minimum predicted
    distance wins, ties going to the smaller acceleration.
    """
    cum = path_arclength(ego_path)
    ego = states[i]
    if ego_s is None:
        ego_s = project_arclength(ego_path, cum, ego.pose.x, ego.pose.y)
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

    def __init__(self, rc_m: float = RC_M):
        self.rc_m = rc_m
        self._pts: Optional[np.ndarray] = None
        self._cum: Optional[np.ndarray] = None
        self._s = 0.0
        self._accel = 0.0

    def _bind(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork
    ) -> None:
        st = states[i]
        lay, _, exit_ref = _route_exit(st, network)
        entrance = _entrance_lane(lay, st.pose.x, st.pose.y)
        if entrance is None:
            raise ValueError("rule-based vehicle must start on an entrance lane")
        if exit_ref is None:
            raise ValueError("rule-based vehicle has no exit lane in its route")
        self._pts = reference_path(lay, entrance, network.resolve(exit_ref)[1].id)
        self._cum = path_arclength(self._pts)
        self._s = project_arclength(self._pts, self._cum, st.pose.x, st.pose.y)

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        """rule_based_action as an action index; only opponents within rc_m,
        the ones conflict_set reads, get an estimated path."""
        if self._pts is None:
            self._bind(states, i, network)
        near = near_indices(states, i, self.rc_m)
        opp_paths = {j: estimate_path(states, j, network) for j in near}
        self._accel = rule_based_action(
            states, i, self._pts, opp_paths, self.rc_m, self._s
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
