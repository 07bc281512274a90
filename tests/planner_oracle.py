"""Exhaustive scalar reference implementation of the level-k search.

Enumerates every action sequence with itertools, steps states with the
scalar kinematics and scores them with the scalar feature path. Shares no
code with the planner's batched expansion, so agreement between the two is
a real check. Iteration order is lexicographic and ties keep the first
maximum, mirroring the planner's argmax convention.

The scalar stage reward and discounted return, and the scalar segment
predicates at the end, are the references for the batched paths of the
library. repeat_per_row_search is the batched search as it was before the
planner culled opponents, the bit-exact reference for the culled one, and
disk_cull_tree the ego tree as it was before the box cull of segments,
with the lane term of overlap_one_rect, the lane kernel as it was before
it took every lane in one pass.
"""

import itertools
import math

import numpy as np

from intersim import dynamics as dyn
from intersim import geometry as geo
from intersim import planner
from intersim import reward as rw
from intersim.dynamics import DEFAULT_ACTIONS, Pose2, VehicleState
from intersim.planner import HORIZON_N, INTERACTION_RADIUS_M, LAMBDA


def exhaustive_plan(states, i, k, network, n=HORIZON_N, actions=DEFAULT_ACTIONS, cache=None):
    """Returns (action index sequence, value) for vehicle i planning at
    level k, n steps deep over the action table actions.

    It scores with the goal layout's edges, through reward.features. So it
    is exact on single-intersection networks, where those edges are the
    whole network's; the planner scores against the network's edge
    table."""
    if cache is None:
        cache = {}
    if (i, k) in cache:
        return cache[(i, k)]
    ego = states[i]
    near = [
        j
        for j in range(len(states))
        if j != i
        and states[j] is not None
        and math.hypot(states[j].pose.x - ego.pose.x, states[j].pose.y - ego.pose.y)
        <= INTERACTION_RADIUS_M
    ]
    opp_traj = {}
    for j in near:
        if k == 0:
            opp_traj[j] = [states[j].pose] * (n + 1)
        else:
            sub_seq, _ = exhaustive_plan(states, j, k - 1, network, n, actions, cache)
            poses = [states[j].pose]
            p, v = states[j].pose, states[j].speed
            for ai in sub_seq:
                p, v = dyn.step(p, v, actions[ai])
                poses.append(p)
            opp_traj[j] = poses

    lay, lane = network.resolve(ego.goal_ref)
    ref = lane.p1
    may_exit = ego.phase != dyn.PHASE_APPROACH
    best_seq, best_val = None, -math.inf
    for seq in itertools.product(range(len(actions)), repeat=n):
        p, v = ego.pose, ego.speed
        total, f = 0.0, 1.0
        for tau, ai in enumerate(seq):
            p, v = dyn.step(p, v, actions[ai])
            others = [opp_traj[j][tau + 1] for j in near]
            exiting = may_exit and not lay.in_core(p.x, p.y)
            fv = rw.features(p, v, others, lay, ref, exiting=exiting, target_lane=lane.id)
            total += f * reward(fv)
            f *= LAMBDA
        if total > best_val:
            best_seq, best_val = list(seq), total
    cache[(i, k)] = (best_seq, best_val)
    return best_seq, best_val


def reward(fv) -> float:
    """Stage reward: the weighted sum of one feature vector."""
    return float(fv @ rw.WEIGHTS)


def discounted_return(rewards, lam: float) -> float:
    """Sum of lam**t * rewards[t]."""
    total = 0.0
    f = 1.0
    for r in rewards:
        total += f * r
        f *= lam
    return total


_KINDS = ("fourway", "tshape", "roundabout")


def random_plan_scene(rng, n_vehicles=None):
    """Random joint state on a random single intersection.

    Half the vehicles spawn properly on inbound lanes, the rest are thrown
    anywhere near the core with arbitrary heading and phase, which exercises
    boundary, marking and wrong-lane branches of the feature code.
    """
    kind = _KINDS[rng.integers(len(_KINDS))]
    net = geo.single_network(kind)
    lay = net.layouts["I0"]
    arms = list(lay.arms)
    m = int(n_vehicles if n_vehicles is not None else rng.integers(1, 4))
    states = []
    for _ in range(m):
        entry = arms[rng.integers(len(arms))]
        while True:
            exit_arm = arms[rng.integers(len(arms))]
            if exit_arm != entry or kind == "roundabout":
                break
        targets = [f"I0:{t}" for t in geo.turn_targets(lay, entry, exit_arm)]
        goal, rest = targets[0], targets[1:]
        if rng.random() < 0.5:
            a = lay.arms[entry]
            u = rng.uniform(a.u_start + 2.0, a.u_end - 2.0)
            ux, uy = a.unit_u
            wx, wy = a.unit_w
            lw = geo.LANE_WIDTH_M
            x = lay.center[0] + ux * u + wx * 0.5 * lw
            y = lay.center[1] + uy * u + wy * 0.5 * lw
            heading = geo.wrap_angle(a.angle + math.pi)
            phase = dyn.PHASE_APPROACH
        else:
            x = rng.uniform(-18.0, 18.0)
            y = rng.uniform(-18.0, 18.0)
            heading = rng.uniform(-math.pi, math.pi)
            phase = (dyn.PHASE_APPROACH, dyn.PHASE_INSIDE, dyn.PHASE_EXIT)[rng.integers(3)]
        states.append(
            VehicleState(
                Pose2(x, y, heading),
                float(rng.uniform(0.0, 5.0)),
                goal_ref=goal,
                target_lane_seq=rest,
                phase=phase,
            )
        )
    return states, net


# ---------------------------------------------------------------------------
# the opponent overlap before the planner's cull


def repeat_per_row_overlap(x, y, cth, sth, length, width, others):
    """Closed-set overlap of B rectangles against any of m of the same
    size, where others[:, b] (m, B, 3) are the poses row b faces. One SAT
    pass per size, with the members' cos and sin taken per row."""
    co, so = np.cos(others[..., 2]), np.sin(others[..., 2])
    hl, hw = 0.5 * length, 0.5 * width
    dx = others[..., 0] - x
    dy = others[..., 1] - y
    C = np.abs(co * cth + so * sth)
    S = np.abs(so * cth - co * sth)
    sep = np.abs(dx * cth + dy * sth) > hl + hl * C + hw * S
    sep |= np.abs(dy * cth - dx * sth) > hw + hl * S + hw * C
    sep |= np.abs(dx * co + dy * so) > hl + hl * C + hw * S
    sep |= np.abs(dy * co - dx * so) > hw + hl * S + hw * C
    return (~sep).any(axis=0)


def repeat_per_row_search(tree, ego, opp_trajectories, n=HORIZON_N, actions=DEFAULT_ACTIONS):
    """Overlap columns (rows, 2) and (sequence, value, trajectory) of the
    best response from a planner ego tree n steps deep over the action
    table actions, with every opponent tested against every pose row and
    its pose repeated per row."""
    F = tree.features.copy()
    if opp_trajectories:
        opp = np.stack([t[1:, :3] for t in opp_trajectories.values()])
        rows = np.repeat(opp, tree.depth_rows, axis=1)
        x, y, _, cth, sth = tree.poses
        for col, (length, width) in ((0, (rw.C_LENGTH_M, rw.C_WIDTH_M)), (3, (rw.S_LENGTH_M, rw.S_WIDTH_M))):
            hit = repeat_per_row_overlap(x, y, cth, sth, length, width, rows)
            F[:, col] = np.where(hit, -1.0, 0.0)
    value = leaf_values(tree, F, actions)
    best = int(np.argmax(value))
    seq = [int(a) for a in np.unravel_index(best, (len(actions),) * n)]
    traj = dyn.rollout(ego.pose, ego.speed, [actions[a] for a in seq])
    return F[:, [0, 3]], (seq, float(value[best]), traj)


def leaf_values(tree, F, actions=DEFAULT_ACTIONS):
    """The discounted value of every leaf of a planner ego tree over the
    action table actions, node major, scored with the feature rows F."""
    n_act, w = len(actions), rw.WEIGHTS
    value, disc = np.zeros(1), 1.0
    for rows, speeds in zip(tree.node_rows, tree.node_speeds):
        fv = F[rows]
        fv[:, 5] = speeds
        value = np.repeat(value, n_act) + disc * (fv @ w)
        disc *= LAMBDA
    return value


# ---------------------------------------------------------------------------
# the ego tree before the box cull of segments


def disk_cull_tree(ego, network, n=HORIZON_N, actions=DEFAULT_ACTIONS):
    """(poses, box, depth_rows, node_rows, node_speeds, features) of the
    planner's ego tree, n steps deep over the action table actions, as
    built before the box cull and the shared tables: the boundary and
    marking segments of every layout of the network within a disk of
    n * dt * max(speed, v_max) plus the c-zone circumradius plus 1e-6 m
    around the ego, hit-tested with the rows broadcast against the
    segments. The goal layout gives the lanes, the core and the goal."""
    lay, lane = network.resolve(ego.goal_ref)
    dt = dyn.DT_S
    acc, om, om_group = planner._action_columns(actions)
    n_act, n_om = len(acc), len(om)
    reach = n * dt * max(ego.speed, dyn.V_MAX) + 0.5 * math.hypot(rw.C_LENGTH_M, rw.C_WIDTH_M) + 1e-6
    lays = network.layouts.values()
    bsegs = segments_near_point(np.vstack([la.boundary_segments() for la in lays]), ego.pose.x, ego.pose.y, reach)
    msegs = segments_near_point(np.vstack([la.marking_segments() for la in lays]), ego.pose.x, ego.pose.y, reach)

    X, Y = np.array([ego.pose.x]), np.array([ego.pose.y])
    TH, V = np.array([ego.pose.theta]), np.array([ego.speed])
    poses, node_rows, node_speeds = [], [], []
    n_rows = 0
    for _ in range(n):
        P = X.shape[0]
        X = X + V * np.cos(TH) * dt
        Y = Y + V * np.sin(TH) * dt
        th = geo.wrap_angle_many((TH[:, None] + om * dt).ravel())
        rows = (np.arange(P)[:, None] * n_om + om_group).ravel()
        V = np.clip((V[:, None] + acc * dt).ravel(), 0.0, dyn.V_MAX)
        poses.append((np.repeat(X, n_om), np.repeat(Y, n_om), th))
        node_rows.append(n_rows + rows)
        node_speeds.append(V)
        n_rows += P * n_om
        X, Y = np.repeat(X, n_act), np.repeat(Y, n_act)
        TH = th[rows]

    PX, PY, PTH = (np.concatenate(c) for c in zip(*poses))
    cth, sth = np.cos(PTH), np.sin(PTH)
    may_exit = ego.phase != dyn.PHASE_APPROACH
    exiting = np.array([may_exit and not lay.in_core(x, y) for x, y in zip(PX, PY)], dtype=bool)
    hit_b = rows_by_segments_hit_matrix(bsegs, PX, PY, cth, sth, rw.C_LENGTH_M, rw.C_WIDTH_M).any(axis=1)
    hit_m = rows_by_segments_hit_matrix(msegs, PX, PY, cth, sth, rw.C_LENGTH_M, rw.C_WIDTH_M).any(axis=1)
    wrong = np.zeros(n_rows, dtype=bool)
    for lid, rect in lay.straight_lane_rects():
        if lid != lane.id:
            wrong |= overlap_one_rect(PX, PY, cth, sth, rw.C_LENGTH_M, rw.C_WIDTH_M, rect)
    F = np.zeros((n_rows, 6))
    F[:, 1] = np.where(hit_b, -1.0, 0.0)
    F[:, 2] = np.where(hit_m | (exiting & wrong), -1.0, 0.0)
    F[:, 4] = -(np.abs(lane.p1[0] - PX) + np.abs(lane.p1[1] - PY))
    box = (PX.min(), PY.min(), PX.max(), PY.max())
    return (PX, PY, PTH, cth, sth), box, [len(p[2]) for p in poses], node_rows, node_speeds, F


def overlap_one_rect(x, y, c, s, length, width, other):
    """Closed-set overlap of B equally sized rectangles, at (x, y) with
    heading cos and sin c, s, against the one OrientedRect other: the
    lane kernel as it was before it took every lane in one pass."""
    hl, hw = 0.5 * length, 0.5 * width
    co, so = math.cos(other.theta), math.sin(other.theta)
    ohl, ohw = 0.5 * other.length, 0.5 * other.width
    dx = other.cx - np.asarray(x)
    dy = other.cy - np.asarray(y)
    C = np.abs(co * c + so * s)
    S = np.abs(so * c - co * s)
    sep = np.abs(dx * c + dy * s) > hl + ohl * C + ohw * S
    sep |= np.abs(dy * c - dx * s) > hw + ohl * S + ohw * C
    sep |= np.abs(dx * co + dy * so) > ohl + hl * C + hw * S
    sep |= np.abs(dy * co - dx * so) > ohw + hl * S + hw * C
    return ~sep


def segments_near_point(segs, x, y, radius):
    """The rows of segs (x0, y0, x1, y1) within radius of the point, in order."""
    keep = [point_segment_dist((x, y), s[:2], s[2:]) <= radius for s in segs]
    return segs[np.array(keep, dtype=bool)] if any(keep) else np.zeros((0, 4))


def rows_by_segments_hit_matrix(segs, cx, cy, cth, sth, length, width):
    """The (B, S) segment hit matrix with (B, 1) rows broadcast against
    (1, S) segments, and the segment normal's support sum in its own
    expression: the layout before the kernel looped over its long axis."""
    if not len(segs):
        return np.zeros((len(cx), 0), dtype=bool)
    c, s = cth[:, None], sth[:, None]
    hl, hw = 0.5 * length, 0.5 * width
    ex = 0.5 * (segs[:, 2] - segs[:, 0])[None, :]
    ey = 0.5 * (segs[:, 3] - segs[:, 1])[None, :]
    dx = 0.5 * (segs[:, 0] + segs[:, 2])[None, :] - cx[:, None]
    dy = 0.5 * (segs[:, 1] + segs[:, 3])[None, :] - cy[:, None]
    sep = np.abs(dx * c + dy * s) > hl + np.abs(ex * c + ey * s)
    sep |= np.abs(dy * c - dx * s) > hw + np.abs(ey * c - ex * s)
    sep |= np.abs(dx * -ey + dy * ex) > hl * np.abs(c * -ey + s * ex) + hw * np.abs(-s * -ey + c * ex)
    return ~sep


# ---------------------------------------------------------------------------
# scalar segment predicates: the reference for the batched segment paths


def segments_intersect(p1, p2, q1, q2, tol: float = 0.0) -> bool:
    """Closed-set segment intersection, optionally fattened by tol meters."""
    if tol > 0.0:
        return segment_segment_dist(p1, p2, q1, q2) <= tol
    d1 = _cross(q2, q1, p1)
    d2 = _cross(q2, q1, p2)
    d3 = _cross(p2, p1, q1)
    d4 = _cross(p2, p1, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    for d, a, b, pt in ((d1, q1, q2, p1), (d2, q1, q2, p2), (d3, p1, p2, q1), (d4, p1, p2, q2)):
        if d == 0 and _on_segment(a, b, pt):
            return True
    return False


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, pt) -> bool:
    return min(a[0], b[0]) <= pt[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])


def segment_segment_dist(p1, p2, q1, q2) -> float:
    """Minimum distance between two segments."""
    if segments_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_dist(p1, q1, q2),
        point_segment_dist(p2, q1, q2),
        point_segment_dist(q1, p1, p2),
        point_segment_dist(q2, p1, p2),
    )


def point_segment_dist(pt, a, b) -> float:
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = pt[0] - a[0], pt[1] - a[1]
    denom = ax * ax + ay * ay
    if denom < 1e-15:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * ax + py * ay) / denom))
    return math.hypot(px - t * ax, py - t * ay)
