"""Receding-horizon level-k planning over the discrete action table.

A level-0 vehicle treats everyone else as fixed obstacles. A level-k
vehicle commits every nearby opponent to the open-loop sequence a
level-(k-1) planner would choose for them, then picks its own best
N-step sequence by full enumeration of the 6^N tree. Only the first
action of the winner is executed, the rest is replanned next tick.
levelk_plan is the one search entry and serves every level, 0 included.

The whole tree is expanded before any node is scored. A child's pose
depends only on its parent's state and its own turn rate, so each depth
keeps one pose row per (parent, distinct omega). The expansion and the
opponent-free features, from one features_many call, form the ego tree,
a function of the ego input (x, y, theta, speed, phase, goal_ref). The
lane term tests the rows that leave the core against every straight lane
but the goal lane in one pass; in the approach phase no row leaves. A
search with opponents in reach fills the two overlap columns of a copy of
the features (one without reads them as they are) and sums the node
values, each with its pose's features and its own speed, depth by depth.

The planner has one shape: the action table DEFAULT_ACTIONS, the horizon
HORIZON_N, reward's zones (the c-zone C_LENGTH_M by C_WIDTH_M, the safe
zone S_LENGTH_M by S_WIDTH_M) and weights (reward.WEIGHTS, in feature
order phi1..phi6), and the radius INTERACTION_RADIUS_M. Egos repeat
their headings and speeds far more often than their positions, so trees
share three tables: the structure table (node and depth rows), built
once at import, and two memos, per heading the heading table (each
depth's moving-node cos and sin, then every pose row's wrapped heading
with its cos and sin) and per speed the speed table (each depth's
clipped node speeds). A tree computes only its positions and what
follows from them. Plans stay exact: every entry comes from the numpy
calls, on arrays of the same shapes, that expanding one tree on its own
makes (the reference in the test suite does), memo keys are bit patterns
(float hex; 0.0 and -0.0 stay apart), and the shared arrays are
read-only. The memos are bounded, about 1 MB in all.

Every search takes a PlanCache, the planner's one context: it holds the
finished plans of one joint state by (vehicle, level), the ego trees by
ego input, and the distilled encoder's heads of that state by slot
(imitation.encode_many). A plan is a pure function of (states, vehicle,
level, network), an ego tree of (ego input, network) and a head of
(states, slot, network), so every search and encoding from the same
states may share one cache; one that shares nothing takes a fresh
PlanCache().

Two culls skip work that cannot change a flag, so plans stay bit-identical.
A search tests only the opponents whose poses at instants 1..N come within
the overlap reach of the box around the tree's pose rows: the circumradii
of the larger zone of each vehicle, plus a 1e-6 m margin (8.352 m).
Rectangles whose centers lie farther apart than their circumradii are
disjoint, and then SAT finds a separating edge normal, so a dropped
opponent would have set no flag. A search is thus a function of the tree
and of the poses of the opponents in reach, and searches that differ
only in opponents beyond reach share one. Boundary and marking
segments can only hit the c-zone, so a tree keeps a segment of the
network's edge table, boundary rows first, only if its bounding box meets
the box of the pose rows grown by the c-zone's circumradius plus the
margin: a segment the c-zone of a row touches has a point within that
circumradius of the row. The table holds every layout's edges, those
scene.detect_fail checks; the goal layout gives the lanes and the core.

A certificate skips the opponent scoring where it cannot change the
plan. A search with opponents in reach returns the tree's opponent-free
search (made once per tree, under the empty key) when no kept opponent's
safe zone touches that of the plan's pose row of any depth tau at instant
tau + 1, by overlap_rects_group's test on the same floats. The full search
would return that plan bit for bit: (1) opponent flags are 0 or -1 under
positive weights, and IEEE rounding is monotone, so no leaf's value rises;
(2) a leaf whose HORIZON_N path rows carry no flag keeps the same gemv row
at the same shape and index, and so the same value bits, and np.argmax
keeps the first maximum, so the free leaf stays the answer; (3) a safe
zone holds its c-zone, and the support sums are monotone in the half
sizes, so a safe-zone separation implies a c-zone separation.

Leaf ordering is node major, so np.argmax (first maximum) selects the
lexicographically smallest tied sequence, with "maintain" first in the
action table. The exhaustive scalar reference in the test suite iterates
in the same order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_ACTIONS, DT_S, V_MAX, Action, VehicleState, rollout
from .dynamics import PHASE_APPROACH, hold_trajectory
from .geometry import RoadNetwork, sat_separations, wrap_angle_many
from .reward import C_LENGTH_M, C_WIDTH_M, S_LENGTH_M, S_WIDTH_M, WEIGHTS, features_many, opponent_features


K_MAX = 2  # the highest level the expert searches
BEHAVIORAL_LEVELS: Tuple[int, ...] = (1, 2)  # the levels traffic plays and the adaptive AV estimates
LAMBDA = 0.8  # discount per planning step
HORIZON_N = 4  # steps per planned sequence
INTERACTION_RADIUS_M = 40.0  # vehicles farther from the ego are not opponents


@dataclass
class PlanResult:
    """A finished search, shared by every search that matches it: never mutate one."""

    action_sequence: List[int]
    value: float
    trajectory: np.ndarray  # (N+1, 4) rows of x, y, theta, v


@dataclass
class _EgoTree:
    """What a best response computes from the ego input alone: the pose
    rows (x, y, theta, cos theta, sin theta) and their bounding box (x0,
    y0, x1, y1), pose rows per depth, node rows and speeds, and the
    features with both overlap columns 0. searched holds the finished
    searches by the poses of the opponents in reach, the bytes of their
    (m, N, 3) array, the opponent-free one under b"" (see the module doc).
    theta, cos theta and sin theta come from the heading table, the node
    speeds from the speed table and the rows from the structure table:
    read-only arrays that other trees share."""

    poses: Tuple[np.ndarray, ...]
    box: Tuple[float, float, float, float]
    depth_rows: Tuple[int, ...]
    node_rows: Tuple[np.ndarray, ...]
    node_speeds: Tuple[np.ndarray, ...]
    features: np.ndarray
    searched: Dict[tuple, PlanResult] = field(default_factory=dict)


class PlanCache(dict):
    """The context of one joint state s: the finished plans by (vehicle,
    level); in trees the ego trees of its searches, by ego input (x, y,
    theta, speed, phase, goal_ref) rather than by slot; in heads the
    distilled encoder's head of each vehicle of s, by slot. It holds
    plans, trees and encodings of s only. A simulator tick makes one for
    s_t (scene.sim_step); the callers whose states are not s_t pass a
    fresh PlanCache(): the predictor rollout's steps 2..HORIZON_N,
    imitation.encode_state and imitation.collect_probes."""

    def __init__(self):
        super().__init__()
        self.trees: Dict[tuple, _EgoTree] = {}
        self.heads: Dict[int, List[float]] = {}

    def tree(self, ego: VehicleState, network: RoadNetwork) -> _EgoTree:
        p = ego.pose
        key = (p.x, p.y, p.theta, ego.speed, ego.phase, ego.goal_ref)
        if key not in self.trees:
            self.trees[key] = _ego_tree(ego, network)
        return self.trees[key]


# Slack on the culls' exact reach bounds: far above the rounding of the
# float geometry, far below any distance that matters on the road.
_MARGIN_M = 1e-6
# The culls' reach bounds (see the module doc): the circumradii of the
# larger zone of each of two vehicles, and the circumradius of a c-zone,
# each plus the margin.
_OVERLAP_REACH_M = max(math.hypot(C_LENGTH_M, C_WIDTH_M), math.hypot(S_LENGTH_M, S_WIDTH_M)) + _MARGIN_M
_C_ZONE_REACH_M = 0.5 * math.hypot(C_LENGTH_M, C_WIDTH_M) + _MARGIN_M


def levelk_plan(states: List[VehicleState], i: int, k: int, network: RoadNetwork, cache: PlanCache) -> PlanResult:
    """Level-k best response for any k, 0 included (see the module doc).
    cache holds the finished plans and ego trees of these states and is
    shared across vehicles within one decision tick."""
    if (i, k) in cache:
        return cache[(i, k)]
    near = near_indices(states, i, INTERACTION_RADIUS_M)
    if k == 0:
        opp = {j: hold_trajectory(states[j].pose, HORIZON_N) for j in near}
    else:
        opp = {j: levelk_plan(states, j, k - 1, network, cache).trajectory for j in near}
    cache[(i, k)] = _best_response(states[i], opp, network, cache)
    return cache[(i, k)]


def best_response(
    ego: VehicleState, opp_trajectories: Dict[int, np.ndarray], network: RoadNetwork, cache: PlanCache
) -> PlanResult:
    """Single-agent receding-horizon search against externally committed
    opponent trajectories, each (N+1, 4). The adaptive controller supplies
    per-opponent predictions here instead of the level recursion; with the
    tick's cache, it reads the ego tree its levelk searches built. It
    forwards to _best_response, the name the benchmark tracer patches, so
    that the tracer counts these searches with the level-k ones."""
    return _best_response(ego, opp_trajectories, network, cache)


def expert_policy(states: List[VehicleState], i: int, k: int, network: RoadNetwork, cache: PlanCache) -> PlanResult:
    """The game-tree teacher queried during imitation and evaluation."""
    if not 0 <= k <= K_MAX:
        raise ValueError(f"level {k} outside 0..{K_MAX}")
    return levelk_plan(states, i, k, network, cache)


def near_indices(states: Sequence[Optional[VehicleState]], i: int, radius: float) -> List[int]:
    """Other live vehicles whose centers lie within radius of vehicle i's,
    in slot order. The library's one neighbour query: the planner and
    the AVs call it."""
    ex, ey = states[i].pose.x, states[i].pose.y
    out = []
    for j, st in enumerate(states):
        if j == i or st is None:
            continue
        if math.hypot(st.pose.x - ex, st.pose.y - ey) <= radius:
            out.append(j)
    return out


def _best_response(
    ego: VehicleState, opp_trajectories: Dict[int, np.ndarray], network: RoadNetwork, cache: PlanCache
) -> PlanResult:
    tree = cache.tree(ego, network)
    # the pose rows of depth tau face the opponents at instant tau + 1
    x0, y0, x1, y1 = tree.box
    kept = []
    for t in opp_trajectories.values():
        for ox, oy in t[1:, :2].tolist():
            if math.hypot(max(x0 - ox, ox - x1, 0.0), max(y0 - oy, oy - y1, 0.0)) <= _OVERLAP_REACH_M:
                kept.append(t[1:, :3])
                break
    opp = np.array(kept).reshape(-1, HORIZON_N, 3)
    key = opp.tobytes()
    if key not in tree.searched:
        if b"" not in tree.searched:
            tree.searched[b""] = _search(ego, tree, tree.features)
        plan = tree.searched[b""]
        if len(opp) and not _path_clear(tree, _path_rows(tree, plan.action_sequence), opp):
            x, y, _, cth, sth = tree.poses
            F = tree.features.copy()
            opponent_features(F, x, y, cth, sth, opp, tree.depth_rows)
            plan = _search(ego, tree, F)
        tree.searched[key] = plan
    return tree.searched[key]


def _search(ego: VehicleState, tree: _EgoTree, F: np.ndarray) -> PlanResult:
    """The best leaf of the tree scored with the features F."""
    n_act, value, disc = len(DEFAULT_ACTIONS), np.zeros(1), 1.0
    for rows, speeds in zip(tree.node_rows, tree.node_speeds):
        fv = np.take(F, rows, axis=0)
        fv[:, 5] = speeds
        value = np.repeat(value, n_act) + disc * (fv @ WEIGHTS)
        disc *= LAMBDA
    leaf = int(np.argmax(value))
    best, seq = float(value[leaf]), []
    for _ in range(HORIZON_N):  # the leaf index is node major
        leaf, a = divmod(leaf, n_act)
        seq.insert(0, a)
    actions = [DEFAULT_ACTIONS[i] for i in seq]
    return PlanResult(seq, best, rollout(ego.pose, ego.speed, actions))


def _path_rows(tree: _EgoTree, seq: Sequence[int]) -> List[int]:
    """The pose row of each depth on the path of the action sequence seq."""
    nodes = itertools.accumulate(seq, lambda node, a: node * len(DEFAULT_ACTIONS) + a)
    return [int(rows[k]) for rows, k in zip(tree.node_rows, nodes)]


def _path_clear(tree: _EgoTree, rows: List[int], opp: np.ndarray) -> bool:
    """Whether no safe zone of the opponents opp (m, N, 3) touches that of
    pose row rows[tau] at instant tau + 1, for every depth tau, by
    overlap_rects_group's test on the same floats, sat_separations."""
    x, y, _, cth, sth = tree.poses
    path = list(zip(x[rows].tolist(), y[rows].tolist(), cth[rows].tolist(), sth[rows].tolist()))
    size = ((S_LENGTH_M, S_WIDTH_M),)
    for poses, cos_o, sin_o in zip(opp.tolist(), np.cos(opp[..., 2]).tolist(), np.sin(opp[..., 2]).tolist()):
        for (ox, oy, _), co, so, (px, py, c, s) in zip(poses, cos_o, sin_o, path):
            if not next(sat_separations(ox - px, oy - py, c, s, co, so, size)):
                return False
    return True


def _ego_tree(ego: VehicleState, network: RoadNetwork) -> _EgoTree:
    if ego.goal_ref is None:
        raise ValueError("vehicle has no goal lane")
    lay, lane = network.resolve(ego.goal_ref)
    n_act, n_om = len(DEFAULT_ACTIONS), len(_OMEGAS)
    _, node_rows, depth_rows = _STRUCTURE
    CS, PTH, cth, sth = _heading_table(float(ego.pose.theta).hex())
    V = _speed_table(float(ego.speed).hex())

    # Move every depth, x and y as the rows of one array. Each pose row of
    # a depth takes its moving node's position, and each child its parent's.
    XY = np.array([[ego.pose.x], [ego.pose.y]])
    moved = []
    for d in range(HORIZON_N):
        if d:
            XY = np.repeat(XY, n_act, axis=1)
        XY = XY + V[d] * CS[d] * DT_S
        moved.append(np.repeat(XY, n_om, axis=1))
    PXY = np.concatenate(moved, axis=1)
    lo, hi = PXY.min(axis=1), PXY.max(axis=1)
    # Segments the c-zones can touch: a c-zone lies within its circumradius
    # of its row, so a segment it touches meets the rows' box grown by that.
    seg_lo, seg_hi = network.edge_bounds()
    keep = ((seg_lo <= hi + _C_ZONE_REACH_M) & (seg_hi >= lo - _C_ZONE_REACH_M)).all(axis=1)
    nb = int(np.count_nonzero(keep[: network.n_boundary]))
    PX, PY = PXY
    exiting = np.zeros(len(PX), dtype=bool) if ego.phase == PHASE_APPROACH else ~lay.in_core_many(PX, PY)
    F = features_many(
        PX, PY, cth, sth, np.zeros(len(PX)), network.edge_segments()[keep], nb, lay.wrong_lanes(lane.id),
        exiting, lane.p1,
    )
    box = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    return _EgoTree((PX, PY, PTH, cth, sth), box, depth_rows, node_rows, V[1:], F)


# Bounds of the table memos: a heading table holds about 23 kB and a speed
# table about 12 kB.
_HEADING_TABLES = 32
_SPEED_TABLES = 16


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _structure_table(group: np.ndarray, n: int) -> tuple:
    """(rows, node_rows, depth_rows) of an n-deep tree whose action a takes
    the distinct omega group[a]. Node k = p*n_act + a of depth d is child
    a of node p: its pose is row rows[d][k] = p*n_om + group[a] of the
    depth's pose rows, and row node_rows[d][k] of all of them."""
    n_act, n_om = len(group), int(group.max()) + 1
    rows, node_rows, depth_rows = [], [], []
    n_rows = 0
    for d in range(n):
        P = n_act**d
        rows.append((np.arange(P)[:, None] * n_om + group).ravel())
        node_rows.append(n_rows + rows[-1])
        depth_rows.append(P * n_om)
        n_rows += P * n_om
    return _frozen(*rows), _frozen(*node_rows), tuple(depth_rows)


def _action_columns(actions: Sequence[Action]) -> Tuple[np.ndarray, ...]:
    """What the tree expansion reads of an action table: the
    accelerations, the distinct turn rates in first-appearance order, and
    each action's index into them. Actions that share a turn rate take one
    state to one pose and differ only in speed. Rates are told apart by
    bit pattern, so 0.0 and -0.0 stay apart."""
    keys = [float(a.omega).hex() for a in actions]
    firsts = list(dict.fromkeys(keys))
    omegas = np.array([float.fromhex(k) for k in firsts])
    group = np.array([firsts.index(k) for k in keys], dtype=np.intp)
    return _frozen(np.array([a.accel for a in actions]), omegas, group)


_ACCELS, _OMEGAS, _OMEGA_GROUP = _action_columns(DEFAULT_ACTIONS)
_STRUCTURE = _structure_table(_OMEGA_GROUP, HORIZON_N)


@functools.lru_cache(maxsize=_HEADING_TABLES)
def _heading_table(theta: str) -> tuple:
    """(CS, PTH, cth, sth) of a tree from the heading whose hex is theta:
    per depth the cos and sin of the moving nodes' headings as the rows of
    a (2, P) array, then the wrapped headings of all pose rows with their
    cos and sin."""
    rows = _STRUCTURE[0]
    TH = np.array([float.fromhex(theta)])
    CS, ths = [], []
    for d in range(HORIZON_N):
        CS.append(np.stack([np.cos(TH), np.sin(TH)]))
        ths.append(wrap_angle_many((TH[:, None] + _OMEGAS * DT_S).ravel()))
        TH = ths[-1][rows[d]]
    PTH = np.concatenate(ths)
    return _frozen(*CS), *_frozen(PTH, np.cos(PTH), np.sin(PTH))


@functools.lru_cache(maxsize=_SPEED_TABLES)
def _speed_table(speed: str) -> tuple:
    """The node speeds of depths 0..HORIZON_N of a tree from the speed
    whose hex is speed: the root's, then each depth's, clipped to
    [0, V_MAX]."""
    V = [np.array([float.fromhex(speed)])]
    for _ in range(HORIZON_N):
        V.append(np.clip((V[-1][:, None] + _ACCELS * DT_S).ravel(), 0.0, V_MAX))
    return _frozen(*V)
