"""Receding-horizon level-k planning over the discrete action table.

A level-0 vehicle treats everyone else as fixed obstacles. A level-k
vehicle commits every nearby opponent to the open-loop sequence a
level-(k-1) planner would choose for them, then picks its own best
N-step sequence by full enumeration of the 6^N tree. Only the first
action of the winner is executed, the rest is replanned next tick.

The whole tree is expanded before any node is scored. A child's pose
depends only on its parent's state and its own turn rate, so each depth
keeps one pose row per (parent, distinct omega). The expansion and the
opponent-free features, from one features_many call, form the ego tree,
a function of the ego input (x, y, theta, speed, phase, goal_ref). A
search fills the two overlap columns of a copy and sums the node values,
each with its pose's features and its own speed, depth by depth.

Egos repeat their headings and speeds far more often than their
positions, so trees share three memoised tables: per action set and
horizon the structure table (node and depth rows), per heading the
heading table (each depth's moving-node cos and sin, then every pose
row's wrapped heading with its cos and sin), and per speed the speed
table (each depth's clipped node speeds). A tree computes only its
positions and what follows from them. Plans stay exact: every entry comes
from the numpy calls, on arrays of the same shapes, that expanding one
tree on its own makes (the reference in the test suite does), keys are
bit patterns (float hex, array bytes; 0.0 and -0.0 stay apart), and the
shared arrays are read-only. The memos are bounded, about 1 MB in all at
the default actions and horizon.

Every search takes a PlanCache, the planner's one context: it holds the
config, the finished plans of one joint state by (vehicle, level) and
the ego trees by ego input. A plan is a pure function of (states,
vehicle, level, network, config), and an ego tree of (ego input, network,
config), so every search from the same states under one config may share
one cache; a search that shares nothing takes a fresh PlanCache().

Two culls skip work that cannot change a flag, so plans stay bit-identical.
A search tests only the opponents whose poses at instants 1..N come within
the overlap reach of the box around the tree's pose rows: the circumradii
of the larger zone of each vehicle, plus a 1e-6 m margin (8.352 m for the
default zones). Rectangles whose centers lie farther apart than their
circumradii are disjoint, and then SAT finds a separating edge normal, so
a dropped opponent would have set no flag. A search is thus a function of
the tree and of the poses of the opponents in reach, and searches that
differ only in opponents beyond reach share one. Boundary and marking
segments can only hit the c-zone, so a tree keeps a segment only if its
bounding box meets the box of the pose rows grown by the c-zone's
circumradius plus the margin: a segment the c-zone of a row touches has a
point within that circumradius of the row.

Leaf ordering is node major, so np.argmax (first maximum) selects the
lexicographically smallest tied sequence, with "maintain" first in the
action table. The exhaustive scalar reference in the test suite iterates
in the same order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_ACTIONS, DT_S, V_MAX, ActionSet, VehicleState, rollout
from .dynamics import PHASE_APPROACH, hold_trajectory
from .geometry import RoadNetwork, wrap_angle_many
from .reward import DEFAULT_WEIGHTS, DEFAULT_ZONES, RewardWeights, ZoneSpec, features_many, opponent_features


K_MAX = 2  # the highest level the expert searches
BEHAVIORAL_LEVELS: Tuple[int, ...] = (1, 2)  # the levels traffic plays and the adaptive AV estimates
LAMBDA = 0.8  # discount per planning step


@dataclass(frozen=True)
class PlannerConfig:
    horizon_n: int = 4
    interaction_radius_m: float = 40.0
    actions: ActionSet = DEFAULT_ACTIONS
    zones: ZoneSpec = DEFAULT_ZONES
    weights: RewardWeights = DEFAULT_WEIGHTS


DEFAULT_PLANNER = PlannerConfig()


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
    (m, N, 3) array (see the module doc). theta, cos theta and sin theta
    come from the heading table, the node speeds from the speed table and
    the rows from the structure table: read-only arrays that other trees
    share."""

    poses: Tuple[np.ndarray, ...]
    box: Tuple[float, float, float, float]
    depth_rows: Tuple[int, ...]
    node_rows: Tuple[np.ndarray, ...]
    node_speeds: Tuple[np.ndarray, ...]
    features: np.ndarray
    searched: Dict[tuple, PlanResult] = field(default_factory=dict)


class PlanCache(dict):
    """The planner's context for one joint state: the config in cfg, the
    finished plans by (vehicle, level), and in trees the ego trees of its
    searches, by ego input (x, y, theta, speed, phase, goal_ref) rather
    than by slot."""

    def __init__(self, cfg: PlannerConfig = DEFAULT_PLANNER):
        super().__init__()
        self.cfg = cfg
        self.trees: Dict[tuple, _EgoTree] = {}

    def tree(self, ego: VehicleState, network: RoadNetwork) -> _EgoTree:
        p = ego.pose
        key = (p.x, p.y, p.theta, ego.speed, ego.phase, ego.goal_ref)
        if key not in self.trees:
            self.trees[key] = _ego_tree(ego, network, self.cfg)
        return self.trees[key]


# Slack on the culls' exact reach bounds: far above the rounding of the
# float geometry, far below any distance that matters on the road.
_MARGIN_M = 1e-6


def level0_plan(states: List[VehicleState], i: int, network: RoadNetwork, cache: PlanCache) -> PlanResult:
    """Best response against opponents frozen at their current poses."""
    near = near_indices(states, i, cache.cfg.interaction_radius_m)
    opp = {j: hold_trajectory(states[j].pose, cache.cfg.horizon_n) for j in near}
    return _best_response(states[i], opp, network, cache)


def levelk_plan(states: List[VehicleState], i: int, k: int, network: RoadNetwork, cache: PlanCache) -> PlanResult:
    """Level-k best response. cache holds the finished plans and ego trees
    of these states and is shared across vehicles within one decision tick."""
    if (i, k) in cache:
        return cache[(i, k)]
    if k == 0:
        res = level0_plan(states, i, network, cache)
    else:
        near = near_indices(states, i, cache.cfg.interaction_radius_m)
        opp = {}
        for j in near:
            sub = levelk_plan(states, j, k - 1, network, cache)
            opp[j] = sub.trajectory
        res = _best_response(states[i], opp, network, cache)
    cache[(i, k)] = res
    return res


def best_response(
    ego: VehicleState, opp_trajectories: Dict[int, np.ndarray], network: RoadNetwork, cache: PlanCache
) -> PlanResult:
    """Single-agent receding-horizon search against externally committed
    opponent trajectories, each (N+1, 4). The adaptive controller supplies
    per-opponent predictions here instead of the level recursion; with the
    tick's cache, it reads the ego tree its levelk searches built."""
    return _best_response(ego, opp_trajectories, network, cache)


def expert_policy(states: List[VehicleState], i: int, k: int, network: RoadNetwork, cache: PlanCache) -> PlanResult:
    """The game-tree teacher queried during imitation and evaluation."""
    if not 0 <= k <= K_MAX:
        raise ValueError(f"level {k} outside 0..{K_MAX}")
    return levelk_plan(states, i, k, network, cache)


def near_indices(states: Sequence[Optional[VehicleState]], i: int, radius: float) -> List[int]:
    """Other live vehicles whose centers lie within radius of vehicle i's,
    in slot order. The library's one neighbour query: the planner, the
    AVs and the contact check all call it."""
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
    cfg = cache.cfg
    z = cfg.zones
    tree = cache.tree(ego, network)
    # the pose rows of depth tau face the opponents at instant tau + 1
    opp = np.array([t[1:, :3] for t in opp_trajectories.values()]).reshape(-1, cfg.horizon_n, 3)
    reach = max(math.hypot(z.c_length, z.c_width), math.hypot(z.s_length, z.s_width)) + _MARGIN_M
    x0, y0, x1, y1 = tree.box
    gx = np.maximum(np.maximum(x0 - opp[..., 0], opp[..., 0] - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - opp[..., 1], opp[..., 1] - y1), 0.0)
    opp = opp[(np.hypot(gx, gy) <= reach).any(axis=1)]
    key = opp.tobytes()
    if key not in tree.searched:
        x, y, _, cth, sth = tree.poses
        F = tree.features.copy()
        opponent_features(F, x, y, cth, sth, opp, tree.depth_rows, z)
        n_act = len(cfg.actions)
        w_arr = cfg.weights.as_array()
        value = np.zeros(1)
        disc = 1.0
        for rows, speeds in zip(tree.node_rows, tree.node_speeds):
            fv = F[rows]
            fv[:, 5] = speeds
            value = np.repeat(value, n_act) + disc * (fv @ w_arr)
            disc *= LAMBDA
        best = int(np.argmax(value))
        seq = [int(a) for a in np.unravel_index(best, (n_act,) * cfg.horizon_n)]
        actions = [cfg.actions[i] for i in seq]
        tree.searched[key] = PlanResult(seq, float(value[best]), rollout(ego.pose, ego.speed, actions))
    return tree.searched[key]


def _ego_tree(ego: VehicleState, network: RoadNetwork, cfg: PlannerConfig) -> _EgoTree:
    if ego.goal_ref is None:
        raise ValueError("vehicle has no goal lane")
    lay, lane = network.resolve(ego.goal_ref)
    n = cfg.horizon_n
    acc, _ = cfg.actions.arrays()
    om, om_group = cfg.actions.omega_groups
    n_act, n_om = len(acc), len(om)
    _, node_rows, depth_rows = _structure_table(om_group.tobytes(), n)
    CS, PTH, cth, sth = _heading_table(float(ego.pose.theta).hex(), om.tobytes(), om_group.tobytes(), n)
    V = _speed_table(float(ego.speed).hex(), acc.tobytes(), n)

    # Move every depth, x and y as the rows of one array. Each pose row of
    # a depth takes its moving node's position, and each child its parent's.
    XY = np.array([[ego.pose.x], [ego.pose.y]])
    moved = []
    for d in range(n):
        XY = XY + V[d] * CS[d] * DT_S
        moved.append(np.repeat(XY, n_om, axis=1))
        XY = np.repeat(XY, n_act, axis=1)
    PX, PY = np.concatenate(moved, axis=1)
    box = (PX.min(), PY.min(), PX.max(), PY.max())
    # Segments the c-zones can touch: a c-zone lies within its circumradius
    # of its row, so a segment it touches meets the rows' box grown by that.
    z = cfg.zones
    r = 0.5 * math.hypot(z.c_length, z.c_width) + _MARGIN_M
    grown = np.array([box[0] - r, box[1] - r, box[2] + r, box[3] + r])
    bsegs = _segments_in_box(lay.boundary_segments(), lay.boundary_bounds(), grown)
    msegs = _segments_in_box(lay.marking_segments(), lay.marking_bounds(), grown)
    exiting = (ego.phase != PHASE_APPROACH) & ~_in_core_many(lay, PX, PY)
    F = features_many(
        PX, PY, PTH, np.zeros(len(PX)), bsegs, msegs, lay.straight_lane_rects(), lane.id,
        exiting, lane.ref_point, cfg.zones, cth, sth,
    )
    return _EgoTree((PX, PY, PTH, cth, sth), box, depth_rows, node_rows, V[1:], F)


# Bounds of the table memos: a heading table holds about 23 kB and a speed
# table about 12 kB at the default actions and horizon.
_STRUCTURE_TABLES = 8
_HEADING_TABLES = 32
_SPEED_TABLES = 16


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_STRUCTURE_TABLES)
def _structure_table(om_group: bytes, n: int) -> tuple:
    """(rows, node_rows, depth_rows) of an n-deep tree whose actions take
    the distinct omegas om_group (the bytes of an intp array). Node
    k = p*n_act + a of depth d is child a of node p: its pose is row
    rows[d][k] = p*n_om + om_group[a] of the depth's pose rows, and row
    node_rows[d][k] of all of them."""
    group = np.frombuffer(om_group, dtype=np.intp)
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


@functools.lru_cache(maxsize=_HEADING_TABLES)
def _heading_table(theta: str, om: bytes, om_group: bytes, n: int) -> tuple:
    """(CS, PTH, cth, sth) of an n-deep tree from the heading whose hex is
    theta: per depth the cos and sin of the moving nodes' headings as the
    rows of a (2, P) array, then the wrapped headings of all pose rows with
    their cos and sin."""
    rows = _structure_table(om_group, n)[0]
    om = np.frombuffer(om)
    TH = np.array([float.fromhex(theta)])
    CS, ths = [], []
    for d in range(n):
        CS.append(np.stack([np.cos(TH), np.sin(TH)]))
        ths.append(wrap_angle_many((TH[:, None] + om * DT_S).ravel()))
        TH = ths[-1][rows[d]]
    PTH = np.concatenate(ths)
    return _frozen(*CS), *_frozen(PTH, np.cos(PTH), np.sin(PTH))


@functools.lru_cache(maxsize=_SPEED_TABLES)
def _speed_table(speed: str, acc: bytes, n: int) -> tuple:
    """The node speeds of depths 0..n of a tree from the speed whose hex
    is speed: the root's, then each depth's, clipped to [0, V_MAX]."""
    acc = np.frombuffer(acc)
    V = [np.array([float.fromhex(speed)])]
    for _ in range(n):
        V.append(np.clip((V[-1][:, None] + acc * DT_S).ravel(), 0.0, V_MAX))
    return _frozen(*V)


def _segments_in_box(segs: np.ndarray, bounds: Tuple[np.ndarray, np.ndarray], box: np.ndarray) -> np.ndarray:
    """The rows of segs (x0, y0, x1, y1) whose bounding box, (lo, hi) rows
    of bounds, meets the closed box (x0, y0, x1, y1), in order."""
    lo, hi = bounds
    return segs[((lo <= box[2:]) & (hi >= box[:2])).all(axis=1)]


def _in_core_many(lay, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    cx, cy = lay.center
    if lay.core["type"] == "box":
        h = lay.core["half"]
        return (np.abs(x - cx) <= h) & (np.abs(y - cy) <= h)
    dx, dy = x - cx, y - cy
    return dx * dx + dy * dy <= lay.core["r"] ** 2
