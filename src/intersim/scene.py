"""Vehicle lifecycle and the synchronous per-tick simulation loop.

Every active vehicle picks an action from the common joint state s_t,
then all states advance at once, so no vehicle reacts to another's
same-tick decision. A background vehicle that fails or succeeds leaves
its slot empty, and a new vehicle enters it at a fresh entrance at the
next tick start (the training-loop semantics, kept during evaluation so
traffic density stays constant); the vehicle under test terminates the
episode instead.

Each tick owns one plan cache (planner.PlanCache). The traffic policy,
the AV's decision and the AV's belief observation all plan from s_t, so
a level-k best response searched by one of them is reused by the others
instead of searched again. The cache also holds the tick's ego trees,
keyed by ego input (x, y, theta, speed, phase, goal_ref), so every search
from one vehicle's state, the AV's own best response included, expands
and scores the ego side once; and the distilled encoder's heads of s_t by
slot, so distilled traffic, a distilled AV's rollout step 1 and its
belief update encode each vehicle once. The cache holds plans, trees and
encodings of s_t only and is dropped when the tick ends; the rollout's
later steps, whose states are not s_t, pass a fresh one.

Failures take one detect_fail call per tick, on the post-move snapshot
before any slot empties: every active vehicle against every segment of
the network's edge table, and every pair of active vehicles once, so
both vehicles in a collision fail.

Empty slots fill only at the episode's and each tick's start
(fill_empty_slots), so no ended vehicle blocks a spawn. A spawn defers,
with no draw, only when every entrance lane is blocked, and lands
otherwise by one draw over the free space (spawn_vehicle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    DEFAULT_ACTIONS,
    DT_S,
    PHASE_APPROACH,
    V_MAX,
    VehicleState,
    _zone_in_lane,
    step,
    update_goal,
)
from .geometry import (
    Pose2,
    RoadNetwork,
    rects_overlap,
    segments_hit_rects,
    turn_targets,
)
from .planner import PlanCache, expert_policy
from .reward import C_LENGTH_M, C_WIDTH_M, c_zone

MIN_SEPARATION_M = 10.0
FREE_MARGIN_T = 1e-9  # a blocked window's narrowing at each end, in lane t
MAX_ROUTE_HOPS = 8  # intersections a route crosses before it steers out
T_LIMIT_S = 300.0

STATUS_ACTIVE = "active"
STATUS_FAILED = "failed"
STATUS_SUCCEEDED = "succeeded"

# how an episode ends for the vehicle under test, as the reports name it
KIND_COLLISION = "Collision"
KIND_DEADLOCK = "Deadlock"
KIND_SUCCESS = "Success"


# ---------------------------------------------------------------------------
# routing and spawning


def route_from_entry(
    network: RoadNetwork, name: str, arm_id: str, rng: np.random.Generator
) -> List[str]:
    """Random legal target-lane sequence from an entrance arm until the
    route leaves the network. U-turns are legal only at roundabouts."""
    refs: List[str] = []
    cur_name, cur_arm = name, arm_id
    for hop in range(MAX_ROUTE_HOPS + 1):
        lay = network.layouts[cur_name]
        arms = list(lay.arms)
        if lay.kind != "roundabout":
            arms = [a for a in arms if a != cur_arm]
        if hop >= MAX_ROUTE_HOPS:
            # steer long walks out of the network
            open_here = [a for a in arms if network.neighbor(cur_name, a) is None]
            if open_here:
                arms = open_here
        exit_arm = arms[rng.integers(len(arms))]
        refs.extend(f"{cur_name}:{t}" for t in turn_targets(lay, cur_arm, exit_arm))
        nxt = network.neighbor(cur_name, exit_arm)
        if nxt is None:
            break
        cur_name, cur_arm = nxt
    return refs


def _free_intervals(network: RoadNetwork, live: Sequence[Tuple[float, float]]) -> List[Tuple[int, float, float]]:
    """(k, t0, t1) of each stretch of t in [0.05, 0.95] along entrance lane k
    that no live center blocks. A center at offset a from the lane's line
    blocks the open window of half-length sqrt(R^2 - a^2), R = MIN_SEPARATION_M,
    around its projection, narrowed by FREE_MARGIN_T at each end, so every
    point that spawn_vehicle's hypot test accepts lies in some stretch, and
    none is empty."""
    r = MIN_SEPARATION_M
    out = []
    for k, (x0, y0, ux, uy, length, xmin, xmax, ymin, ymax) in enumerate(network.entry_frames()):
        # a center outside the lane's bounding box, grown by r, blocks none of it
        xlo, xhi, ylo, yhi = xmin - r, xmax + r, ymin - r, ymax + r
        windows = []
        for px, py in live:
            if xlo < px < xhi and ylo < py < yhi:
                dx, dy = px - x0, py - y0
                a = dx * uy - dy * ux
                h = math.sqrt(max((r - a) * (r + a), 0.0)) / length - FREE_MARGIN_T
                if h > 0.0:
                    s = (dx * ux + dy * uy) / length
                    windows.append((s - h, s + h))
        lo = 0.05
        for w0, w1 in sorted(windows):
            if w0 > 0.95 or lo > 0.95:
                break
            if w0 > lo:
                out.append((k, lo, w0))
            lo = max(lo, w1)
        if lo < 0.95:
            out.append((k, lo, 0.95))
    return out


def spawn_vehicle(
    network: RoadNetwork,
    states: Sequence[Optional[VehicleState]],
    rng: np.random.Generator,
) -> Optional[VehicleState]:
    """Place a vehicle at a point t in [0.05, 0.95] of an entrance lane at
    least MIN_SEPARATION_M from every live vehicle, with lane-aligned
    heading, a speed drawn from [0, V_MAX) and a random legal route.

    With no free stretch (_free_intervals) it returns None, drawing nothing.
    Else one draw picks the point uniformly over the stretches by t-length,
    the law of rejection tries that draw a lane and t uniformly until one
    clears, and the route and speed draws follow. The point is re-checked
    against every live center, so a free set of zero length defers."""
    entries = network.entry_lanes()
    live = [(s.pose.x, s.pose.y) for s in states if s is not None]
    free = _free_intervals(network, live)
    if not free:
        return None
    u = sum(t1 - t0 for _, t0, t1 in free) * rng.random()
    for k, t0, t1 in free:
        if u < t1 - t0:
            break
        u -= t1 - t0
    t = min(t0 + u, t1)
    ref, lane = entries[k]
    x = lane.p0[0] + t * (lane.p1[0] - lane.p0[0])
    y = lane.p0[1] + t * (lane.p1[1] - lane.p0[1])
    if any(math.hypot(x - px, y - py) < MIN_SEPARATION_M for px, py in live):
        return None
    name, lane_id = ref.split(":")
    refs = route_from_entry(network, name, lane_id.split(".")[0], rng)
    return VehicleState(
        Pose2(x, y, lane.heading),
        V_MAX * rng.random(),  # rng.uniform(0.0, V_MAX), bit for bit
        goal_ref=refs[0],
        target_lane_seq=refs[1:],
        phase=PHASE_APPROACH,
    )


def fill_empty_slots(states: List[Optional[VehicleState]], network: RoadNetwork, rng: np.random.Generator) -> List[int]:
    """Spawn into each empty slot of states, in place and in slot order,
    until one spawn defers: the lanes are as blocked for every later empty
    slot. Returns the slots it filled."""
    filled = []
    for i, s in enumerate(states):
        if s is None:
            states[i] = spawn_vehicle(network, states, rng)
            if states[i] is None:
                break
            filled.append(i)
    return filled


# ---------------------------------------------------------------------------
# lifecycle predicates


def detect_fail(states, indices: Sequence[int], network: RoadNetwork) -> Dict[int, bool]:
    """Whether each vehicle in indices has failed: its c-zone overlaps
    another's, touches a road boundary, or crosses an opposing-traffic
    marking anywhere in the network. Every flag comes from the states as
    given, so sim_step and the training loops call it once per tick on
    the post-move snapshot, before any slot empties.

    Road edges take one segments_hit_rects call over the network's edge
    table. Contacts take one pairwise pass: each pair of the vehicles in
    indices whose centers lie within reach is tested once, and a hit
    fails both."""
    poses = [states[i].pose for i in indices]
    x, y, th = np.array([(p.x, p.y, p.theta) for p in poses], dtype=float).reshape(-1, 3).T.copy()
    failed = segments_hit_rects(network.edge_segments(), x, y, th, C_LENGTH_M, C_WIDTH_M).tolist()
    # centers farther apart than a zone length and a margin cannot touch
    near = np.hypot(x[:, None] - x, y[:, None] - y) <= C_LENGTH_M + 1.0
    for a, b in zip(*np.nonzero(np.triu(near, 1))):
        if rects_overlap(c_zone(poses[a]), c_zone(poses[b])):
            failed[a] = failed[b] = True
    return dict(zip(indices, failed))


def detect_success(state: VehicleState, network: RoadNetwork) -> bool:
    """True once the target sequence is exhausted and the vehicle sits
    fully inside its final exit lane."""
    if state.target_lane_seq:
        return False
    lay, lane = network.resolve(state.goal_ref)
    if lane.kind != "out":
        return False
    return _zone_in_lane(state, lay, lane)


# ---------------------------------------------------------------------------
# policies and controllers


class TrafficPolicy:
    """Decides background-vehicle actions from the common joint state."""

    def select(
        self,
        states: Sequence[Optional[VehicleState]],
        levels: Sequence[int],
        indices: Sequence[int],
        network: RoadNetwork,
        plans: PlanCache,
    ) -> Dict[int, int]:
        """Action index per vehicle in indices. plans is the tick's plan
        cache: it holds plans, trees and encodings of these states only,
        and a policy that searches or encodes reads and adds them there."""
        raise NotImplementedError


class ExpertTraffic(TrafficPolicy):
    """Runs the full game-tree search every tick. Exact but slow; the
    distilled approximators are the production path. Its plans go into
    the tick's plan cache, where the AV finds them."""

    def select(self, states, levels, indices, network, plans):
        return {i: expert_policy(states, i, levels[i], network, plans).action_sequence[0] for i in indices}


class AVController:
    """Per-episode controller for the vehicle under test. Subclasses
    override decide; observe and reset_belief default to no-ops."""

    def decide(
        self, states: Sequence[Optional[VehicleState]], i: int, network: RoadNetwork, plans: PlanCache
    ) -> int:
        """Action index for vehicle i. plans is the tick's plan cache,
        holding plans of these states only (see TrafficPolicy.select);
        controllers that do not plan ignore it."""
        raise NotImplementedError

    def observe(
        self,
        prev_states: Sequence[Optional[VehicleState]],
        actions: Dict[int, int],
        network: RoadNetwork,
        plans: PlanCache,
    ) -> None:
        """Sees the actions every vehicle took from prev_states, the
        states before the move. plans is the same tick's cache as in
        decide, so it holds plans of prev_states."""
        pass

    def reset_belief(self, i: int) -> None:
        pass

    def advance(
        self,
        states: Sequence[Optional[VehicleState]],
        i: int,
        network: RoadNetwork,
    ) -> Optional[Tuple[Pose2, float]]:
        """Optional kinematic override applied after decide. Return the
        (pose, speed) one DT_S tick later to replace the unicycle step, or
        None to keep it. Path-following controllers use this to stay on their
        reference curve, which the quantized heading-rate actions cannot
        track."""
        return None


# ---------------------------------------------------------------------------
# episode state and the synchronous step


@dataclass
class SceneConfig:
    """One scene: n_vehicles background vehicles at levels drawn by
    traffic_model, plus the vehicle under test in slot 0 when av_policy is
    set. Ticks are DT_S long, and the episode ends as a deadlock after
    t_limit_s. A background vehicle that fails or succeeds empties its
    slot, and a new vehicle enters it at a fresh entrance at the next tick
    start, so traffic density stays constant while some entrance lane has
    room."""

    network: RoadNetwork
    n_vehicles: int
    traffic_model: str = "mixed"  # l1 | l2 | mixed
    av_policy: Optional[str] = None
    t_limit_s: float = T_LIMIT_S


@dataclass
class EpisodeState:
    states: List[Optional[VehicleState]]
    levels: List[int]
    tags: List[str]
    rng: np.random.Generator
    collect_log: bool
    av_index: Optional[int] = None
    tick: int = 0
    done: bool = False
    outcome: Optional[str] = None
    av_speed_sum: float = 0.0
    av_ticks: int = 0
    log: List[str] = field(default_factory=list)


def draw_levels(n: int, traffic_model: str, rng: np.random.Generator) -> List[int]:
    if traffic_model == "l1":
        return [1] * n
    if traffic_model == "l2":
        return [2] * n
    if traffic_model == "mixed":
        return [int(1 + rng.integers(2)) for _ in range(n)]
    raise ValueError(f"unknown traffic model {traffic_model!r}")


def init_episode(cfg: SceneConfig, seed, collect_log: bool) -> EpisodeState:
    rng = np.random.default_rng(seed)
    levels = draw_levels(cfg.n_vehicles, cfg.traffic_model, rng)
    tags = [f"l{lv}" for lv in levels]
    av_index = None
    if cfg.av_policy is not None:
        av_index = 0
        levels, tags = [0] + levels, [cfg.av_policy] + tags
    states: List[Optional[VehicleState]] = [None] * len(levels)
    fill_empty_slots(states, cfg.network, rng)
    return EpisodeState(
        states=states,
        levels=levels,
        tags=tags,
        rng=rng,
        av_index=av_index,
        collect_log=collect_log,
    )


def _log_record(ep: EpisodeState, i: int, action: Optional[int], status: str) -> str:
    st = ep.states[i]
    rec = {
        "tick": ep.tick,
        "id": i,
        "x": round(st.pose.x, 6),
        "y": round(st.pose.y, 6),
        "v": round(st.speed, 6),
        "theta": round(st.pose.theta, 6),
        "action": action,
        "policy": ep.tags[i],
        "status": status,
    }
    return json.dumps(rec, separators=(",", ":"))


def sim_step(
    ep: EpisodeState,
    cfg: SceneConfig,
    traffic: TrafficPolicy,
    av: Optional[AVController] = None,
) -> EpisodeState:
    """One synchronous tick: spawns into empty slots, action selection
    from s_t, simultaneous state advance, goal updates, belief
    observation, fail/success handling.

    Empty slots fill first (fill_empty_slots), and the AV hears
    reset_belief for each slot filled, so a new vehicle starts with no
    belief. After the move, one detect_fail call flags every active
    vehicle on the post-move snapshot, and the AV observes the actions. A
    vehicle succeeds when it did not fail and detect_success holds after
    its move and goal update. A background vehicle that fails or succeeds
    is logged and its slot emptied, to fill at the next tick start, or
    later when no entrance lane has room then. The AV failing or
    succeeding ends the episode as KIND_COLLISION or KIND_SUCCESS, and so
    does the time cap, t_limit_s, as KIND_DEADLOCK.

    The tick's plan cache is made after the spawns and passed to select,
    decide and observe, which all plan from s_t: observe gets the copy
    of the states taken before the move."""
    if ep.done:
        return ep
    net = cfg.network
    for i in fill_empty_slots(ep.states, net, ep.rng):
        if av is not None:
            av.reset_belief(i)

    active = [i for i, s in enumerate(ep.states) if s is not None]
    bg = [i for i in active if i != ep.av_index]
    plans = PlanCache()
    actions = traffic.select(ep.states, ep.levels, bg, net, plans)
    if av is not None and ep.av_index in active:
        actions[ep.av_index] = av.decide(ep.states, ep.av_index, net, plans)

    if ep.collect_log:
        for i in active:
            ep.log.append(_log_record(ep, i, actions[i], STATUS_ACTIVE))

    prev = [s.copy() if s is not None else None for s in ep.states]
    for i in active:
        st = ep.states[i]
        moved = None
        if av is not None and i == ep.av_index:
            moved = av.advance(ep.states, i, net)
        if moved is None:
            moved = step(st.pose, st.speed, DEFAULT_ACTIONS[actions[i]])
        st.pose, st.speed = moved
        update_goal(st, net)
    if ep.av_index is not None and ep.av_index in active:
        ep.av_speed_sum += ep.states[ep.av_index].speed
        ep.av_ticks += 1

    if av is not None:
        av.observe(prev, actions, net, plans)

    failed = detect_fail(ep.states, active, net)
    for i in active:
        succeeded = not failed[i] and detect_success(ep.states[i], net)
        if i == ep.av_index:
            if failed[i]:
                ep.done, ep.outcome = True, KIND_COLLISION
            elif succeeded:
                ep.done, ep.outcome = True, KIND_SUCCESS
        elif failed[i] or succeeded:
            status = STATUS_FAILED if failed[i] else STATUS_SUCCEEDED
            if ep.collect_log:
                ep.log.append(_log_record(ep, i, None, status))
            ep.states[i] = None

    ep.tick += 1
    if not ep.done and ep.tick * DT_S >= cfg.t_limit_s:
        ep.done, ep.outcome = True, KIND_DEADLOCK
    return ep


def run_episode(
    cfg: SceneConfig,
    traffic: TrafficPolicy,
    av: Optional[AVController],
    seed,
    collect_log: bool,
) -> dict:
    """Runs one seeded episode to termination and classifies it."""
    ep = init_episode(cfg, seed, collect_log)
    while not ep.done:
        sim_step(ep, cfg, traffic, av)
    mean_v = ep.av_speed_sum / ep.av_ticks if ep.av_ticks else 0.0
    return {
        "outcome": ep.outcome,
        "mean_speed": mean_v,
        "duration_s": ep.tick * DT_S,
        "ticks": ep.tick,
        "log": ep.log,
    }
