"""Vehicle lifecycle and the synchronous per-tick simulation loop.

Every active vehicle picks an action from the common joint state s_t,
then all states advance at once, so no vehicle reacts to another's
same-tick decision. Background vehicles that fail or succeed are
re-initialized at a fresh entrance (the training-loop semantics, kept
during evaluation so traffic density stays constant); the vehicle under
test terminates the episode instead.

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

Road edges take one kernel call per tick: each active vehicle is a row
owning its context and goal layouts' segments of the network's edge table.
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
    LANE_WIDTH_M,
    Pose2,
    RoadNetwork,
    rects_overlap,
    segments_hit_rects,
    turn_targets,
)
from .planner import PlanCache, expert_policy, near_indices
from .reward import C_LENGTH_M, C_WIDTH_M, c_zone

MIN_SEPARATION_M = 10.0
SPAWN_TRIES = 30  # random placements before a spawn defers to the next tick
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


def spawn_vehicle(
    network: RoadNetwork,
    states: Sequence[Optional[VehicleState]],
    rng: np.random.Generator,
) -> Optional[VehicleState]:
    """Place a vehicle at a random point of a random entrance lane, with
    lane-aligned heading, a speed drawn from [0, V_MAX) and a random legal
    route. Each of SPAWN_TRIES draws is kept when its center lies at least
    MIN_SEPARATION_M from every live vehicle; None when no draw does (the spawn
    defers to a later tick)."""
    entries = network.entry_lanes()
    live = [(s.pose.x, s.pose.y) for s in states if s is not None]
    for _ in range(SPAWN_TRIES):
        ref, lane = entries[rng.integers(len(entries))]
        t = 0.05 + (0.95 - 0.05) * rng.random()  # rng.uniform(0.05, 0.95), bit for bit
        x = lane.p0[0] + t * (lane.p1[0] - lane.p0[0])
        y = lane.p0[1] + t * (lane.p1[1] - lane.p0[1])
        for px, py in live:
            if math.hypot(x - px, y - py) < MIN_SEPARATION_M:
                break
        else:
            name, lane_id = ref.split(":")
            arm_id = lane_id.split(".")[0]
            refs = route_from_entry(network, name, arm_id, rng)
            return VehicleState(
                Pose2(x, y, lane.heading),
                V_MAX * rng.random(),  # rng.uniform(0.0, V_MAX), bit for bit
                goal_ref=refs[0],
                target_lane_seq=refs[1:],
                phase=PHASE_APPROACH,
            )
    return None


# ---------------------------------------------------------------------------
# lifecycle predicates


def _hits_other_vehicle(states, i: int) -> bool:
    cz = c_zone(states[i].pose)
    # centers farther apart than a zone length and a margin cannot touch
    for j in near_indices(states, i, C_LENGTH_M + 1.0):
        if rects_overlap(cz, c_zone(states[j].pose)):
            return True
    return False


def road_edge_hits(states, indices: Sequence[int], network: RoadNetwork) -> Dict[int, bool]:
    """Whether each vehicle in indices touches a road boundary or crosses
    a marking of its context layout or, where that differs, of its goal
    layout: one segments_hit_rects call over the network's edge table,
    each row owning the columns of those layouts."""
    segs, cols = network.edge_table()
    owned = np.zeros((len(indices), len(segs)), dtype=bool)
    poses = []
    for r, i in enumerate(indices):
        (c0, c1), (g0, g1) = cols[context_layout(states[i], network)], cols[states[i].goal_ref.split(":")[0]]
        owned[r, c0:c1] = owned[r, g0:g1] = True
        poses.append((states[i].pose.x, states[i].pose.y, states[i].pose.theta))
    x, y, th = np.array(poses, dtype=float).reshape(-1, 3).T.copy()
    hits = segments_hit_rects(segs, x, y, th, C_LENGTH_M, C_WIDTH_M, owned)
    return dict(zip(indices, hits.tolist()))


def detect_fail(states, i: int, edge_hits: Dict[int, bool]) -> bool:
    """A vehicle fails on c-zone overlap with another vehicle, on touching
    a road boundary, or on crossing an opposing-traffic marking.

    The road-edge part depends on vehicle i alone: edge_hits is the
    road_edge_hits of a batch holding i in its current state, where the
    ownership mask keeps each row to its own layouts' segments. sim_step
    and the training loops take it for all vehicles on the post-move
    snapshot in one kernel call, then run the vehicle part in slot order
    between respawns (ROADMAP item 2(a) is pending)."""
    if _hits_other_vehicle(states, i):
        return True
    return edge_hits[i]


def detect_success(state: VehicleState, network: RoadNetwork) -> bool:
    """True once the target sequence is exhausted and the vehicle sits
    fully inside its final exit lane."""
    if state.target_lane_seq:
        return False
    lay, lane = network.resolve(state.goal_ref)
    if lane.kind != "out":
        return False
    return _zone_in_lane(state, lay, lane)


def context_layout(state: VehicleState, network: RoadNetwork) -> str:
    """Name of the intersection vehicle state is in.

    Nearest center by Euclidean distance, ties to listing order; a vehicle
    in a shared arm corridor is assigned to the side its route heads for,
    so handoff happens mid-connector rather than at the far mouth.
    """
    x, y = state.pose.x, state.pose.y
    name = network.nearest_layout(x, y)
    goal_name = state.goal_ref.split(":")[0]
    if goal_name != name:
        lay = network.layouts[name]
        for arm in lay.arms.values():
            nb = network.neighbor(name, arm.id)
            if nb is None or nb[0] != goal_name:
                continue
            u, w = lay.arm_frame(arm.id, x, y)
            if u >= arm.u_start and abs(w) <= LANE_WIDTH_M:
                return goal_name
    return name


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
    t_limit_s. Background vehicles that fail or succeed respawn at a
    fresh entrance, so traffic density stays constant."""

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
    n = cfg.n_vehicles
    states: List[Optional[VehicleState]] = []
    tags: List[str] = []
    av_index = None
    if cfg.av_policy is not None:
        av_index = 0
        states.append(spawn_vehicle(cfg.network, states, rng))
        tags.append(cfg.av_policy)
    levels_bg = draw_levels(n, cfg.traffic_model, rng)
    for lv in levels_bg:
        states.append(spawn_vehicle(cfg.network, states, rng))
        tags.append(f"l{lv}")
    levels = ([0] if av_index is not None else []) + levels_bg
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
    """One synchronous tick: deferred spawns, action selection from s_t,
    simultaneous state advance, goal updates, fail/success handling,
    belief observation.

    Every empty slot tries a spawn first. A vehicle succeeds when it did
    not fail and detect_success holds after its move and goal update. A
    background vehicle that fails or succeeds is logged and respawned in
    place; the slot stays empty when the spawn defers. The AV hears
    reset_belief for each empty slot whose spawn lands and for each
    background vehicle that ends. The AV failing or succeeding ends the
    episode as KIND_COLLISION or KIND_SUCCESS, and so does the time cap,
    t_limit_s, as KIND_DEADLOCK.

    The tick's plan cache is made after the spawns and passed to select,
    decide and observe, which all plan from s_t: observe gets the copy
    of the states taken before the move.

    Road edges are checked for all active vehicles on the post-move
    snapshot in one segments_hit_rects call, each vehicle owning the
    segments of its context and goal layouts in the network's edge table;
    the vehicle-vehicle check then runs in slot order after the
    earlier slots have respawned, so the later partner of a collision can
    miss the wreck (ROADMAP item 2(a) is pending)."""
    if ep.done:
        return ep
    net = cfg.network
    for i, s in enumerate(ep.states):
        if s is None:
            ep.states[i] = spawn_vehicle(net, ep.states, ep.rng)
            if ep.states[i] is not None and av is not None:
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

    edges = road_edge_hits(ep.states, active, net)
    for i in active:
        failed = detect_fail(ep.states, i, edges)
        succeeded = not failed and detect_success(ep.states[i], net)
        if i == ep.av_index:
            if failed:
                ep.done, ep.outcome = True, KIND_COLLISION
            elif succeeded:
                ep.done, ep.outcome = True, KIND_SUCCESS
        elif failed or succeeded:
            status = STATUS_FAILED if failed else STATUS_SUCCEEDED
            if ep.collect_log:
                ep.log.append(_log_record(ep, i, None, status))
            ep.states[i] = spawn_vehicle(net, ep.states, ep.rng)
            if av is not None:
                av.reset_belief(i)

    if av is not None:
        av.observe(prev, actions, net, plans)

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
