"""Stage reward for intersection driving.

Six features weighted and summed. Indicator features are 0 or -1:

  phi1  collision zone overlaps another vehicle's collision zone
  phi2  collision zone crosses a road boundary
  phi3  collision zone crosses an opposing-traffic marking, or while
        leaving the core it enters a straight lane other than the goal lane
  phi4  safe zone overlaps another vehicle's safe zone
  phi5  negative L1 distance from the vehicle center to the goal reference
  phi6  current speed

Weights order the concerns: collisions dominate boundaries, boundaries
dominate lane etiquette, and the distance and speed terms break the
remaining ties toward making progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    OrientedRect,
    Pose2,
    RoadLayout,
    overlap_rects_group,
    overlap_rects_one_many,
    rects_overlap,
    segment_intersects_rect,
    segments_hit_rects_matrix,
)


@dataclass(frozen=True)
class ZoneSpec:
    """Rectangular envelopes around each vehicle, long axis along heading."""

    c_length: float = 5.0
    c_width: float = 2.0
    s_length: float = 8.0
    s_width: float = 2.4

    def c_zone(self, pose: Pose2) -> OrientedRect:
        return OrientedRect(pose.x, pose.y, self.c_length, self.c_width, pose.theta)

    def s_zone(self, pose: Pose2) -> OrientedRect:
        return OrientedRect(pose.x, pose.y, self.s_length, self.s_width, pose.theta)


DEFAULT_ZONES = ZoneSpec()


@dataclass(frozen=True)
class RewardWeights:
    collision: float = 1000.0
    boundary: float = 500.0
    lane: float = 50.0
    safe_gap: float = 100.0
    goal_dist: float = 5.0
    speed: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.collision, self.boundary, self.lane, self.safe_gap, self.goal_dist, self.speed]
        )


DEFAULT_WEIGHTS = RewardWeights()


@dataclass
class FeatureVector:
    collision: float
    boundary: float
    lane: float
    safe_gap: float
    goal_dist: float
    speed: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.collision, self.boundary, self.lane, self.safe_gap, self.goal_dist, self.speed]
        )


def features(
    pose: Pose2,
    speed: float,
    others: Sequence[Pose2],
    layout: RoadLayout,
    ref_point: Tuple[float, float],
    exiting: bool = False,
    target_lane: Optional[str] = None,
    zones: ZoneSpec = DEFAULT_ZONES,
) -> FeatureVector:
    """Scalar feature evaluation for one state.

    others are the poses of vehicles under consideration at the same time
    instant; call sites filter them to the interaction radius.
    """
    cz = zones.c_zone(pose)
    sz = zones.s_zone(pose)

    phi1 = 0.0
    phi4 = 0.0
    for op in others:
        if phi1 == 0.0 and rects_overlap(cz, zones.c_zone(op)):
            phi1 = -1.0
        if phi4 == 0.0 and rects_overlap(sz, zones.s_zone(op)):
            phi4 = -1.0
        if phi1 and phi4:
            break

    phi2 = -1.0 if _any_segment_hits(layout.boundary_segments(), cz) else 0.0

    phi3 = 0.0
    if _any_segment_hits(layout.marking_segments(), cz):
        phi3 = -1.0
    elif exiting:
        for lid, rect in layout.straight_lane_rects():
            if lid != target_lane and rects_overlap(cz, rect):
                phi3 = -1.0
                break

    phi5 = -(abs(ref_point[0] - pose.x) + abs(ref_point[1] - pose.y))
    return FeatureVector(phi1, phi2, phi3, phi4, phi5, float(speed))


def _any_segment_hits(segs: np.ndarray, rect: OrientedRect) -> bool:
    for s in segs:
        if segment_intersects_rect((s[0], s[1]), (s[2], s[3]), rect):
            return True
    return False


# ---------------------------------------------------------------------------
# batched evaluation, one features_many call per ego tree in the planner


def features_many(
    x: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    v: np.ndarray,
    boundary_segs: np.ndarray,
    marking_segs: np.ndarray,
    lane_rects: List[Tuple[str, OrientedRect]],
    target_lane: Optional[str],
    exiting_mask: np.ndarray,
    ref_point: Tuple[float, float],
    zones: ZoneSpec = DEFAULT_ZONES,
    cth: Optional[np.ndarray] = None,
    sth: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Opponent-free feature matrix (B, 6) for B candidate ego states: the
    overlap columns 0 and 3 are 0, and opponent_features fills them. cth
    and sth, when given, are cos and sin of theta.
    """
    B = x.shape[0]
    out = np.zeros((B, 6))
    if cth is None:
        cth, sth = np.cos(theta), np.sin(theta)

    # one clip pass over boundaries and markings together
    nb = len(boundary_segs)
    segs = (
        np.concatenate([boundary_segs, marking_segs])
        if nb and len(marking_segs)
        else (boundary_segs if nb else marking_segs)
    )
    lane_bad = np.zeros(B, dtype=bool)
    if len(segs):
        hits = segments_hit_rects_matrix(segs, x, y, theta, zones.c_length, zones.c_width, cth, sth)
        if nb:
            out[:, 1] = np.where(hits[:, :nb].any(axis=1), -1.0, 0.0)
        if hits.shape[1] > nb:
            lane_bad = hits[:, nb:].any(axis=1)
    if exiting_mask.any() and lane_rects:
        sub = np.nonzero(exiting_mask & ~lane_bad)[0]
        if sub.size:
            wrong = np.zeros(sub.size, dtype=bool)
            for lid, rect in lane_rects:
                if lid == target_lane:
                    continue
                wrong |= overlap_rects_one_many(
                    x[sub], y[sub], theta[sub], zones.c_length, zones.c_width, rect, cth[sub], sth[sub]
                )
            lane_bad[sub] |= wrong
    out[:, 2] = np.where(lane_bad, -1.0, 0.0)

    out[:, 4] = -(np.abs(ref_point[0] - x) + np.abs(ref_point[1] - y))
    out[:, 5] = v
    return out


def opponent_features(out, x, y, cth, sth, opp_states: np.ndarray, counts, zones: ZoneSpec) -> None:
    """Fills the overlap columns 0 (collision zones) and 3 (safe zones) of
    the feature matrix out for the rows at (x, y) with heading cos and sin
    cth, sth, in one overlap_rects_group pass over both zone sizes.
    opp_states (m, T, 3) holds the opponents' poses (x, y, theta) at T
    instants, and the rows come in T runs, counts[t] rows facing instant
    t. Without opponents no kernel runs and the columns keep their values."""
    if not len(opp_states):
        return
    sizes = ((zones.c_length, zones.c_width), (zones.s_length, zones.s_width))
    hit_c, hit_s = overlap_rects_group(x, y, cth, sth, counts, opp_states, sizes)
    out[:, 0] = np.where(hit_c, -1.0, 0.0)
    out[:, 3] = np.where(hit_s, -1.0, 0.0)
