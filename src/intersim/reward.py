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

Zones and weights are constants of the model. A vehicle's collision zone
(c-zone, c_zone) is C_LENGTH_M by C_WIDTH_M and its safe zone S_LENGTH_M
by S_WIDTH_M. WEIGHTS, a read-only array, holds the weights in feature
order phi1..phi6: collision 1000, boundary 500, lane 50, safe gap 100,
goal distance 5, speed 1.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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


C_LENGTH_M, C_WIDTH_M = 5.0, 2.0  # the c-zone, long axis along the heading
S_LENGTH_M, S_WIDTH_M = 8.0, 2.4  # the safe zone
WEIGHTS = np.array([1000.0, 500.0, 50.0, 100.0, 5.0, 1.0])  # of phi1..phi6
WEIGHTS.flags.writeable = False


def c_zone(pose: Pose2) -> OrientedRect:
    """The collision zone of a vehicle at pose."""
    return OrientedRect(pose.x, pose.y, C_LENGTH_M, C_WIDTH_M, pose.theta)


def _s_zone(pose: Pose2) -> OrientedRect:
    return OrientedRect(pose.x, pose.y, S_LENGTH_M, S_WIDTH_M, pose.theta)


def features(
    pose: Pose2,
    speed: float,
    others: Sequence[Pose2],
    layout: RoadLayout,
    ref_point: Tuple[float, float],
    exiting: bool = False,
    target_lane: Optional[str] = None,
) -> np.ndarray:
    """Scalar feature evaluation for one state: phi1..phi6 as a (6,) array.

    others are the poses of vehicles under consideration at the same time
    instant; call sites filter them to the interaction radius.
    """
    cz = c_zone(pose)
    sz = _s_zone(pose)

    phi1 = 0.0
    phi4 = 0.0
    for op in others:
        if phi1 == 0.0 and rects_overlap(cz, c_zone(op)):
            phi1 = -1.0
        if phi4 == 0.0 and rects_overlap(sz, _s_zone(op)):
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
    return np.array([phi1, phi2, phi3, phi4, phi5, float(speed)])


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
    cth: np.ndarray,
    sth: np.ndarray,
    v: np.ndarray,
    segs: np.ndarray,
    nb: int,
    wrong_lanes: np.ndarray,
    exiting_mask: np.ndarray,
    ref_point: Tuple[float, float],
) -> np.ndarray:
    """Opponent-free feature matrix (B, 6) for B candidate ego states at
    (x, y) with heading cos and sin cth, sth: the overlap columns 0 and 3
    are 0, and opponent_features fills them. segs holds boundary segments
    in its first nb rows and marking segments after them; the rows of
    exiting_mask are checked against wrong_lanes, rect_rows as
    RoadLayout.wrong_lanes gives them.
    """
    out = np.zeros((x.shape[0], 6))

    # one clip pass over boundaries and markings together
    hits = segments_hit_rects_matrix(segs, x, y, cth, sth, C_LENGTH_M, C_WIDTH_M)
    out[:, 1] = np.where(hits[:, :nb].any(axis=1), -1.0, 0.0)
    lane_bad = hits[:, nb:].any(axis=1)
    if len(wrong_lanes) and exiting_mask.any():
        sub = np.nonzero(exiting_mask & ~lane_bad)[0]
        if sub.size:
            lane_bad[sub] = overlap_rects_one_many(
                x[sub], y[sub], cth[sub], sth[sub], C_LENGTH_M, C_WIDTH_M, wrong_lanes
            )
    out[:, 2] = np.where(lane_bad, -1.0, 0.0)

    out[:, 4] = -(np.abs(ref_point[0] - x) + np.abs(ref_point[1] - y))
    out[:, 5] = v
    return out


def opponent_features(out, x, y, cth, sth, opp_states: np.ndarray, counts) -> None:
    """Fills the overlap columns 0 (collision zones) and 3 (safe zones) of
    the feature matrix out for the rows at (x, y) with heading cos and sin
    cth, sth, in one overlap_rects_group pass over both zone sizes.
    opp_states (m, T, 3) holds the opponents' poses (x, y, theta) at T
    instants, and the rows come in T runs, counts[t] rows facing instant
    t. Without opponents no kernel runs and the columns keep their values."""
    if not len(opp_states):
        return
    sizes = ((C_LENGTH_M, C_WIDTH_M), (S_LENGTH_M, S_WIDTH_M))
    hit_c, hit_s = overlap_rects_group(x, y, cth, sth, counts, opp_states, sizes)
    out[:, 0] = np.where(hit_c, -1.0, 0.0)
    out[:, 3] = np.where(hit_s, -1.0, 0.0)
