"""Road geometry for unsignalized intersections.

World frame: x east, y north, meters. Angles in radians, CCW from +x,
wrapped to (-pi, pi]. Every overlap / crossing predicate uses closed-set
semantics, so touching counts.

An intersection is a RoadLayout: straight approach arms around a core
region (a box, or an annular ring for roundabouts). Arms carry one inbound
and one outbound lane under right-hand traffic. A RoadNetwork is one or
more layouts whose arm ends coincide pairwise (connectors), so a road
shared by two intersections is simply both of their arms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


def wrap_angle_many(theta: np.ndarray) -> np.ndarray:
    # np.fmod, not np.mod: keeps the arithmetic bit-identical to wrap_angle
    t = np.fmod(theta, TWO_PI)
    t = np.where(t <= -math.pi, t + TWO_PI, np.where(t > math.pi, t - TWO_PI, t))
    return t


def euclidean_dist(p: Sequence[float], q: Sequence[float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


@dataclass
class Pose2:
    x: float
    y: float
    theta: float


@dataclass
class OrientedRect:
    """Rectangle centered at (cx, cy), long axis along theta."""

    cx: float
    cy: float
    length: float
    width: float
    theta: float

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), counterclockwise."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        ux, uy = c * hl, s * hl
        wx, wy = -s * hw, c * hw
        return np.array(
            [
                [self.cx + ux + wx, self.cy + uy + wy],
                [self.cx - ux + wx, self.cy - uy + wy],
                [self.cx - ux - wx, self.cy - uy - wy],
                [self.cx + ux - wx, self.cy + uy - wy],
            ]
        )


def rects_overlap(a: OrientedRect, b: OrientedRect) -> bool:
    """Closed-set overlap test via the separating axis theorem.

    Touching rectangles overlap. Only the four edge normals of the two
    rectangles need checking.
    """
    ca = a.corners()
    cb = b.corners()
    for rect in (a, b):
        c, s = math.cos(rect.theta), math.sin(rect.theta)
        for ax, ay in ((c, s), (-s, c)):
            pa = ca[:, 0] * ax + ca[:, 1] * ay
            pb = cb[:, 0] * ax + cb[:, 1] * ay
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def segment_intersects_rect(p: Sequence[float], q: Sequence[float], rect: OrientedRect) -> bool:
    """Closed-set test of segment pq against the rectangle's area.

    Works in the rectangle frame, then clips the segment against the
    axis-aligned box (Liang-Barsky).
    """
    c, s = math.cos(rect.theta), math.sin(rect.theta)
    hl, hw = 0.5 * rect.length, 0.5 * rect.width

    def to_frame(pt):
        dx, dy = pt[0] - rect.cx, pt[1] - rect.cy
        return (c * dx + s * dy, -s * dx + c * dy)

    x0, y0 = to_frame(p)
    x1, y1 = to_frame(q)
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for delta, lo, hi in ((dx, -hl - x0, hl - x0), (dy, -hw - y0, hw - y0)):
        if abs(delta) < 1e-15:
            if lo > 0.0 or hi < 0.0:
                return False
            continue
        ta, tb = lo / delta, hi / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def polyline_segments(points: np.ndarray) -> np.ndarray:
    """(M, 2) vertex array to (M-1, 4) rows of x1, y1, x2, y2."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        return np.zeros((0, 4))
    return np.hstack([pts[:-1], pts[1:]])


def polylines_min_dist(a_segs: np.ndarray, b_segs: np.ndarray) -> float:
    """Minimum distance between two segment sets, all pairs at once.

    Clamped closest-point parameters on both segments; degenerate
    (zero-length) segments collapse to their start point.
    """
    if not len(a_segs) or not len(b_segs):
        return math.inf
    P1 = a_segs[:, None, 0:2]
    D1 = a_segs[:, None, 2:4] - P1
    Q1 = b_segs[None, :, 0:2]
    D2 = b_segs[None, :, 2:4] - Q1
    R = P1 - Q1
    a = (D1 * D1).sum(-1)
    e = (D2 * D2).sum(-1)
    b = (D1 * D2).sum(-1)
    c = (D1 * R).sum(-1)
    f = (D2 * R).sum(-1)
    tiny = 1e-12
    denom = a * e - b * b
    s = np.where(denom > tiny, np.clip((b * f - c * e) / np.where(denom > tiny, denom, 1.0), 0.0, 1.0), 0.0)
    t = np.where(e > tiny, (b * s + f) / np.where(e > tiny, e, 1.0), 0.0)
    t_cl = np.clip(t, 0.0, 1.0)
    # where t was clamped, recompute s for the clamped endpoint
    s = np.where(
        a > tiny,
        np.clip((b * t_cl - c) / np.where(a > tiny, a, 1.0), 0.0, 1.0),
        0.0,
    )
    diff = (P1 + s[..., None] * D1) - (Q1 + t_cl[..., None] * D2)
    return float(np.sqrt((diff * diff).sum(-1).min()))


# ---------------------------------------------------------------------------
# batched kernels, used by the planner and the per-step fail checks


def overlap_rects_one_many(
    x, y, theta, length: float, width: float, other: OrientedRect, cth=None, sth=None
) -> np.ndarray:
    """Closed-set overlap of B equally sized rectangles against one rectangle.

    Support-function separating axis test: along each of the four edge
    normals, separated iff the center gap exceeds the summed support radii.
    Strict inequality keeps touching as overlap. Returns (B,) bool.
    """
    c = np.cos(theta) if cth is None else cth
    s = np.sin(theta) if sth is None else sth
    hl, hw = 0.5 * length, 0.5 * width
    co, so = math.cos(other.theta), math.sin(other.theta)
    ohl, ohw = 0.5 * other.length, 0.5 * other.width
    dx = other.cx - np.asarray(x)
    dy = other.cy - np.asarray(y)
    # C = cos(theta_o - theta), S = sin(theta_o - theta)
    C = np.abs(co * c + so * s)
    S = np.abs(so * c - co * s)
    sep = np.abs(dx * c + dy * s) > hl + ohl * C + ohw * S
    sep |= np.abs(dy * c - dx * s) > hw + ohl * S + ohw * C
    sep |= np.abs(dx * co + dy * so) > ohl + hl * C + hw * S
    sep |= np.abs(dy * co - dx * so) > ohw + hl * S + hw * C
    return ~sep


def overlap_rects_group(x, y, cth, sth, counts, others: np.ndarray, sizes) -> np.ndarray:
    """Closed-set overlap of B rectangles against any of a group of m, at
    several sizes in one pass.

    The batch rectangles sit at (x, y) with heading cos and sin cth, sth.
    others (m, T, 3) holds the members' poses (x, y, theta) at T instants;
    the batch rows come in T consecutive runs, counts[t] rows facing
    instant t. The members' cos and sin are taken once per instant, and
    the four projections and the relative angle once per pair. sizes holds
    (length, width) pairs; at each size, batch and member rectangles share
    it, and the thresholds are the same support sums as in
    overlap_rects_one_many. Returns (len(sizes), B) bool, true where the
    batch rectangle touches any member.
    """
    out = np.zeros((len(sizes), np.shape(x)[0]), dtype=bool)
    if not len(others):
        return out
    ox, oy, co, so = (
        np.repeat(a, counts, axis=1)
        for a in (others[..., 0], others[..., 1], np.cos(others[..., 2]), np.sin(others[..., 2]))
    )
    dx = ox - np.asarray(x)
    dy = oy - np.asarray(y)
    C = np.abs(co * cth + so * sth)
    S = np.abs(so * cth - co * sth)
    pu, pw = np.abs(dx * cth + dy * sth), np.abs(dy * cth - dx * sth)
    qu, qw = np.abs(dx * co + dy * so), np.abs(dy * co - dx * so)
    for k, (length, width) in enumerate(sizes):
        hl, hw = 0.5 * length, 0.5 * width
        along, across = hl + hl * C + hw * S, hw + hl * S + hw * C
        sep = pu > along
        sep |= pw > across
        sep |= qu > along
        sep |= qw > across
        out[k] = (~sep).any(axis=0)
    return out


def segments_hit_rects(segs: np.ndarray, cx, cy, theta, length: float, width: float) -> np.ndarray:
    """Whether any of S segments touches each of B rectangles.

    segs has shape (S, 4) as (x0, y0, x1, y1). Returns (B,) bool. Closed-set
    Liang-Barsky clip evaluated in every rectangle frame at once.
    """
    m = segments_hit_rects_matrix(segs, cx, cy, theta, length, width)
    if m.shape[1] == 0:
        return np.zeros(m.shape[0], dtype=bool)
    return m.any(axis=1)


def segments_hit_rects_matrix(
    segs: np.ndarray, cx, cy, theta, length: float, width: float, cth=None, sth=None
) -> np.ndarray:
    """Per-segment hit matrix, shape (B, S). See segments_hit_rects.

    Separating axis test between each rectangle and each segment: the two
    rectangle edge normals plus the segment normal (a segment is a
    degenerate rectangle, so its support radius along its own normal is 0).
    Degenerate point segments fall back to plain containment on the first
    two axes.

    The longer of the two axes is the inner loop: with B >= S the pairs are
    computed as (S, B) and the transpose returned, otherwise as (B, S).
    Every pair sees the same float expressions either way, so the result
    does not depend on the orientation.
    """
    B = np.shape(cx)[0] if np.ndim(cx) else 1
    if segs.size == 0:
        return np.zeros((B, 0), dtype=bool)
    flip = B >= len(segs)
    inner, outer = (None, slice(None)), (slice(None), None)
    rows, cols = (inner, outer) if flip else (outer, inner)
    c = (np.cos(theta) if cth is None else cth)[rows]
    s = (np.sin(theta) if sth is None else sth)[rows]
    hl, hw = 0.5 * length, 0.5 * width
    ex = 0.5 * (segs[:, 2] - segs[:, 0])[cols]
    ey = 0.5 * (segs[:, 3] - segs[:, 1])[cols]
    mx = 0.5 * (segs[:, 0] + segs[:, 2])[cols]
    my = 0.5 * (segs[:, 1] + segs[:, 3])[cols]
    dx = mx - np.asarray(cx)[rows]
    dy = my - np.asarray(cy)[rows]
    eu = np.abs(ex * c + ey * s)
    ew = np.abs(ey * c - ex * s)
    sep = np.abs(dx * c + dy * s) > hl + eu
    sep |= np.abs(dy * c - dx * s) > hw + ew
    # segment normal, unnormalized is fine for a homogeneous inequality; its
    # support sum hl*|c*ey - s*ex| + hw*|s*ey + c*ex| is hl*ew + hw*eu bit
    # for bit, as float rounding is symmetric in sign
    sep |= np.abs(dx * -ey + dy * ex) > hl * ew + hw * eu
    return (~sep).T if flip else ~sep


# ---------------------------------------------------------------------------
# layout model


@dataclass
class Arm:
    """Straight approach arm. u points outward from the core, w to its left."""

    id: str
    angle: float
    u_start: float
    u_end: float

    def __post_init__(self):
        # fixed by the angle, and read for every arm-frame query
        self._unit_u = (_snap(math.cos(self.angle)), _snap(math.sin(self.angle)))
        self._unit_w = (_snap(-math.sin(self.angle)), _snap(math.cos(self.angle)))

    def unit_u(self) -> Tuple[float, float]:
        return self._unit_u

    def unit_w(self) -> Tuple[float, float]:
        return self._unit_w


def _snap(v: float) -> float:
    """Round trig noise (below 1e-12) on axis-aligned directions to exact
    -1, 0 or 1."""
    for target in (-1.0, 0.0, 1.0):
        if abs(v - target) < 1e-12:
            return target
    return v


@dataclass
class Lane:
    """One driving lane. Straight lanes have a rect, ring arcs have arc data.

    p0 and p1 are the centerline endpoints in travel order, ref_point is p1.
    w_lo / w_hi bound the lane across the arm (arm frame), used to decide on
    which half of the road a vehicle sits.
    """

    id: str
    kind: str  # "in", "out" or "arc"
    arm: str
    heading: Optional[float]
    p0: Tuple[float, float]
    p1: Tuple[float, float]
    ref_point: Tuple[float, float]
    rect: Optional[OrientedRect] = None
    w_lo: float = 0.0
    w_hi: float = 0.0
    arc: Optional[dict] = None  # {"cx","cy","r","a0","a1"} CCW span, degrees


class RoadLayout:
    """Geometry bundle for a single intersection."""

    def __init__(
        self,
        name: str,
        kind: str,
        label: int,
        center: Tuple[float, float],
        params: dict,
        arms: Dict[str, Arm],
        lanes: Dict[str, Lane],
        boundaries: List[np.ndarray],
        markings: List[np.ndarray],
        core: dict,
    ):
        self.name = name
        self.kind = kind
        self.label = label  # 1 fourway, 2 tshape, 3 roundabout
        self.center = (float(center[0]), float(center[1]))
        self.params = params
        self.arms = arms
        self.lanes = lanes
        self.boundaries = boundaries
        self.markings = markings
        self.core = core
        self._derived: Dict[object, object] = {}

    # -- derived geometry, computed on first use ------------------------------

    def derived(self, key, build: Callable[[], object]):
        """build() on the first call with key, the stored value after it.

        For values that depend on this layout alone, which does not change
        once built. A build that raises stores nothing, so it raises again
        on the next call."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def boundary_segments(self) -> np.ndarray:
        """All boundary polylines flattened to an (S, 4) segment array."""
        return self.derived("boundary_segments", lambda: _polylines_to_segments(self.boundaries))

    def marking_segments(self) -> np.ndarray:
        return self.derived("marking_segments", lambda: _polylines_to_segments(self.markings))

    def edge_segments(self) -> np.ndarray:
        """Boundary then marking segments in one (S, 4) array: every segment
        a vehicle must not touch."""
        return self.derived(
            "edge_segments", lambda: np.vstack([self.boundary_segments(), self.marking_segments()])
        )

    def boundary_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment bounding boxes of boundary_segments() as (lo, hi),
        each (S, 2)."""
        return self.derived("boundary_bounds", lambda: _segment_bounds(self.boundary_segments()))

    def marking_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.derived("marking_bounds", lambda: _segment_bounds(self.marking_segments()))

    def straight_lane_rects(self) -> List[Tuple[str, OrientedRect]]:
        return [(lid, ln.rect) for lid, ln in self.lanes.items() if ln.rect is not None]

    # -- queries ------------------------------------------------------------

    def in_core(self, x: float, y: float) -> bool:
        if self.core["type"] == "box":
            return (
                abs(x - self.center[0]) <= self.core["half"]
                and abs(y - self.center[1]) <= self.core["half"]
            )
        dx, dy = x - self.center[0], y - self.center[1]
        return dx * dx + dy * dy <= self.core["r"] ** 2

    def port(self, arm_id: str) -> Tuple[float, float]:
        """Outer end of an arm axis, where a neighbor layout may attach."""
        a = self.arms[arm_id]
        ux, uy = a.unit_u()
        return (self.center[0] + ux * a.u_end, self.center[1] + uy * a.u_end)

    def arm_frame(self, arm_id: str, x: float, y: float) -> Tuple[float, float]:
        """(u, w) coordinates of a world point in an arm frame."""
        a = self.arms[arm_id]
        dx, dy = x - self.center[0], y - self.center[1]
        ux, uy = a.unit_u()
        wx, wy = a.unit_w()
        return (dx * ux + dy * uy, dx * wx + dy * wy)

    def position_angle_deg(self, x: float, y: float) -> float:
        """Polar angle of a point about the core center, in [0, 360)."""
        a = math.degrees(math.atan2(y - self.center[1], x - self.center[0]))
        return a % 360.0

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "name": self.name,
            "kind": self.kind,
            "label": self.label,
            "center": list(self.center),
            "params": self.params,
            "arms": {
                aid: {
                    "angle_deg": math.degrees(a.angle),
                    "u_start": a.u_start,
                    "u_end": a.u_end,
                }
                for aid, a in self.arms.items()
            },
            "lanes": {
                lid: {
                    "kind": ln.kind,
                    "arm": ln.arm,
                    "heading": ln.heading,
                    "p0": list(ln.p0),
                    "p1": list(ln.p1),
                    "ref_point": list(ln.ref_point),
                    "rect": None
                    if ln.rect is None
                    else [ln.rect.cx, ln.rect.cy, ln.rect.length, ln.rect.width, ln.rect.theta],
                    "w_lo": ln.w_lo,
                    "w_hi": ln.w_hi,
                    "arc": ln.arc,
                }
                for lid, ln in self.lanes.items()
            },
            "boundaries": [np.asarray(b).tolist() for b in self.boundaries],
            "markings": [np.asarray(m).tolist() for m in self.markings],
            "core": self.core,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RoadLayout":
        arms = {
            aid: Arm(aid, math.radians(d["angle_deg"]), d["u_start"], d["u_end"])
            for aid, d in data["arms"].items()
        }
        lanes = {}
        for lid, d in data["lanes"].items():
            rect = None if d["rect"] is None else OrientedRect(*d["rect"])
            lanes[lid] = Lane(
                id=lid,
                kind=d["kind"],
                arm=d["arm"],
                heading=d["heading"],
                p0=tuple(d["p0"]),
                p1=tuple(d["p1"]),
                ref_point=tuple(d["ref_point"]),
                rect=rect,
                w_lo=d["w_lo"],
                w_hi=d["w_hi"],
                arc=d["arc"],
            )
        return cls(
            name=data["name"],
            kind=data["kind"],
            label=data["label"],
            center=tuple(data["center"]),
            params=data["params"],
            arms=arms,
            lanes=lanes,
            boundaries=[np.asarray(b, dtype=float) for b in data["boundaries"]],
            markings=[np.asarray(m, dtype=float) for m in data["markings"]],
            core=data["core"],
        )


def _segment_bounds(segs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.minimum(segs[:, :2], segs[:, 2:]), np.maximum(segs[:, :2], segs[:, 2:])


def _polylines_to_segments(polylines: List[np.ndarray]) -> np.ndarray:
    segs = []
    for poly in polylines:
        p = np.asarray(poly, dtype=float)
        for i in range(len(p) - 1):
            segs.append([p[i, 0], p[i, 1], p[i + 1, 0], p[i + 1, 1]])
    if not segs:
        return np.zeros((0, 4))
    return np.array(segs)


# ---------------------------------------------------------------------------
# builders

ARM_ANGLES = {"E": 0.0, "N": 90.0, "W": 180.0, "S": 270.0}
KIND_LABELS = {"fourway": 1, "tshape": 2, "roundabout": 3}
# the built-in layouts' dimensions, recorded in each layout's params
LANE_WIDTH_M = 4.0
ISLAND_RADIUS_M = 8.0
CIRCLE_SEGMENTS = 64  # polyline segments of a full roundabout circle
MARKING_SETBACK_M = 2.0  # roundabout arm markings start this far out


def _build_arm_lanes(center, arm: Arm, lane_width: float) -> Dict[str, Lane]:
    """Inbound and outbound lane of an arm under right-hand traffic.

    Outbound traffic runs on w in [-lane_width, 0], inbound on [0, lane_width].
    """
    cx, cy = center
    ux, uy = arm.unit_u()
    wx, wy = arm.unit_w()
    lw = lane_width
    mid_u = 0.5 * (arm.u_start + arm.u_end)
    length = arm.u_end - arm.u_start

    def at(u, w):
        return (cx + ux * u + wx * w, cy + uy * u + wy * w)

    out_rect = OrientedRect(*at(mid_u, -0.5 * lw), length, lw, arm.angle)
    in_rect = OrientedRect(*at(mid_u, 0.5 * lw), length, lw, arm.angle)
    out_lane = Lane(
        id=f"{arm.id}.out",
        kind="out",
        arm=arm.id,
        heading=wrap_angle(arm.angle),
        p0=at(arm.u_start, -0.5 * lw),
        p1=at(arm.u_end, -0.5 * lw),
        ref_point=at(arm.u_end, -0.5 * lw),
        rect=out_rect,
        w_lo=-lw,
        w_hi=0.0,
    )
    in_lane = Lane(
        id=f"{arm.id}.in",
        kind="in",
        arm=arm.id,
        heading=wrap_angle(arm.angle + math.pi),
        p0=at(arm.u_end, 0.5 * lw),
        p1=at(arm.u_start, 0.5 * lw),
        ref_point=at(arm.u_start, 0.5 * lw),
        rect=in_rect,
        w_lo=0.0,
        w_hi=lw,
    )
    return {out_lane.id: out_lane, in_lane.id: in_lane}


def _box_boundaries(center, arms: List[Arm], lane_width: float) -> List[np.ndarray]:
    """Boundary polylines between angle-consecutive arms of a box layout.

    A 90 degree gap produces an L corner, a 180 degree gap a straight edge.
    """
    cx, cy = center
    lw = lane_width
    order = sorted(arms, key=lambda a: a.angle % TWO_PI)
    polys = []
    for i, a in enumerate(order):
        b = order[(i + 1) % len(order)]
        gap = (b.angle - a.angle) % TWO_PI
        aux, auy = a.unit_u()
        awx, awy = a.unit_w()
        bux, buy = b.unit_u()
        bwx, bwy = b.unit_w()
        # left edge of a (w=+lw) meets right edge of b (w=-lw)
        pa = (cx + aux * a.u_end + awx * lw, cy + auy * a.u_end + awy * lw)
        pb = (cx + bux * b.u_end - bwx * lw, cy + buy * b.u_end - bwy * lw)
        if abs(gap - math.pi) < 1e-9:
            polys.append(np.array([pa, pb]))
        else:
            corner = (cx + (aux + bux) * lw, cy + (auy + buy) * lw)
            polys.append(np.array([pa, corner, pb]))
    return polys


def make_fourway(
    center=(0.0, 0.0),
    arm_length: float = 30.0,
    name: str = "fourway",
) -> RoadLayout:
    """Four-way intersection, arms E, N, W, S."""
    return _make_box_layout("fourway", ["E", "N", "W", "S"], center, arm_length, {}, name)


def make_tshape(
    center=(0.0, 0.0),
    stem: str = "S",
    arm_length: float = 30.0,
    arm_lengths: Optional[Dict[str, float]] = None,
    name: str = "tshape",
) -> RoadLayout:
    """T intersection: a through road plus one stem arm."""
    through = {"S": ["E", "W"], "N": ["E", "W"], "E": ["N", "S"], "W": ["N", "S"]}[stem]
    return _make_box_layout("tshape", through + [stem], center, arm_length, arm_lengths or {}, name)


def _make_box_layout(kind, arm_ids, center, arm_length, arm_lengths, name):
    lane_width = LANE_WIDTH_M
    arms = {}
    for aid in arm_ids:
        u_start = lane_width
        u_end = u_start + arm_lengths.get(aid, arm_length)
        arms[aid] = Arm(aid, math.radians(ARM_ANGLES[aid]), u_start, u_end)
    lanes: Dict[str, Lane] = {}
    for a in arms.values():
        lanes.update(_build_arm_lanes(center, a, lane_width))
    boundaries = _box_boundaries(center, list(arms.values()), lane_width)
    markings = []
    cx, cy = center
    for a in arms.values():
        ux, uy = a.unit_u()
        markings.append(
            np.array(
                [
                    [cx + ux * a.u_start, cy + uy * a.u_start],
                    [cx + ux * a.u_end, cy + uy * a.u_end],
                ]
            )
        )
    params = {"lane_width": lane_width, "arm_length": arm_length, "arm_lengths": arm_lengths}
    core = {"type": "box", "half": lane_width}
    return RoadLayout(name, kind, KIND_LABELS[kind], center, params, arms, lanes, boundaries, markings, core)


def make_roundabout(
    center=(0.0, 0.0),
    arm_length: float = 30.0,
    arm_lengths: Optional[Dict[str, float]] = None,
    name: str = "roundabout",
) -> RoadLayout:
    """Single-lane roundabout with four arms, counterclockwise circulation.

    The circulating lane is the annulus between the island and the outer
    radius ISLAND_RADIUS_M + LANE_WIDTH_M. Arm mouths open through the
    outer circle, so arm edges start at sqrt(r_out^2 - lane_width^2).
    """
    arm_lengths = arm_lengths or {}
    cx, cy = center
    lw, island_radius, circle_segments = LANE_WIDTH_M, ISLAND_RADIUS_M, CIRCLE_SEGMENTS
    r_out = island_radius + lw
    u_mouth = math.sqrt(r_out * r_out - lw * lw)
    arms = {}
    for aid in ("E", "N", "W", "S"):
        u_end = r_out + arm_lengths.get(aid, arm_length)
        arms[aid] = Arm(aid, math.radians(ARM_ANGLES[aid]), u_mouth, u_end)
    lanes: Dict[str, Lane] = {}
    for a in arms.values():
        lanes.update(_build_arm_lanes(center, a, lw))

    r_mid = island_radius + 0.5 * lw
    for qi in range(4):
        a0, a1 = 90.0 * qi, 90.0 * (qi + 1)
        end = (cx + r_mid * math.cos(math.radians(a1)), cy + r_mid * math.sin(math.radians(a1)))
        start = (cx + r_mid * math.cos(math.radians(a0)), cy + r_mid * math.sin(math.radians(a0)))
        lanes[f"ring.q{qi}"] = Lane(
            id=f"ring.q{qi}",
            kind="arc",
            arm="ring",
            heading=None,
            p0=start,
            p1=end,
            ref_point=end,
            arc={"cx": cx, "cy": cy, "r": r_mid, "a0": a0, "a1": a1},
        )

    boundaries = [_circle_polyline(cx, cy, island_radius, circle_segments)]
    half_open = math.degrees(math.asin(lw / r_out))
    order = sorted(arms.values(), key=lambda a: a.angle)
    for i, a in enumerate(order):
        b = order[(i + 1) % len(order)]
        a0 = math.degrees(a.angle) + half_open
        a1 = math.degrees(b.angle) % 360.0 - half_open
        if a1 < a0:
            a1 += 360.0
        boundaries.append(_arc_polyline(cx, cy, r_out, a0, a1, circle_segments))
    for a in arms.values():
        ux, uy = a.unit_u()
        wx, wy = a.unit_w()
        for side in (lw, -lw):
            boundaries.append(
                np.array(
                    [
                        [cx + ux * a.u_start + wx * side, cy + uy * a.u_start + wy * side],
                        [cx + ux * a.u_end + wx * side, cy + uy * a.u_end + wy * side],
                    ]
                )
            )
    markings = []
    for a in arms.values():
        ux, uy = a.unit_u()
        m0 = a.u_start + MARKING_SETBACK_M
        markings.append(
            np.array([[cx + ux * m0, cy + uy * m0], [cx + ux * a.u_end, cy + uy * a.u_end]])
        )
    params = {
        "lane_width": lw,
        "island_radius": island_radius,
        "arm_length": arm_length,
        "arm_lengths": arm_lengths,
        "circle_segments": circle_segments,
        "marking_setback": MARKING_SETBACK_M,
    }
    core = {"type": "disc", "r": r_out}
    return RoadLayout(name, "roundabout", KIND_LABELS["roundabout"], center, params, arms, lanes, boundaries, markings, core)


def _circle_polyline(cx, cy, r, n) -> np.ndarray:
    ang = np.linspace(0.0, TWO_PI, n + 1)
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


def _arc_polyline(cx, cy, r, a0_deg, a1_deg, full_circle_segments) -> np.ndarray:
    n = max(4, int(round(full_circle_segments * (a1_deg - a0_deg) / 360.0)))
    ang = np.radians(np.linspace(a0_deg, a1_deg, n + 1))
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


BUILDERS = {"fourway": make_fourway, "tshape": make_tshape, "roundabout": make_roundabout}


# ---------------------------------------------------------------------------
# routes within one intersection


def turn_targets(layout: RoadLayout, entry_arm: str, exit_arm: str) -> List[str]:
    """Ordered local goal lane ids for entering at one arm and leaving at another.

    Box layouts go straight to the exit lane. Roundabouts insert the ring
    quadrant arcs whose end angle lies strictly inside the counterclockwise
    sweep from the entry arm to the exit arm, which also makes U-turns work.
    """
    if layout.kind != "roundabout":
        if entry_arm == exit_arm:
            raise ValueError("box layouts have no U-turn")
        return [f"{exit_arm}.out"]
    a_in = math.degrees(layout.arms[entry_arm].angle) % 360.0
    a_out = math.degrees(layout.arms[exit_arm].angle) % 360.0
    sweep = (a_out - a_in) % 360.0
    if sweep == 0.0:
        sweep = 360.0  # U-turn goes all the way around
    targets = []
    for qi in range(4):
        end = 90.0 * (qi + 1)
        rel = (end - a_in) % 360.0
        if 0.0 < rel < sweep:
            targets.append((rel, f"ring.q{qi}"))
    targets.sort()
    return [t for _, t in targets] + [f"{exit_arm}.out"]


def arc_reached(layout: RoadLayout, lane_id: str, x: float, y: float) -> bool:
    """A ring arc target counts as reached once the polar angle passes its end."""
    arc = layout.lanes[lane_id].arc
    rel = (layout.position_angle_deg(x, y) - arc["a1"]) % 360.0
    return 0.0 <= rel < 90.0


# ---------------------------------------------------------------------------
# networks


class RoadNetwork:
    """One or more intersections with coincident arm ends.

    A connector declares that arm `arm_a` of intersection `a` is the same
    stretch of road as arm `arm_b` of intersection `b`. Ports must coincide
    and lanes must line up, validate() checks both.
    """

    def __init__(self, layouts: List[RoadLayout], connectors: Optional[List[Tuple[str, str, str, str]]] = None):
        self.layouts: Dict[str, RoadLayout] = {}
        for lay in layouts:
            if lay.name in self.layouts:
                raise ValueError(f"duplicate layout name {lay.name}")
            self.layouts[lay.name] = lay
        self.names: List[str] = [lay.name for lay in layouts]
        self.connectors = [tuple(c) for c in (connectors or [])]
        self.validate()
        self._entry_lanes: Optional[List[Tuple[str, Lane]]] = None

    def validate(self) -> None:
        for a, arm_a, b, arm_b in self.connectors:
            pa = self.layouts[a].port(arm_a)
            pb = self.layouts[b].port(arm_b)
            if euclidean_dist(pa, pb) > 1e-6:
                raise ValueError(f"connector {a}:{arm_a} <-> {b}:{arm_b} ports do not meet: {pa} vs {pb}")
            ang_a = self.layouts[a].arms[arm_a].angle
            ang_b = self.layouts[b].arms[arm_b].angle
            if abs(wrap_angle(ang_a - ang_b - math.pi)) > 1e-9:
                raise ValueError(f"connector {a}:{arm_a} <-> {b}:{arm_b} arms are not opposed")
            la = self.layouts[a].lanes[f"{arm_a}.out"]
            lb = self.layouts[b].lanes[f"{arm_b}.in"]
            if euclidean_dist(la.p1, lb.p0) > 1e-6:
                raise ValueError(f"connector {a}:{arm_a} <-> {b}:{arm_b} lanes misaligned")

    # references are "name:lane_id"
    def resolve(self, ref: str) -> Tuple[RoadLayout, Lane]:
        name, lane_id = ref.split(":")
        lay = self.layouts[name]
        return lay, lay.lanes[lane_id]

    def neighbor(self, name: str, arm: str) -> Optional[Tuple[str, str]]:
        for a, arm_a, b, arm_b in self.connectors:
            if (a, arm_a) == (name, arm):
                return (b, arm_b)
            if (b, arm_b) == (name, arm):
                return (a, arm_a)
        return None

    def open_arms(self, name: str) -> List[str]:
        """Arms of a layout not consumed by a connector (network entries/exits)."""
        return [aid for aid in self.layouts[name].arms if self.neighbor(name, aid) is None]

    def entry_lanes(self) -> List[Tuple[str, Lane]]:
        """(ref, lane) of every inbound lane of an open arm, in layout then
        arm order; computed on the first call."""
        if self._entry_lanes is None:
            refs = [f"{name}:{aid}.in" for name in self.names for aid in self.open_arms(name)]
            self._entry_lanes = [(ref, self.resolve(ref)[1]) for ref in refs]
        return self._entry_lanes

    def nearest_layout(self, x: float, y: float) -> str:
        """Nearest intersection center, ties broken by listing order."""
        best, best_d = self.names[0], float("inf")
        for name in self.names:
            d = euclidean_dist((x, y), self.layouts[name].center)
            if d < best_d - 1e-12:
                best, best_d = name, d
        return best

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "intersections": [self.layouts[n].to_json() for n in self.names],
            "connectors": [list(c) for c in self.connectors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RoadNetwork":
        layouts = [RoadLayout.from_json(d) for d in data["intersections"]]
        return cls(layouts, [tuple(c) for c in data["connectors"]])

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)

    @classmethod
    def load(cls, path: str) -> "RoadNetwork":
        """Raises ValueError naming path when the file is not a network."""
        with open(path) as f:
            try:
                return cls.from_json(json.load(f))
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"network file {path} is malformed: {type(e).__name__}: {e}") from None


def single_network(kind: str, **kwargs) -> RoadNetwork:
    """A network holding one built-in intersection, named I0."""
    builder = BUILDERS[kind]
    return RoadNetwork([builder(name="I0", **kwargs)])


def make_city() -> RoadNetwork:
    """Built-in four-node district: a fourway, a roundabout and two T junctions.

    F --- T1 on the bottom road, R --- T2 on the top road, F --- R and
    T1 --- T2 as the vertical links. Arm lengths are tuned so every
    connected pair of ports coincides exactly.
    """
    f = make_fourway(center=(0.0, 0.0), name="F")
    r = make_roundabout(center=(0.0, 76.0), arm_lengths={"E": 22.0}, name="R")
    t1 = make_tshape(center=(68.0, 0.0), stem="N", arm_lengths={"N": 38.0}, name="T1")
    t2 = make_tshape(center=(68.0, 76.0), stem="S", name="T2")
    return RoadNetwork(
        [f, r, t1, t2],
        connectors=[
            ("F", "E", "T1", "W"),
            ("F", "N", "R", "S"),
            ("R", "E", "T2", "W"),
            ("T1", "N", "T2", "S"),
        ],
    )
