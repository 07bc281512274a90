"""Road geometry for unsignalized intersections.

World frame: x east, y north, meters. Angles in radians, CCW from +x,
wrapped to (-pi, pi]. Every overlap / crossing predicate uses closed-set
semantics, so touching counts.

An intersection is a RoadLayout: straight approach arms around a core
region (a box, or an annular ring for roundabouts). Arms carry one inbound
and one outbound lane under right-hand traffic. A RoadNetwork is one or
more layouts whose arm ends coincide pairwise (connectors), so a road
shared by two intersections is simply both of their arms.

A network file is the recipe its builders take, and nothing derived: a
JSON object of format_version 2, its "intersections" a list of builder
arguments with the "kind" (name, center, stem for a T, and arm_lengths
by arm id, where an arm not named is ARM_LENGTH_M long), and its
"connectors" [a, arm_a, b, arm_b] rows. Each intersection is
BUILDERS[kind] called with its other keys; CITY is an example.
"""

from __future__ import annotations

import json
import math
import numbers
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

    def corners(self) -> List[Tuple[float, float]]:
        """The four (x, y) corners, counterclockwise from the front left."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        ux, uy = c * hl, s * hl
        wx, wy = -s * hw, c * hw
        return [
            (self.cx + ux + wx, self.cy + uy + wy),
            (self.cx - ux + wx, self.cy - uy + wy),
            (self.cx - ux - wx, self.cy - uy - wy),
            (self.cx + ux - wx, self.cy + uy - wy),
        ]


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
            pa = [x * ax + y * ay for x, y in ca]
            pb = [x * ax + y * ay for x, y in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
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


def overlap_rects_one_many(x, y, c, s, length: float, width: float, others: np.ndarray) -> np.ndarray:
    """Closed-set overlap of B equally sized rectangles, at (x, y) with
    heading cos and sin c, s, against any of L rectangles, all pairs in
    one pass. others holds the L as rect_rows.

    Support-function separating axis test: along each of the four edge
    normals, separated iff the center gap exceeds the summed support radii.
    Strict inequality keeps touching as overlap. Returns (B,) bool, true
    where the rectangle touches any of the L.
    """
    hl, hw = 0.5 * length, 0.5 * width
    ocx, ocy, ohl, ohw, co, so = others.T[:, :, None]
    dx = ocx - np.asarray(x)
    dy = ocy - np.asarray(y)
    # C = cos(theta_o - theta), S = sin(theta_o - theta)
    C = np.abs(co * c + so * s)
    S = np.abs(so * c - co * s)
    sep = np.abs(dx * c + dy * s) > hl + ohl * C + ohw * S
    sep |= np.abs(dy * c - dx * s) > hw + ohl * S + ohw * C
    sep |= np.abs(dx * co + dy * so) > ohl + hl * C + hw * S
    sep |= np.abs(dy * co - dx * so) > ohw + hl * S + hw * C
    return ~sep.all(axis=0)


def rect_rows(rects: Sequence[OrientedRect]) -> np.ndarray:
    """(L, 6) rows of center x and y, half length, half width and the
    math.cos and math.sin of the heading: rectangles as
    overlap_rects_one_many reads them."""
    return np.array(
        [[r.cx, r.cy, 0.5 * r.length, 0.5 * r.width, math.cos(r.theta), math.sin(r.theta)] for r in rects]
    ).reshape(-1, 6)


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
    for k, sep in enumerate(sat_separations(ox - np.asarray(x), oy - np.asarray(y), cth, sth, co, so, sizes)):
        out[k] = (~sep).any(axis=0)
    return out


def sat_separations(dx, dy, c, s, co, so, sizes):
    """overlap_rects_group's separating axis test, on floats or arrays that
    broadcast: pairs whose centers lie (dx, dy) apart, with heading cos and
    sin c, s and co, so. Yields per (length, width) of sizes, shared by both
    rectangles, whether an edge normal separates them; touching is overlap."""
    C = abs(co * c + so * s)
    S = abs(so * c - co * s)
    pu, pw = abs(dx * c + dy * s), abs(dy * c - dx * s)
    qu, qw = abs(dx * co + dy * so), abs(dy * co - dx * so)
    for length, width in sizes:
        hl, hw = 0.5 * length, 0.5 * width
        along, across = hl + hl * C + hw * S, hw + hl * S + hw * C
        sep = pu > along
        sep |= pw > across
        sep |= qu > along
        sep |= qw > across
        yield sep


def segments_hit_rects(segs: np.ndarray, cx, cy, theta, length: float, width: float) -> np.ndarray:
    """Whether each of B rectangles touches any of the segments.

    segs has shape (S, 4) as (x0, y0, x1, y1). Returns (B,) bool.
    Closed-set clip of every (rectangle, segment) pair in one
    segments_hit_rects_matrix call, whose pairs each see the same float
    expressions, so a row's flag does not depend on the other rows of the
    call.
    """
    return segments_hit_rects_matrix(segs, cx, cy, np.cos(theta), np.sin(theta), length, width).any(axis=1)


def segments_hit_rects_matrix(
    segs: np.ndarray, cx, cy, cth, sth, length: float, width: float
) -> np.ndarray:
    """Per-segment hit matrix, shape (B, S), of rectangles with heading cos
    and sin cth, sth. See segments_hit_rects.

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
    c = cth[rows]
    s = sth[rows]
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
        # the unit vectors of u and w: fixed by the angle, and read for
        # every arm-frame query
        self.unit_u = (_snap(math.cos(self.angle)), _snap(math.sin(self.angle)))
        self.unit_w = (_snap(-math.sin(self.angle)), _snap(math.cos(self.angle)))


def arm_point(center: Tuple[float, float], arm: Arm, u: float, w: float) -> Tuple[float, float]:
    """The world point at (u, w) in the frame of arm about center: the
    inverse of RoadLayout.arm_frame."""
    ux, uy = arm.unit_u
    wx, wy = arm.unit_w
    return (center[0] + ux * u + wx * w, center[1] + uy * u + wy * w)


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

    p0 and p1 are the centerline endpoints in travel order; p1, the lane's
    end, is the goal point the reward and the encoder measure against.
    w_lo / w_hi bound the lane across the arm (arm frame), used to decide on
    which half of the road a vehicle sits.
    """

    id: str
    kind: str  # "in", "out" or "arc"
    arm: str
    heading: Optional[float]
    p0: Tuple[float, float]
    p1: Tuple[float, float]
    rect: Optional[OrientedRect] = None
    w_lo: float = 0.0
    w_hi: float = 0.0
    arc: Optional[dict] = None  # {"cx","cy","r","a0","a1"} CCW span, degrees


# the built-in layouts' dimensions
LANE_WIDTH_M = 4.0
ARM_LENGTH_M = 30.0  # an arm's length where the recipe names none
ISLAND_RADIUS_M = 8.0
RING_OUTER_R_M = ISLAND_RADIUS_M + LANE_WIDTH_M  # a roundabout's core radius
CIRCLE_SEGMENTS = 64  # polyline segments of a full roundabout circle
MARKING_SETBACK_M = 2.0  # roundabout arm markings start this far out


class _Derived:
    """derived(key, build) holds the values derived from an object that does
    not change once built: build() on the first call with key, the stored
    value after it. A build that raises stores nothing, so it raises again
    on the next call. A subclass sets self._derived = {} when built."""

    def derived(self, key, build: Callable[[], object]):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


class RoadLayout(_Derived):
    """Geometry bundle for a single intersection. Its core is the square
    of half side LANE_WIDTH_M about the center, or for a roundabout the
    disc of radius RING_OUTER_R_M."""

    def __init__(
        self,
        name: str,
        kind: str,
        center: Tuple[float, float],
        arms: Dict[str, Arm],
        lanes: Dict[str, Lane],
        boundaries: List[np.ndarray],
        markings: List[np.ndarray],
    ):
        self.name = name
        self.kind = kind
        self.center = (float(center[0]), float(center[1]))
        self.arms = arms
        self.lanes = lanes
        self.boundaries = boundaries
        self.markings = markings
        self._derived: Dict[object, object] = {}

    # -- derived geometry, computed on first use ------------------------------

    def boundary_segments(self) -> np.ndarray:
        """All boundary polylines flattened to an (S, 4) segment array."""
        return self.derived("boundary_segments", lambda: _polylines_to_segments(self.boundaries))

    def marking_segments(self) -> np.ndarray:
        return self.derived("marking_segments", lambda: _polylines_to_segments(self.markings))

    def straight_lane_rects(self) -> List[Tuple[str, OrientedRect]]:
        return [(lid, ln.rect) for lid, ln in self.lanes.items() if ln.rect is not None]

    def wrong_lanes(self, target: str) -> np.ndarray:
        """The straight lanes other than target as rect_rows: where a
        vehicle leaving the core for target must not go."""
        return self.derived(
            ("wrong_lanes", target),
            lambda: rect_rows([rect for lid, rect in self.straight_lane_rects() if lid != target]),
        )

    # -- queries ------------------------------------------------------------

    def in_core(self, x: float, y: float) -> bool:
        """Whether the point lies in the core, touching included."""
        dx, dy = x - self.center[0], y - self.center[1]
        if self.kind == "roundabout":
            return dx * dx + dy * dy <= RING_OUTER_R_M**2
        return abs(dx) <= LANE_WIDTH_M and abs(dy) <= LANE_WIDTH_M

    def in_core_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """in_core of each point of the arrays x and y."""
        dx, dy = x - self.center[0], y - self.center[1]
        if self.kind == "roundabout":
            return dx * dx + dy * dy <= RING_OUTER_R_M**2
        return (np.abs(dx) <= LANE_WIDTH_M) & (np.abs(dy) <= LANE_WIDTH_M)

    def port(self, arm_id: str) -> Tuple[float, float]:
        """Outer end of an arm axis, where a neighbor layout may attach."""
        a = self.arms[arm_id]
        return arm_point(self.center, a, a.u_end, 0.0)

    def arm_frame(self, arm_id: str, x: float, y: float) -> Tuple[float, float]:
        """(u, w) coordinates of a world point in an arm frame."""
        a = self.arms[arm_id]
        dx, dy = x - self.center[0], y - self.center[1]
        ux, uy = a.unit_u
        wx, wy = a.unit_w
        return (dx * ux + dy * uy, dx * wx + dy * wy)

    def position_angle_deg(self, x: float, y: float) -> float:
        """Polar angle of a point about the core center, in [0, 360)."""
        a = math.degrees(math.atan2(y - self.center[1], x - self.center[0]))
        return a % 360.0


def _segment_bounds(segs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.minimum(segs[:, :2], segs[:, 2:]), np.maximum(segs[:, :2], segs[:, 2:])


def _polylines_to_segments(polylines: List[np.ndarray]) -> np.ndarray:
    return np.vstack([np.zeros((0, 4))] + [polyline_segments(poly) for poly in polylines])


# ---------------------------------------------------------------------------
# builders

ARM_ANGLES = {"E": 0.0, "N": 90.0, "W": 180.0, "S": 270.0}
KIND_LABELS = {"fourway": 1, "tshape": 2, "roundabout": 3}


def is_finite_number(v) -> bool:
    """Whether v is a finite real number; booleans are not numbers."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _checked_recipe(name, center, arm_lengths, arm_ids) -> Tuple[Tuple[float, float], Dict[str, float]]:
    """center as two floats and the length of each arm in arm_ids. Raises
    ValueError unless name can head a lane reference (nonempty, no ':'),
    center is two finite numbers and arm_lengths, None or a dict, maps
    some of arm_ids to finite positive numbers."""
    if not (isinstance(name, str) and name and ":" not in name):
        raise ValueError(f"name must be a nonempty string without ':', got {name!r}")
    if not (isinstance(center, (tuple, list)) and len(center) == 2 and all(map(is_finite_number, center))):
        raise ValueError(f"center must be two finite numbers, got {center!r}")
    arm_lengths = {} if arm_lengths is None else arm_lengths
    if not isinstance(arm_lengths, dict):
        raise ValueError(f"arm_lengths must map arm ids to lengths, got {arm_lengths!r}")
    for aid, length in arm_lengths.items():
        if aid not in arm_ids:
            raise ValueError(f"arm_lengths names arm {aid!r}: expected one of {', '.join(arm_ids)}")
        if not (is_finite_number(length) and length > 0):
            raise ValueError(f"arm_lengths[{aid!r}] must be finite and positive, got {length!r}")
    return (float(center[0]), float(center[1])), {aid: arm_lengths.get(aid, ARM_LENGTH_M) for aid in arm_ids}


def _build_arm_lanes(center, arm: Arm) -> Dict[str, Lane]:
    """Inbound and outbound lane of an arm under right-hand traffic.

    Outbound traffic runs on w in [-LANE_WIDTH_M, 0], inbound on [0, LANE_WIDTH_M].
    """
    lw = LANE_WIDTH_M
    mid_u = 0.5 * (arm.u_start + arm.u_end)
    length = arm.u_end - arm.u_start
    out_rect = OrientedRect(*arm_point(center, arm, mid_u, -0.5 * lw), length, lw, arm.angle)
    in_rect = OrientedRect(*arm_point(center, arm, mid_u, 0.5 * lw), length, lw, arm.angle)
    out_lane = Lane(
        id=f"{arm.id}.out",
        kind="out",
        arm=arm.id,
        heading=wrap_angle(arm.angle),
        p0=arm_point(center, arm, arm.u_start, -0.5 * lw),
        p1=arm_point(center, arm, arm.u_end, -0.5 * lw),
        rect=out_rect,
        w_lo=-lw,
        w_hi=0.0,
    )
    in_lane = Lane(
        id=f"{arm.id}.in",
        kind="in",
        arm=arm.id,
        heading=wrap_angle(arm.angle + math.pi),
        p0=arm_point(center, arm, arm.u_end, 0.5 * lw),
        p1=arm_point(center, arm, arm.u_start, 0.5 * lw),
        rect=in_rect,
        w_lo=0.0,
        w_hi=lw,
    )
    return {out_lane.id: out_lane, in_lane.id: in_lane}


def _box_boundaries(center, arms: List[Arm]) -> List[np.ndarray]:
    """Boundary polylines between angle-consecutive arms of a box layout.

    A 90 degree gap produces an L corner, a 180 degree gap a straight edge.
    """
    cx, cy = center
    lw = LANE_WIDTH_M
    order = sorted(arms, key=lambda a: a.angle % TWO_PI)
    polys = []
    for i, a in enumerate(order):
        b = order[(i + 1) % len(order)]
        gap = (b.angle - a.angle) % TWO_PI
        # left edge of a (w=+lw) meets right edge of b (w=-lw)
        pa = arm_point(center, a, a.u_end, lw)
        pb = arm_point(center, b, b.u_end, -lw)
        if abs(gap - math.pi) < 1e-9:
            polys.append(np.array([pa, pb]))
        else:
            (aux, auy), (bux, buy) = a.unit_u, b.unit_u
            corner = (cx + (aux + bux) * lw, cy + (auy + buy) * lw)
            polys.append(np.array([pa, corner, pb]))
    return polys


def _arm_line(center, arm: Arm, u0: float, w: float) -> np.ndarray:
    """The (2, 2) line along arm at offset w, from u0 to the arm's outer end."""
    return np.array([arm_point(center, arm, u0, w), arm_point(center, arm, arm.u_end, w)])


def make_fourway(
    center=(0.0, 0.0),
    arm_lengths: Optional[Dict[str, float]] = None,
    name: str = "fourway",
) -> RoadLayout:
    """Four-way intersection, arms E, N, W, S."""
    return _make_box_layout("fourway", ["E", "N", "W", "S"], center, arm_lengths, name)


def make_tshape(
    center=(0.0, 0.0),
    stem: str = "S",
    arm_lengths: Optional[Dict[str, float]] = None,
    name: str = "tshape",
) -> RoadLayout:
    """T intersection: a through road plus one stem arm."""
    if stem not in ("N", "E", "S", "W"):
        raise ValueError(f"stem must be one of N, E, S, W, got {stem!r}")
    through = ["E", "W"] if stem in ("N", "S") else ["N", "S"]
    return _make_box_layout("tshape", through + [stem], center, arm_lengths, name)


def _make_box_layout(kind, arm_ids, center, arm_lengths, name):
    center, lengths = _checked_recipe(name, center, arm_lengths, arm_ids)
    arms = {
        aid: Arm(aid, math.radians(ARM_ANGLES[aid]), LANE_WIDTH_M, LANE_WIDTH_M + length)
        for aid, length in lengths.items()
    }
    lanes: Dict[str, Lane] = {}
    for a in arms.values():
        lanes.update(_build_arm_lanes(center, a))
    boundaries = _box_boundaries(center, list(arms.values()))
    markings = [_arm_line(center, a, a.u_start, 0.0) for a in arms.values()]
    return RoadLayout(name, kind, center, arms, lanes, boundaries, markings)


def make_roundabout(
    center=(0.0, 0.0),
    arm_lengths: Optional[Dict[str, float]] = None,
    name: str = "roundabout",
) -> RoadLayout:
    """Single-lane roundabout with four arms, counterclockwise circulation.

    The circulating lane is the annulus between the island and the outer
    radius RING_OUTER_R_M. Arm mouths open through the outer circle, so
    arm edges start at sqrt(r_out^2 - lane_width^2).
    """
    center, lengths = _checked_recipe(name, center, arm_lengths, ["E", "N", "W", "S"])
    cx, cy = center
    lw, r_out = LANE_WIDTH_M, RING_OUTER_R_M
    u_mouth = math.sqrt(r_out * r_out - lw * lw)
    arms = {
        aid: Arm(aid, math.radians(ARM_ANGLES[aid]), u_mouth, r_out + length) for aid, length in lengths.items()
    }
    lanes: Dict[str, Lane] = {}
    for a in arms.values():
        lanes.update(_build_arm_lanes(center, a))

    r_mid = ISLAND_RADIUS_M + 0.5 * lw
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
            arc={"cx": cx, "cy": cy, "r": r_mid, "a0": a0, "a1": a1},
        )

    boundaries = [_circle_polyline(cx, cy, ISLAND_RADIUS_M, CIRCLE_SEGMENTS)]
    half_open = math.degrees(math.asin(lw / r_out))
    order = sorted(arms.values(), key=lambda a: a.angle)
    for i, a in enumerate(order):
        b = order[(i + 1) % len(order)]
        a0 = math.degrees(a.angle) + half_open
        a1 = math.degrees(b.angle) % 360.0 - half_open
        if a1 < a0:
            a1 += 360.0
        boundaries.append(_arc_polyline(cx, cy, r_out, a0, a1, CIRCLE_SEGMENTS))
    for a in arms.values():
        boundaries += [_arm_line(center, a, a.u_start, side) for side in (lw, -lw)]
    markings = [_arm_line(center, a, a.u_start + MARKING_SETBACK_M, 0.0) for a in arms.values()]
    return RoadLayout(name, "roundabout", center, arms, lanes, boundaries, markings)


def _circle_polyline(cx, cy, r, n) -> np.ndarray:
    ang = np.linspace(0.0, TWO_PI, n + 1)
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


def _arc_polyline(cx, cy, r, a0_deg, a1_deg, full_circle_segments) -> np.ndarray:
    n = max(4, int(round(full_circle_segments * (a1_deg - a0_deg) / 360.0)))
    ang = np.radians(np.linspace(a0_deg, a1_deg, n + 1))
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


BUILDERS = {"fourway": make_fourway, "tshape": make_tshape, "roundabout": make_roundabout}
NETWORK_FORMAT = 2  # format_version of a network file


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


class RoadNetwork(_Derived):
    """One or more intersections with coincident arm ends.

    A connector declares that arm `arm_a` of intersection `a` is the same
    stretch of road as arm `arm_b` of intersection `b`. Ports must coincide
    and lanes must line up, validate() checks both. edge_segments() is the
    network's edge table, boundary rows first: one kernel call checks a
    whole tick against it, and the planner scores every ego tree against it.
    """

    def __init__(self, layouts: List[RoadLayout], connectors: Sequence[Sequence[str]]):
        self.layouts: Dict[str, RoadLayout] = {}
        for lay in layouts:
            if lay.name in self.layouts:
                raise ValueError(f"duplicate layout name {lay.name}")
            self.layouts[lay.name] = lay
        self.names: List[str] = [lay.name for lay in layouts]
        self.connectors = [tuple(c) for c in connectors]
        self.validate()
        self._derived: Dict[object, object] = {}

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
        arm order."""
        return self.derived(
            "entry_lanes",
            lambda: [(f"{name}:{aid}.in", self.layouts[name].lanes[f"{aid}.in"])
                     for name in self.names for aid in self.open_arms(name)],
        )

    def entry_frames(self) -> List[Tuple[float, ...]]:
        """(x0, y0, ux, uy, length, xmin, xmax, ymin, ymax) of each
        entry_lanes() centerline: p0, the unit direction, the length and the
        bounding box."""
        return self.derived("entry_frames", lambda: [_lane_frame(lane) for _, lane in self.entry_lanes()])

    def edge_segments(self) -> np.ndarray:
        """Every layout's boundary_segments() in listing order, then every
        layout's marking_segments(), as one (S, 4) array: every segment a
        vehicle must not touch."""
        lays = self.layouts.values()
        return self.derived(
            "edge_segments",
            lambda: np.vstack([lay.boundary_segments() for lay in lays] + [lay.marking_segments() for lay in lays]),
        )

    @property
    def n_boundary(self) -> int:
        """The number of boundary rows at the head of edge_segments()."""
        return self.derived("n_boundary", lambda: sum(len(lay.boundary_segments()) for lay in self.layouts.values()))

    def edge_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment bounding boxes of edge_segments() as (lo, hi), each
        (S, 2)."""
        return self.derived("edge_bounds", lambda: _segment_bounds(self.edge_segments()))

    @classmethod
    def from_recipe(cls, recipe: dict) -> "RoadNetwork":
        """The network a recipe describes (see the module doc): each
        intersection is BUILDERS[kind] called with its other keys. Raises
        KeyError, TypeError or ValueError, naming the key, when malformed."""
        intersections = recipe["intersections"]
        if not intersections:
            raise ValueError("intersections is empty")
        if recipe.get("format_version") != NETWORK_FORMAT:
            raise ValueError(f"format_version {recipe.get('format_version')!r} is not {NETWORK_FORMAT}")
        unknown = sorted(set(recipe) - {"format_version", "intersections", "connectors"})
        if unknown:
            raise ValueError(f"unknown keys {', '.join(unknown)}")
        layouts = []
        for args in intersections:
            args = dict(args)
            kind = args.pop("kind")
            if kind not in BUILDERS:
                raise ValueError(f"unknown kind {kind!r}: expected one of {', '.join(BUILDERS)}")
            layouts.append(BUILDERS[kind](**args))
        return cls(layouts, recipe.get("connectors", []))

    @classmethod
    def load(cls, path: str) -> "RoadNetwork":
        """The network of a recipe file. Raises ValueError naming path
        when the file cannot be read or is not a recipe."""
        try:
            with open(path) as f:
                return cls.from_recipe(json.load(f))
        except OSError as e:
            raise ValueError(f"network file {path} cannot be read: {e.strerror}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"network file {path} is malformed: {type(e).__name__}: {e}") from None


def _lane_frame(lane: Lane) -> Tuple[float, ...]:
    (x0, y0), (x1, y1) = lane.p0, lane.p1
    length = math.hypot(x1 - x0, y1 - y0)
    box = (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
    return (x0, y0, (x1 - x0) / length, (y1 - y0) / length, length, *box)


def single_network(kind: str) -> RoadNetwork:
    """A network holding one built-in intersection, named I0."""
    return RoadNetwork.from_recipe(
        {"format_version": NETWORK_FORMAT, "intersections": [{"kind": kind, "name": "I0"}]}
    )


# The built-in four-node district: a fourway, a roundabout and two T
# junctions. F --- T1 on the bottom road, R --- T2 on the top road, F --- R
# and T1 --- T2 as the vertical links. Arm lengths are tuned so every
# connected pair of ports coincides exactly.
CITY = {
    "format_version": NETWORK_FORMAT,
    "intersections": [
        {"kind": "fourway", "name": "F", "center": [0.0, 0.0]},
        {"kind": "roundabout", "name": "R", "center": [0.0, 76.0], "arm_lengths": {"E": 22.0}},
        {"kind": "tshape", "name": "T1", "center": [68.0, 0.0], "stem": "N", "arm_lengths": {"N": 38.0}},
        {"kind": "tshape", "name": "T2", "center": [68.0, 76.0], "stem": "S"},
    ],
    "connectors": [["F", "E", "T1", "W"], ["F", "N", "R", "S"], ["R", "E", "T2", "W"], ["T1", "N", "T2", "S"]],
}


def make_city() -> RoadNetwork:
    """The built-in district, CITY."""
    return RoadNetwork.from_recipe(CITY)
