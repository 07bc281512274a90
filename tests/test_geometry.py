"""Geometry predicates checked against independent oracles.

The overlap oracle clips one convex polygon against the other
(Sutherland-Hodgman with inclusive half-planes), the segment oracle uses
orientation tests plus point containment. Both are separate code paths from
the separating-axis and Liang-Barsky routines under test.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from intersim import geometry as geo

from planner_oracle import overlap_one_rect, segment_segment_dist, segments_intersect


# ---------------------------------------------------------------------------
# oracles


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman, inclusive comparisons so touching survives."""
    out = list(subject)
    n = len(clipper)
    for i in range(n):
        a = clipper[i]
        b = clipper[(i + 1) % n]
        if not out:
            return []
        inp = out
        out = []
        ex, ey = b[0] - a[0], b[1] - a[1]

        def side(p):
            return ex * (p[1] - a[1]) - ey * (p[0] - a[0])

        for j in range(len(inp)):
            cur = inp[j]
            prev = inp[j - 1]
            sc, sp = side(cur), side(prev)
            if sc >= 0:
                if sp < 0:
                    t = sp / (sp - sc)
                    out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
                out.append(cur)
            elif sp >= 0:
                t = sp / (sp - sc)
                out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
    return out


def overlap_oracle(ra, rb):
    ca = [tuple(p) for p in ra.corners()]
    cb = [tuple(p) for p in rb.corners()]
    return len(clip_polygon(ca, cb)) > 0


def point_in_rect_oracle(pt, rect):
    c, s = math.cos(rect.theta), math.sin(rect.theta)
    dx, dy = pt[0] - rect.cx, pt[1] - rect.cy
    u = c * dx + s * dy
    w = -s * dx + c * dy
    return abs(u) <= 0.5 * rect.length + 1e-12 and abs(w) <= 0.5 * rect.width + 1e-12


def segment_rect_oracle(p, q, rect):
    if point_in_rect_oracle(p, rect) or point_in_rect_oracle(q, rect):
        return True
    corners = rect.corners()
    for i in range(4):
        if segments_intersect(p, q, tuple(corners[i]), tuple(corners[(i + 1) % 4])):
            return True
    return False


def random_rect(rng, span=20.0):
    return geo.OrientedRect(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(0.5, 9.0),
        rng.uniform(0.5, 5.0),
        rng.uniform(-math.pi, math.pi),
    )


# ---------------------------------------------------------------------------
# scalar predicates


def test_rects_overlap_matches_clipping_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(3000):
        # mix of near and far pairs so both outcomes are exercised
        ra = random_rect(rng)
        rb = random_rect(rng, span=6.0 if rng.random() < 0.6 else 20.0)
        if geo.rects_overlap(ra, rb) != overlap_oracle(ra, rb):
            mismatches += 1
    assert mismatches == 0


def test_rects_overlap_touching_counts():
    a = geo.OrientedRect(0.0, 0.0, 4.0, 2.0, 0.0)
    b = geo.OrientedRect(4.0, 0.0, 4.0, 2.0, 0.0)  # shares edge x=2
    assert geo.rects_overlap(a, b)
    c = geo.OrientedRect(4.0 + 1e-9, 0.0, 4.0, 2.0, 0.0)
    assert not geo.rects_overlap(a, c)
    d = geo.OrientedRect(4.0, 2.0, 4.0, 2.0, 0.0)  # corner touch at (2, 1)
    assert geo.rects_overlap(a, d)


def test_rect_contained_in_other_overlaps():
    a = geo.OrientedRect(0.0, 0.0, 10.0, 10.0, 0.3)
    b = geo.OrientedRect(0.5, -0.2, 1.0, 1.0, 1.2)
    assert geo.rects_overlap(a, b)
    assert geo.rects_overlap(b, a)


def test_segment_rect_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        rect = random_rect(rng, span=5.0)
        p = (rng.uniform(-12, 12), rng.uniform(-12, 12))
        q = (rng.uniform(-12, 12), rng.uniform(-12, 12))
        assert geo.segment_intersects_rect(p, q, rect) == segment_rect_oracle(p, q, rect)


def test_segment_rect_cases():
    rect = geo.OrientedRect(0.0, 0.0, 4.0, 2.0, 0.0)
    assert geo.segment_intersects_rect((-5, 0), (5, 0), rect)  # straight through
    assert geo.segment_intersects_rect((0, 0), (0.1, 0.1), rect)  # fully inside
    assert geo.segment_intersects_rect((2, 1), (5, 5), rect)  # touches corner
    assert not geo.segment_intersects_rect((2.01, 1.01), (5, 5), rect)
    assert geo.segment_intersects_rect((-5, 1), (5, 1), rect)  # grazes top edge
    assert not geo.segment_intersects_rect((-5, 1.001), (5, 1.001), rect)


def test_segment_segment_dist():
    assert segment_segment_dist((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)
    assert segment_segment_dist((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0
    assert segments_intersect((0, 0), (1, 0), (0.5, 0.5), (0.5, 2), tol=0.6)
    assert not segments_intersect((0, 0), (1, 0), (0.5, 0.5), (0.5, 2), tol=0.4)


# ---------------------------------------------------------------------------
# batched kernels agree with the scalar routes


def test_overlap_batch_matches_scalar():
    rng = np.random.default_rng(3)
    other = random_rect(rng, span=4.0)
    B = 400
    cx = rng.uniform(-10, 10, B)
    cy = rng.uniform(-10, 10, B)
    th = rng.uniform(-math.pi, math.pi, B)
    got = geo.overlap_rects_one_many(cx, cy, np.cos(th), np.sin(th), 5.0, 2.0, geo.rect_rows([other]))
    want = np.array(
        [geo.rects_overlap(geo.OrientedRect(cx[i], cy[i], 5.0, 2.0, th[i]), other) for i in range(B)]
    )
    assert np.array_equal(got, want)


def test_one_pass_lane_kernel_matches_the_per_rect_kernel():
    """Against L rectangles in one pass, the kernel flags exactly the rows
    that the per-rect kernel flags for some rectangle, on random rows and
    on rows around each rectangle's corners; one rectangle at a time it
    equals the per-rect kernel, and against none it flags no row."""
    rng = np.random.default_rng(8)
    others = [random_rect(rng, span=6.0) for _ in range(5)]
    corners = np.concatenate([r.corners() for r in others])
    x = np.concatenate([rng.uniform(-12, 12, 300), corners[:, 0] + 2.5, corners[:, 0] - 2.5, corners[:, 0]])
    y = np.concatenate([rng.uniform(-12, 12, 300), corners[:, 1], corners[:, 1], corners[:, 1] + 1.0])
    th = np.concatenate([rng.uniform(-math.pi, math.pi, 300), np.zeros(3 * len(corners))])
    c, s = np.cos(th), np.sin(th)
    per_rect = np.array([overlap_one_rect(x, y, c, s, 5.0, 2.0, r) for r in others])
    got = geo.overlap_rects_one_many(x, y, c, s, 5.0, 2.0, geo.rect_rows(others))
    assert np.array_equal(got, per_rect.any(axis=0))
    # some rows touch two or more rectangles, and some touch none
    assert (per_rect.sum(axis=0) >= 2).any() and not per_rect.any(axis=0).all()
    for r, want in zip(others, per_rect):
        assert np.array_equal(geo.overlap_rects_one_many(x, y, c, s, 5.0, 2.0, geo.rect_rows([r])), want)
    assert not geo.overlap_rects_one_many(x, y, c, s, 5.0, 2.0, geo.rect_rows([])).any()


def test_overlap_batch_touching_counts():
    # exact shared edge and exact corner touch, axis aligned so the floats are exact
    got = geo.overlap_rects_one_many(
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, 2.0, 2.0001]),
        np.ones(3),
        np.zeros(3),
        4.0,
        2.0,
        geo.rect_rows([geo.OrientedRect(4.0, 0.0, 4.0, 2.0, 0.0)]),
    )
    assert got.tolist() == [True, True, False]


_SIZES = ((5.0, 2.0), (8.0, 2.4))


def test_overlap_group_matches_scalar():
    rng = np.random.default_rng(13)
    B = 200
    cx = rng.uniform(-10, 10, B)
    cy = rng.uniform(-10, 10, B)
    th = rng.uniform(-math.pi, math.pi, B)
    others = np.column_stack(
        [rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 4), rng.uniform(-math.pi, math.pi, 4)]
    )
    got = geo.overlap_rects_group(cx, cy, np.cos(th), np.sin(th), [B], others[:, None], _SIZES)
    want = np.array(
        [
            [
                any(
                    geo.rects_overlap(
                        geo.OrientedRect(cx[i], cy[i], length, width, th[i]),
                        geo.OrientedRect(o[0], o[1], length, width, o[2]),
                    )
                    for o in others
                )
                for i in range(B)
            ]
            for length, width in _SIZES
        ]
    )
    assert got.shape == (2, B) and not np.array_equal(got[0], got[1])
    assert np.array_equal(got, want)


def test_overlap_group_per_row_opponents_match_single_rows():
    # runs of rows per instant agree with one call per row, at both sizes
    rng = np.random.default_rng(17)
    m, counts = 3, np.array([1, 6, 36, 107])
    B = int(counts.sum())
    cx = rng.uniform(-10, 10, B)
    cy = rng.uniform(-10, 10, B)
    th = rng.uniform(-math.pi, math.pi, B)
    T = len(counts)
    others = np.stack(
        [rng.uniform(-10, 10, (m, T)), rng.uniform(-10, 10, (m, T)), rng.uniform(-math.pi, math.pi, (m, T))],
        axis=-1,
    )
    c, s = np.cos(th), np.sin(th)
    got = geo.overlap_rects_group(cx, cy, c, s, counts, others, _SIZES)
    instant = np.repeat(np.arange(T), counts)
    want = np.column_stack(
        [geo.overlap_rects_group(cx[b : b + 1], cy[b : b + 1], c[b : b + 1], s[b : b + 1], [1],
                                 others[:, instant[b] : instant[b] + 1], _SIZES)[:, 0]
         for b in range(B)]
    )
    assert got.any() and not got.all()
    assert np.array_equal(got, want)


def test_overlap_group_empty_is_all_false():
    xs = np.zeros(4)
    for others, counts in ((np.zeros((0, 1, 3)), [4]), (np.zeros((0, 4, 3)), [1] * 4)):
        out = geo.overlap_rects_group(xs, xs, xs, xs, counts, others, _SIZES)
        assert out.shape == (2, 4) and not out.any()


def test_segments_hit_rects_matches_scalar():
    """Per row, the scalar any-hit over every segment."""
    rng = np.random.default_rng(5)
    segs = rng.uniform(-10, 10, (12, 4))
    B = 300
    cx = rng.uniform(-10, 10, B)
    cy = rng.uniform(-10, 10, B)
    th = rng.uniform(-math.pi, math.pi, B)
    cx[:2], cy[:2] = 0.0, 0.0  # rectangles that segments near the origin cross
    got = geo.segments_hit_rects(segs, cx, cy, th, 5.0, 2.0)
    want = np.zeros(B, dtype=bool)
    for i in range(B):
        rect = geo.OrientedRect(cx[i], cy[i], 5.0, 2.0, th[i])
        want[i] = any(geo.segment_intersects_rect((s[0], s[1]), (s[2], s[3]), rect) for s in segs)
    assert np.array_equal(got, want)
    assert got[:2].all() and not got.all()


def test_segments_hit_rects_empty():
    out = geo.segments_hit_rects(np.zeros((0, 4)), np.zeros(3), np.zeros(3), np.zeros(3), 5.0, 2.0)
    assert out.shape == (3,) and not out.any()


def _segment_cases(rng, n):
    """n segments: random ones, with every third horizontal, vertical or of
    zero length."""
    segs = rng.uniform(-8, 8, (n, 4))
    for k in range(n):
        if k % 3 == 1:
            segs[k, 3] = segs[k, 1]  # horizontal
        elif k % 3 == 2:
            segs[k, 2] = segs[k, 0]  # vertical
    segs[::4, 2:] = segs[::4, :2]  # zero length
    return segs


@pytest.mark.parametrize("B, S", [(60, 7), (7, 60), (12, 12), (1, 9), (9, 1), (1, 1)],
                         ids=["B>S", "B<S", "B=S", "B=1", "S=1", "B=S=1"])
def test_segment_hit_matrix_matches_scalar_in_either_orientation(B, S):
    """The kernel loops over whichever axis is longer; every pair still
    agrees with the scalar clip, and the result stays (B, S)."""
    rng = np.random.default_rng(B * 100 + S)
    segs = _segment_cases(rng, S)
    cx, cy = rng.uniform(-8, 8, B), rng.uniform(-8, 8, B)
    th = rng.uniform(-math.pi, math.pi, B)
    th[::2] = np.resize([0.0, math.pi / 2, math.pi, -math.pi / 2], th[::2].shape)  # axis-aligned rectangles
    c, s = np.cos(th), np.sin(th)
    got = geo.segments_hit_rects_matrix(segs, cx, cy, c, s, 5.0, 2.0)
    assert got.shape == (B, S) and got.dtype == bool
    for b in range(B):
        rect = geo.OrientedRect(cx[b], cy[b], 5.0, 2.0, th[b])
        for k, seg in enumerate(segs):
            assert got[b, k] == geo.segment_intersects_rect(seg[:2], seg[2:], rect), (b, k)
    # one row at a time (B = 1 <= S) and one segment at a time (B >= S = 1)
    # take the other orientation whenever B and S differ
    by_row = [geo.segments_hit_rects_matrix(segs, cx[[b]], cy[[b]], c[[b]], s[[b]], 5.0, 2.0) for b in range(B)]
    by_seg = [geo.segments_hit_rects_matrix(segs[[k]], cx, cy, c, s, 5.0, 2.0) for k in range(S)]
    assert np.array_equal(np.vstack(by_row), got) and np.array_equal(np.hstack(by_seg), got)


# ---------------------------------------------------------------------------
# layouts


def test_fourway_structure():
    lay = geo.make_fourway()
    assert set(lay.arms) == {"E", "N", "W", "S"}
    assert len(lay.lanes) == 8
    # right-hand traffic: eastbound exit centerline at y = -2, far end x = 34
    assert lay.lanes["E.out"].p1 == (34.0, -2.0)
    assert lay.lanes["E.in"].p0 == (34.0, 2.0)
    assert lay.lanes["N.out"].p1 == pytest.approx((2.0, 34.0))
    assert lay.lanes["S.out"].p1 == pytest.approx((-2.0, -34.0))
    assert lay.lanes["W.out"].p1 == pytest.approx((-34.0, 2.0))
    # four L corners, eight boundary segments total
    assert lay.boundary_segments().shape == (8, 4)
    corners = {(4, 4), (4, -4), (-4, 4), (-4, -4)}
    mids = {tuple(b[1]) for b in lay.boundaries}
    assert mids == corners
    # markings sit on the arm axes outside the core box
    for seg in lay.marking_segments():
        assert not geo.segment_intersects_rect(seg[:2], seg[2:], geo.OrientedRect(0, 0, 7.98, 7.98, 0.0))


def test_tshape_structure():
    lay = geo.make_tshape(stem="S")
    assert set(lay.arms) == {"E", "W", "S"}
    # north side is one straight edge
    straights = [b for b in lay.boundaries if len(b) == 2]
    assert len(straights) == 1
    (x0, y0), (x1, y1) = straights[0]
    assert y0 == y1 == 4.0 and {x0, x1} == {34.0, -34.0}
    assert len(lay.markings) == 3


def test_roundabout_structure():
    lay = geo.make_roundabout()
    island = lay.boundaries[0]
    assert len(island) == 65
    assert np.allclose(island[0], island[-1])
    assert np.allclose(np.hypot(island[:, 0], island[:, 1]), 8.0)
    # arm edges begin on the outer circle
    u0 = math.sqrt(12.0 ** 2 - 4.0 ** 2)
    assert lay.arms["E"].u_start == pytest.approx(u0)
    # ring arcs: centerline radius 10, quadrant ends
    q0 = lay.lanes["ring.q0"]
    assert q0.p1 == pytest.approx((0.0, 10.0))
    assert lay.in_core(11.9, 0.0) and not lay.in_core(12.1, 0.0)


def test_roundabout_outer_arcs_meet_arm_edges():
    lay = geo.make_roundabout()
    segs = lay.boundary_segments()
    endpoints = np.concatenate([segs[:, :2], segs[:, 2:]])
    # every arm edge inner endpoint must appear among arc endpoints
    half = math.degrees(math.asin(4.0 / 12.0))
    for ang in (half, 90 - half, 90 + half, 180 - half):
        pt = (12 * math.cos(math.radians(ang)), 12 * math.sin(math.radians(ang)))
        d = np.hypot(endpoints[:, 0] - pt[0], endpoints[:, 1] - pt[1]).min()
        assert d < 1e-9


def test_turn_targets_box():
    lay = geo.make_fourway()
    assert geo.turn_targets(lay, "E", "W") == ["W.out"]
    assert geo.turn_targets(lay, "E", "S") == ["S.out"]
    with pytest.raises(ValueError):
        geo.turn_targets(lay, "E", "E")


def test_turn_targets_roundabout():
    lay = geo.make_roundabout()
    assert geo.turn_targets(lay, "E", "N") == ["N.out"]
    assert geo.turn_targets(lay, "E", "W") == ["ring.q0", "W.out"]
    assert geo.turn_targets(lay, "E", "S") == ["ring.q0", "ring.q1", "S.out"]
    assert geo.turn_targets(lay, "E", "E") == ["ring.q0", "ring.q1", "ring.q2", "E.out"]
    assert geo.turn_targets(lay, "N", "S") == ["ring.q1", "S.out"]
    assert geo.turn_targets(lay, "S", "N") == ["ring.q3", "N.out"]


def test_arc_reached_window():
    lay = geo.make_roundabout()
    # q0 ends at 90 degrees; reached once the polar angle passes it
    assert not geo.arc_reached(lay, "ring.q0", 10.0, 0.5)
    assert geo.arc_reached(lay, "ring.q0", 0.0, 10.0)
    assert geo.arc_reached(lay, "ring.q0", -3.0, 9.5)
    assert not geo.arc_reached(lay, "ring.q0", -10.0, -1.0)  # 185 deg, window closed


def _layout_bits(lay):
    """Everything a layout holds, floats by their exact repr and arrays by
    their bytes."""
    return repr((
        lay.name, lay.kind, lay.center,
        [(a.id, a.angle, a.u_start, a.u_end) for a in lay.arms.values()],
        [dataclasses.asdict(ln) for ln in lay.lanes.values()],
        [(b.shape, b.tobytes()) for b in lay.boundaries + lay.markings],
    ))


@pytest.mark.parametrize("kind", ["fourway", "tshape", "roundabout", "city"])
def test_a_recipe_file_builds_what_its_builder_builds(tmp_path, kind):
    """A network file holds builder arguments, so loading one gives arrays
    bit-equal to the builder's: each built-in kind, a T junction on
    another stem with a lengthened arm, and the city."""
    path = tmp_path / "net.json"
    if kind == "city":
        recipe, want = geo.CITY, geo.make_city()
    else:
        recipe, want = {"format_version": 2, "intersections": [{"kind": kind, "name": "I0"}]}, geo.single_network(kind)
    path.write_text(json.dumps(recipe))
    got = geo.RoadNetwork.load(str(path))
    assert got.names == want.names and got.connectors == want.connectors
    assert [_layout_bits(got.layouts[n]) for n in got.names] == [_layout_bits(want.layouts[n]) for n in want.names]
    if kind == "city":
        assert got.neighbor("F", "E") == ("T1", "W")
        assert got.neighbor("T1", "W") == ("F", "E")
        assert got.neighbor("F", "W") is None
    if kind == "tshape":
        args = {"name": "T", "center": [3, -2], "stem": "W", "arm_lengths": {"W": 12, "N": 40.5}}
        path.write_text(json.dumps({"format_version": 2, "intersections": [{"kind": "tshape", **args}]}))
        lay = geo.RoadNetwork.load(str(path)).layouts["T"]
        assert _layout_bits(lay) == _layout_bits(geo.make_tshape(**args))
        assert lay.arms["W"].u_end == geo.LANE_WIDTH_M + 12 and lay.arms["S"].u_end == geo.LANE_WIDTH_M + 30


@pytest.mark.parametrize(
    "args, needle",
    [
        ({"center": [0.0]}, "center must be two finite numbers"),
        ({"center": [0.0, float("nan")]}, "center must be two finite numbers"),
        ({"center": "00"}, "center must be two finite numbers"),
        ({"center": [True, 0.0]}, "center must be two finite numbers"),
        ({"arm_lengths": {"E": 0}}, "arm_lengths['E'] must be finite and positive"),
        ({"arm_lengths": {"E": -5}}, "arm_lengths['E'] must be finite and positive"),
        ({"arm_lengths": {"E": float("inf")}}, "arm_lengths['E'] must be finite and positive"),
        ({"arm_lengths": {"E": "30"}}, "arm_lengths['E'] must be finite and positive"),
        ({"arm_lengths": {"Q": 10.0}}, "arm_lengths names arm 'Q'"),
        ({"arm_lengths": [10.0]}, "arm_lengths must map arm ids to lengths"),
        ({"name": "a:b"}, "name must be a nonempty string without ':'"),
        ({"name": 5}, "name must be a nonempty string without ':'"),
        ({"name": ""}, "name must be a nonempty string without ':'"),
    ],
)
@pytest.mark.parametrize("builder", [geo.make_fourway, geo.make_tshape, geo.make_roundabout])
def test_builders_refuse_bad_arguments(builder, args, needle):
    with pytest.raises(ValueError) as e:
        builder(**args)
    assert needle in str(e.value)


def test_tshape_refuses_a_bad_stem_and_the_arm_it_lacks():
    for stem in ("Q", "", None, ["N"]):
        with pytest.raises(ValueError, match="stem must be one of N, E, S, W"):
            geo.make_tshape(stem=stem)
    with pytest.raises(ValueError, match="arm_lengths names arm 'N'"):
        geo.make_tshape(stem="S", arm_lengths={"N": 10.0})


def test_network_validation_rejects_gap():
    a = geo.make_fourway(name="A")
    b = geo.make_fourway(center=(70.0, 0.0), name="B")  # ports at 34 and 36
    with pytest.raises(ValueError):
        geo.RoadNetwork([a, b], connectors=[("A", "E", "B", "W")])


def test_city_ports_coincide():
    net = geo.make_city()
    for a, arm_a, b, arm_b in net.connectors:
        pa = net.layouts[a].port(arm_a)
        pb = net.layouts[b].port(arm_b)
        assert geo.euclidean_dist(pa, pb) < 1e-9


def test_arm_point_inverts_arm_frame():
    """Exact, both ways, on every arm of the built-in layouts, which are
    axis-aligned, at grid points whose sums are exact in float; within
    rounding on a rotated arm."""
    grid = [(u, w) for u in np.arange(-8.0, 72.0, 1.25).tolist() for w in (-4.0, -2.5, -0.5, 0.0, 1.25, 4.0)]
    nets = [geo.make_city(), *(geo.single_network(kind) for kind in geo.BUILDERS)]
    for lay in (lay for net in nets for lay in net.layouts.values()):
        for arm in lay.arms.values():
            for u, w in grid:
                assert lay.arm_frame(arm.id, *geo.arm_point(lay.center, arm, u, w)) == (u, w)
                x, y = lay.center[0] + u, lay.center[1] + w
                assert geo.arm_point(lay.center, arm, *lay.arm_frame(arm.id, x, y)) == (x, y)
    arm = geo.Arm("A", 0.5, 4.0, 34.0)
    lay = geo.RoadLayout("rotated", "fourway", (3.0, -2.0), {"A": arm}, {}, [], [])
    for u, w in grid:
        assert lay.arm_frame("A", *geo.arm_point(lay.center, arm, u, w)) == pytest.approx((u, w), abs=1e-12)


@pytest.mark.parametrize("kind", ["city", "fourway", "tshape", "roundabout"])
def test_edge_table_stacks_every_layouts_edge_segments(kind):
    """The network's edge_segments() is every layout's boundary_segments()
    in listing order, then every layout's marking_segments(), bit for bit;
    n_boundary counts the boundary rows, and the table and its bounds are
    built once."""
    net = geo.make_city() if kind == "city" else geo.single_network(kind)
    segs = net.edge_segments()
    lays = [net.layouts[name] for name in net.names]
    parts = [lay.boundary_segments() for lay in lays] + [lay.marking_segments() for lay in lays]
    assert np.array_equal(segs.view(np.uint64), np.vstack(parts).view(np.uint64))
    assert net.n_boundary == sum(len(lay.boundary_segments()) for lay in lays) > 0
    assert len(segs) > net.n_boundary
    assert len(net.names) == (4 if kind == "city" else 1)
    assert net.edge_segments() is segs
    lo, hi = net.edge_bounds()
    assert net.edge_bounds()[0] is lo
    assert np.array_equal(lo, np.minimum(segs[:, :2], segs[:, 2:]))
    assert np.array_equal(hi, np.maximum(segs[:, :2], segs[:, 2:]))


def test_wrap_angle():
    assert geo.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert geo.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert geo.wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    vals = geo.wrap_angle_many(np.array([0.0, 2 * math.pi, -3.5 * math.pi]))
    assert np.allclose(vals, [0.0, 0.0, 0.5 * math.pi])
