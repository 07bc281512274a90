"""Monte-Carlo evaluation: seeded episode batches, outcome rates with
binomial intervals, the scalar performance index, the spacing-radius
calibration sweep, and SVG rendering of episode logs.

Episode seeds derive from (master_seed, episode_index), so a batch can be
sliced across worker processes in any chunking and still aggregate to the
same report. Controllers are rebuilt per episode from a plain-data spec;
they carry per-episode state (beliefs, path bindings) that must not leak
between runs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .controllers import (
    AdaptiveController,
    FixedLevelController,
    RC_M,
    RuleBasedController,
)
from .geometry import BUILDERS, Pose2, RoadNetwork, is_finite_number, make_city, single_network
from .imitation import (
    DistilledTraffic,
    PolicyApproximator,
    load_policy,
    wilson_interval,
)
from .reward import C_LENGTH_M, c_zone
from .scene import (
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_SUCCESS,
    T_LIMIT_S,
    AVController,
    EpisodeOutcome,
    ExpertTraffic,
    SceneConfig,
    TrafficPolicy,
    run_episode,
)

J_WEIGHTS = {"w_c": 10.0, "w_d": 5.0, "w_v": 1.0, "eps": 0.1}  # of the performance index

TRAFFIC_MODELS = ("l1", "l2", "mixed")
AV_POLICIES = ("adaptive", "rule-based", "level1", "level2")

REPORT_COLUMNS = (
    "scene", "traffic_model", "av_policy", "n",
    "success_rate", "cr", "dr", "j", "ci_low", "ci_high",
)
CALIBRATION_COLUMNS = (
    "rc", "traffic_model", "n", "success_rate", "cr", "dr", "j",
)
CHART_WIDTH, CHART_HEIGHT = 560, 360  # pixels


# ---------------------------------------------------------------------------
# outcomes and metrics


def performance_index(outcomes: Sequence[EpisodeOutcome]) -> float:
    """Average per-episode penalty under J_WEIGHTS: w_c on a collision,
    w_d on a deadlock, and the inverse-speed term w_v / (v_bar + eps) on a
    success, so slow but safe driving still pays."""
    if not outcomes:
        raise ValueError("performance index over an empty outcome list")
    w = J_WEIGHTS
    total = 0.0
    for o in outcomes:
        if o.kind == KIND_COLLISION:
            total += w["w_c"]
        elif o.kind == KIND_DEADLOCK:
            total += w["w_d"]
        else:
            total += w["w_v"] / (o.mean_speed + w["eps"])
    return total / len(outcomes)


@dataclass
class MetricsReport:
    """Aggregate of one evaluation cell. Counts are exact, so the three
    rates partition one by construction; the interval is a Wilson 95%
    score interval on the success rate."""

    scene: str
    traffic_model: str
    av_policy: str
    n_episodes: int
    successes: int
    collisions: int
    deadlocks: int
    j: float
    ci_low: float
    ci_high: float
    outcomes: List[EpisodeOutcome] = field(default_factory=list, repr=False)
    breakdown: Dict[str, "MetricsReport"] = field(default_factory=dict, repr=False)

    @property
    def success_rate(self) -> float:
        return self.successes / self.n_episodes

    @property
    def cr(self) -> float:
        return self.collisions / self.n_episodes

    @property
    def dr(self) -> float:
        return self.deadlocks / self.n_episodes

    def row(self) -> List[str]:
        return [
            self.scene,
            self.traffic_model,
            self.av_policy,
            str(self.n_episodes),
            repr(self.success_rate),
            repr(self.cr),
            repr(self.dr),
            repr(self.j),
            repr(self.ci_low),
            repr(self.ci_high),
        ]


def summarize(outcomes: Sequence[EpisodeOutcome], scene: str, traffic_model: str,
              av_policy: str) -> MetricsReport:
    n = len(outcomes)
    succ = sum(1 for o in outcomes if o.kind == KIND_SUCCESS)
    coll = sum(1 for o in outcomes if o.kind == KIND_COLLISION)
    dead = n - succ - coll
    lo, hi = wilson_interval(succ, n)
    return MetricsReport(
        scene=scene,
        traffic_model=traffic_model,
        av_policy=av_policy,
        n_episodes=n,
        successes=succ,
        collisions=coll,
        deadlocks=dead,
        j=performance_index(outcomes),
        ci_low=lo,
        ci_high=hi,
        outcomes=list(outcomes),
    )


# ---------------------------------------------------------------------------
# evaluation specs: plain data a worker process can rebuild everything from


@dataclass(frozen=True)
class EvalSpec:
    """One evaluation cell: the scene, traffic, and the AV stack.

    engine selects how background vehicles (and search-based egos) act:
    "expert" runs the game-tree search every tick, "distilled" batches the
    trained classifier (needs policy_file).
    scene takes a built-in layout kind, "city", or the path of a network
    recipe file: the builders' arguments per intersection, plus the
    connectors (geometry's module doc gives the format). A recipe sets
    each arm's length; the built-in kinds have ARM_LENGTH_M arms.

    rc_m, the rule-based AV's spacing radius, is the one AV parameter a
    study tunes; the adaptive AV's belief step (controllers.BETA) and the
    weights of J (J_WEIGHTS) are fixed parts of the model.

    Construction checks each field alone and raises ValueError unless
    traffic_model, av and engine are known names, n_vehicles is a
    nonnegative integer, rc_m is finite and nonnegative, and t_limit_s is
    finite and positive. The scene and the rule across fields (the
    distilled engine needs policy_file) are checked when the cell is built
    to run, so EvalSpec(scene=...) can name a network to render.
    """

    scene: str = "fourway"
    n_vehicles: int = 3  # background count; the AV rides in slot 0 on top
    traffic_model: str = "mixed"
    av: Optional[str] = "adaptive"
    engine: str = "distilled"
    policy_file: Optional[str] = None
    rc_m: float = RC_M
    t_limit_s: float = T_LIMIT_S

    def __post_init__(self):
        if self.traffic_model not in TRAFFIC_MODELS:
            raise ValueError(f"unknown traffic model {self.traffic_model!r}")
        if self.av is not None and self.av not in AV_POLICIES:
            raise ValueError(f"unknown av policy {self.av!r}")
        if self.engine not in ("expert", "distilled"):
            raise ValueError(f"unknown engine {self.engine!r}")
        n = self.n_vehicles
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 0):
            raise ValueError(f"n_vehicles must be a nonnegative integer, got {n!r}")
        if not (is_finite_number(self.rc_m) and self.rc_m >= 0):
            raise ValueError(f"rc_m must be finite and nonnegative, got {self.rc_m}")
        if not (is_finite_number(self.t_limit_s) and self.t_limit_s > 0):
            raise ValueError(f"t_limit_s must be finite and positive, got {self.t_limit_s}")


def build_network(spec: EvalSpec) -> RoadNetwork:
    if spec.scene in BUILDERS:
        return single_network(spec.scene)
    if spec.scene == "city":
        return make_city()
    if os.path.exists(spec.scene):
        return RoadNetwork.load(spec.scene)
    raise ValueError(
        f"unknown scene {spec.scene!r}: expected one of {sorted(BUILDERS)}, "
        "'city', or a path to a network recipe file"
    )


class _Built:
    """Per-process immutable pieces shared across a chunk of episodes."""

    def __init__(self, spec: EvalSpec):
        self.network = build_network(spec)
        self.scene_cfg = SceneConfig(
            network=self.network,
            n_vehicles=spec.n_vehicles,
            traffic_model=spec.traffic_model,
            av_policy=spec.av,
            t_limit_s=spec.t_limit_s,
        )
        self.policy: Optional[PolicyApproximator] = None
        if spec.engine == "distilled":
            if spec.policy_file is None:
                raise ValueError("distilled engine needs policy_file")
            self.policy = load_policy(spec.policy_file)
            self.traffic: TrafficPolicy = DistilledTraffic(self.policy)
        else:
            self.traffic = ExpertTraffic()


def _make_av(spec: EvalSpec, built: _Built) -> Optional[AVController]:
    """Fresh controller per episode; beliefs and path bindings are
    episode-local state."""
    if spec.av is None:
        return None
    predictor = built.policy.act if built.policy is not None else None
    if spec.av in ("level1", "level2"):
        return FixedLevelController(int(spec.av[-1]), predictor=predictor)
    if spec.av == "rule-based":
        return RuleBasedController(spec.rc_m)
    return AdaptiveController(predictor=predictor)


def run_one(
    spec: EvalSpec,
    seed: Tuple[int, int],
    built: _Built,
    collect_log: bool = False,
) -> Tuple[EpisodeOutcome, List[str], Optional[AVController]]:
    """One seeded episode under a spec, on the spec's built pieces. Returns
    the classified outcome, the ndjson log lines (empty unless
    collect_log), and the controller for post-episode inspection."""
    av = _make_av(spec, built)
    outcome, log = run_episode(built.scene_cfg, built.traffic, av, seed, collect_log)
    return outcome, log, av


def _chunk_task(args) -> List[Tuple[int, EpisodeOutcome]]:
    spec, master_seed, indices = args
    built = _Built(spec)
    out = []
    for idx in indices:
        outcome, _, _ = run_one(spec, (master_seed, idx), built)
        out.append((idx, outcome))
    return out


def monte_carlo(
    spec: EvalSpec,
    n_episodes: int,
    master_seed: int,
    workers: int,
) -> MetricsReport:
    """Independent seeded episodes aggregated into a MetricsReport.

    Episode i always runs under seed (master_seed, i); with workers > 1
    the index range is split into min(workers, n_episodes, CPUs) chunks,
    one process and one _Built each, and merged back in index order, so
    the report matches the serial run bit for bit.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    rows: List[Tuple[int, EpisodeOutcome]] = []
    if workers <= 1:
        rows = _chunk_task((spec, master_seed, list(range(n_episodes))))
    else:
        # imported here: a serial study never loads the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor

        n_chunks = min(workers, n_episodes, os.cpu_count() or 1)
        chunks = [(spec, master_seed, list(range(lo, n_episodes, n_chunks))) for lo in range(n_chunks)]
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            for part in pool.map(_chunk_task, chunks):
                rows.extend(part)
    rows.sort(key=lambda r: r[0])
    outcomes = [r[1] for r in rows]
    return summarize(outcomes, spec.scene, spec.traffic_model, spec.av or "none")


def evaluate_models(
    spec: EvalSpec,
    n_episodes: int,
    master_seed: int = 0,
    traffic_models: Sequence[str] = TRAFFIC_MODELS,
    workers: int = 1,
) -> MetricsReport:
    """One report per traffic model plus a pooled parent carrying the
    per-model breakdown."""
    parts = {
        tm: monte_carlo(replace(spec, traffic_model=tm), n_episodes, master_seed, workers)
        for tm in traffic_models
    }
    pooled = [o for tm in traffic_models for o in parts[tm].outcomes]
    report = summarize(pooled, spec.scene, "+".join(traffic_models), spec.av or "none")
    report.breakdown = parts
    return report


# ---------------------------------------------------------------------------
# CSV report plumbing (byte-stable round trips)


def write_csv(path: str, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    for r in rows:
        if len(r) != len(columns):
            raise ValueError(f"row width {len(r)} != {len(columns)} columns")
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for r in rows:
            f.write(",".join(r) + "\n")


def write_report_csv(reports: Sequence[MetricsReport], path: str) -> None:
    write_csv(path, REPORT_COLUMNS, [r.row() for r in reports])


# ---------------------------------------------------------------------------
# spacing-radius calibration


def calibrate_rc(
    spec: EvalSpec,
    rc_grid: Sequence[float],
    n_episodes: int,
    traffic_models: Sequence[str],
    master_seed: int,
    workers: int,
    out_dir: str,
) -> List[dict]:
    """J(R_c) per traffic model for the rule-based controller.

    Every grid point reuses the same episode seeds, so traffic
    realizations are common across the sweep and differences isolate the
    radius. Returns one row per (R_c, model), and writes them to out_dir
    as calibration.csv plus one J-vs-R_c line chart per model.
    """
    if not rc_grid:
        raise ValueError("empty rc grid")
    rows: List[dict] = []
    for tm in traffic_models:
        for rc in rc_grid:
            cell = replace(spec, av="rule-based", rc_m=float(rc), traffic_model=tm)
            rep = monte_carlo(cell, n_episodes, master_seed, workers)
            rows.append(
                {
                    "rc": float(rc),
                    "traffic_model": tm,
                    "n": n_episodes,
                    "success_rate": rep.success_rate,
                    "cr": rep.cr,
                    "dr": rep.dr,
                    "j": rep.j,
                }
            )
    os.makedirs(out_dir, exist_ok=True)
    csv_rows = [
        [
            repr(r["rc"]), r["traffic_model"], str(r["n"]),
            repr(r["success_rate"]), repr(r["cr"]), repr(r["dr"]), repr(r["j"]),
        ]
        for r in rows
    ]
    write_csv(os.path.join(out_dir, "calibration.csv"), CALIBRATION_COLUMNS, csv_rows)
    for tm in traffic_models:
        pts = [(r["rc"], r["j"]) for r in rows if r["traffic_model"] == tm]
        svg = line_chart(
            pts,
            title=f"performance index vs spacing radius ({tm} traffic)",
            x_label="R_c (m)",
            y_label="J",
        )
        with open(os.path.join(out_dir, f"calibration_{tm}.svg"), "w") as f:
            f.write(svg)
    return rows


# ---------------------------------------------------------------------------
# SVG output: line charts and episode frames


def _ticks(lo: float, hi: float) -> List[float]:
    """Round axis ticks, about five of them, spanning [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9:
        out.append(round(t, 10))
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:g}"


def line_chart(
    points: Sequence[Tuple[float, float]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Minimal single-series line chart as a standalone SVG string."""
    width, height = CHART_WIDTH, CHART_HEIGHT
    if not points:
        raise ValueError("empty point list")
    pts = sorted((float(x), float(y)) for x, y in points)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.08 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    m_l, m_r, m_t, m_b = 62, 16, 34, 46
    pw, ph = width - m_l - m_r, height - m_t - m_b

    def px(x: float) -> float:
        return m_l + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return m_t + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{m_l}" y="{m_t}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{m_t + ph}" x2="{x:.1f}" y2="{m_t + ph + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{m_t + ph + 17}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{m_l - 4}" y1="{y:.1f}" x2="{m_l}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{m_l - 7}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{m_l}" y1="{y:.1f}" x2="{m_l + pw}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
    poly = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#1a6fb0" stroke-width="2"/>')
    for x, y in pts:
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1a6fb0"/>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
    )
    parts.append(
        f'<text x="{m_l + pw / 2:.0f}" y="{height - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{m_t + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {m_t + ph / 2:.0f})">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


POLICY_COLORS = {
    "l1": "#3b7dd8",
    "l2": "#e0883a",
    "adaptive": "#2e9e4f",
    "rule-based": "#8a4fbf",
    "level1": "#2a9d9d",
    "level2": "#d04a4a",
}
_FALLBACK_COLOR = "#777777"


def parse_log(lines: Sequence[str]) -> List[dict]:
    """ndjson episode log to records; the reported line number is
    1-based to match what an editor shows."""
    records = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"log parse error at line {ln}: {e}") from None
        for key in ("tick", "id", "x", "y", "v", "theta", "policy"):
            if key not in rec:
                raise ValueError(f"log parse error at line {ln}: missing field {key!r}")
        records.append(rec)
    return records


FRAME_PX_PER_M, FRAME_PAD_PX = 8.0, 20.0


class _Mapper:
    """World-to-pixel mapping with the y axis flipped for SVG."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.y_hi = x_lo, y_hi
        self.width = int((x_hi - x_lo) * FRAME_PX_PER_M + 2 * FRAME_PAD_PX)
        self.height = int((y_hi - y_lo) * FRAME_PX_PER_M + 2 * FRAME_PAD_PX)

    def x(self, wx: float) -> float:
        return (wx - self.x_lo) * FRAME_PX_PER_M + FRAME_PAD_PX

    def y(self, wy: float) -> float:
        return (self.y_hi - wy) * FRAME_PX_PER_M + FRAME_PAD_PX


def _network_extent(network: RoadNetwork) -> Tuple[float, float, float, float]:
    lo, hi = network.edge_bounds()
    nb = network.n_boundary
    (x_lo, y_lo), (x_hi, y_hi) = lo[:nb].min(axis=0), hi[:nb].max(axis=0)
    return x_lo, x_hi, y_lo, y_hi


def _road_group(network: RoadNetwork, m: _Mapper) -> List[str]:
    parts = ['<g stroke-linecap="round">']
    for lay in network.layouts.values():
        for seg in lay.boundary_segments():
            parts.append(
                f'<line x1="{m.x(seg[0]):.1f}" y1="{m.y(seg[1]):.1f}" '
                f'x2="{m.x(seg[2]):.1f}" y2="{m.y(seg[3]):.1f}" '
                'stroke="#333" stroke-width="1.5"/>'
            )
        for seg in lay.marking_segments():
            parts.append(
                f'<line x1="{m.x(seg[0]):.1f}" y1="{m.y(seg[1]):.1f}" '
                f'x2="{m.x(seg[2]):.1f}" y2="{m.y(seg[3]):.1f}" '
                'stroke="#b8a000" stroke-width="1" stroke-dasharray="6,5"/>'
            )
    parts.append("</g>")
    return parts


def _vehicle_group(records: Sequence[dict], m: _Mapper) -> List[str]:
    parts = []
    hl = 0.5 * C_LENGTH_M
    for rec in records:
        x, y, th = rec["x"], rec["y"], rec["theta"]
        # the box drawn is the vehicle's collision zone, clockwise from its
        # front-left corner
        corners = c_zone(Pose2(x, y, th)).corners()
        pts = " ".join(f"{m.x(corners[k][0]):.1f},{m.y(corners[k][1]):.1f}" for k in (0, 3, 2, 1))
        color = POLICY_COLORS.get(rec["policy"], _FALLBACK_COLOR)
        parts.append(f'<polygon points="{pts}" fill="{color}" stroke="#222" stroke-width="0.8"/>')
        # nose marker so the heading reads at a glance
        nx, ny = x + math.cos(th) * hl, y + math.sin(th) * hl
        parts.append(f'<circle cx="{m.x(nx):.1f}" cy="{m.y(ny):.1f}" r="1.6" fill="#fff"/>')
        parts.append(
            f'<text x="{m.x(x) + 10:.1f}" y="{m.y(y) - 6:.1f}" font-size="10" '
            f'fill="#111">{rec["id"]}: {rec["v"]:.1f} m/s</text>'
        )
    return parts


def render_svg(
    log_lines: Sequence[str],
    network: RoadNetwork,
    tick_range: Optional[Tuple[int, int]] = None,
) -> List[str]:
    """One SVG document per tick in the closed range.

    tick_range None means every logged tick; an empty selection (lo > hi)
    degrades to a single frame with the road geometry alone. Ticks
    outside the log raise.
    """
    records = parse_log(log_lines)
    by_tick: Dict[int, List[dict]] = {}
    for rec in records:
        by_tick.setdefault(int(rec["tick"]), []).append(rec)
    x_lo, x_hi, y_lo, y_hi = _network_extent(network)
    m = _Mapper(x_lo, x_hi, y_lo, y_hi)
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{m.width}" height="{m.height}" '
        f'viewBox="0 0 {m.width} {m.height}" font-family="sans-serif">'
        f'<rect width="{m.width}" height="{m.height}" fill="#f4f4f0"/>'
    )
    road = _road_group(network, m)
    if tick_range is None:
        ticks = sorted(by_tick)
    else:
        lo, hi = tick_range
        ticks = [t for t in range(lo, hi + 1)]
    if not ticks:
        return ["\n".join([head] + road + ["</svg>"])]
    missing = [t for t in ticks if t not in by_tick]
    if missing:
        raise ValueError(f"tick {missing[0]} outside the logged range")
    frames = []
    for t in ticks:
        body = [head] + road + _vehicle_group(by_tick[t], m)
        body.append(
            f'<text x="{FRAME_PAD_PX:.0f}" y="{m.height - 8}" font-size="11" fill="#333">'
            f"tick {t}</text>"
        )
        body.append("</svg>")
        frames.append("\n".join(body))
    return frames
