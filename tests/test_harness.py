"""Monte Carlo evaluation machinery: outcomes, reports, calibration, SVG."""

import json

import pytest

from intersim.harness import (
    AV_POLICIES,
    CALIBRATION_COLUMNS,
    DEFAULT_WEIGHTS,
    EpisodeOutcome,
    EvalSpec,
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_SUCCESS,
    REPORT_COLUMNS,
    TRAFFIC_MODELS,
    build_network,
    calibrate_rc,
    evaluate_models,
    line_chart,
    monte_carlo,
    parse_log,
    performance_index,
    read_csv,
    render_svg,
    run_one,
    summarize,
    write_csv,
    write_report_csv,
)
from intersim.imitation import LEVELK_DIM, PolicyApproximator, default_encoding


def _outcome(kind, v=2.0, scene="fourway"):
    return EpisodeOutcome(kind, v, 10.0, (0, 0), scene)


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    """Untrained classifier on disk: drives badly but exercises every
    code path at distilled-engine speed."""
    path = tmp_path_factory.mktemp("pol") / "policy.json"
    PolicyApproximator([LEVELK_DIM, 8, 6], default_encoding(), seed=4).save(str(path))
    return str(path)


def _spec(policy_file, **kw):
    base = dict(
        scene="fourway",
        n_vehicles=2,
        traffic_model="mixed",
        av="rule-based",
        engine="distilled",
        policy_file=policy_file,
        t_limit_s=5.0,
    )
    base.update(kw)
    return EvalSpec(**base)


# ---------------------------------------------------------------------------
# performance index


def test_performance_index_hand_examples():
    # one collision: J = w_c
    assert performance_index([_outcome(KIND_COLLISION)]) == 10.0
    # one deadlock: J = w_d
    assert performance_index([_outcome(KIND_DEADLOCK)]) == 5.0
    # one success at mean speed 2.5: J = 1 / (2.5 + 0.1)
    assert performance_index([_outcome(KIND_SUCCESS, v=2.5)]) == pytest.approx(
        0.38461538461538464
    )
    mixed = [
        _outcome(KIND_COLLISION),
        _outcome(KIND_DEADLOCK),
        _outcome(KIND_SUCCESS, v=2.5),
    ]
    assert performance_index(mixed) == pytest.approx((10.0 + 5.0 + 1.0 / 2.6) / 3.0)


def test_performance_index_respects_weight_overrides():
    out = [_outcome(KIND_COLLISION), _outcome(KIND_SUCCESS, v=0.9)]
    j = performance_index(out, {"w_c": 2.0, "w_v": 3.0, "eps": 0.1})
    assert j == pytest.approx((2.0 + 3.0 / 1.0) / 2.0)
    with pytest.raises(ValueError):
        performance_index([])


def test_slower_success_pays_more():
    fast = performance_index([_outcome(KIND_SUCCESS, v=4.0)])
    slow = performance_index([_outcome(KIND_SUCCESS, v=0.5)])
    crash = performance_index([_outcome(KIND_COLLISION)])
    assert fast < slow < crash


def test_outcome_validation():
    with pytest.raises(ValueError):
        EpisodeOutcome("Stalled", 1.0, 1.0, (0, 0), "fourway")
    with pytest.raises(ValueError):
        EpisodeOutcome(KIND_SUCCESS, -0.5, 1.0, (0, 0), "fourway")


def test_summarize_counts_partition():
    outs = (
        [_outcome(KIND_SUCCESS, v=3.0)] * 5
        + [_outcome(KIND_COLLISION)] * 2
        + [_outcome(KIND_DEADLOCK)] * 3
    )
    rep = summarize(outs, "fourway", "mixed", "adaptive")
    assert rep.n_episodes == 10
    assert (rep.successes, rep.collisions, rep.deadlocks) == (5, 2, 3)
    assert rep.success_rate + rep.cr + rep.dr == pytest.approx(1.0)
    assert rep.ci_low <= rep.success_rate <= rep.ci_high
    row = rep.row()
    assert len(row) == len(REPORT_COLUMNS)
    assert row[0] == "fourway" and row[3] == "10"


# ---------------------------------------------------------------------------
# episode running


def test_run_one_classifies_and_logs(policy_file):
    spec = _spec(policy_file)
    outcome, log, av = run_one(spec, (0, 0), collect_log=True)
    assert outcome.kind in (KIND_COLLISION, KIND_DEADLOCK, KIND_SUCCESS)
    assert outcome.seed == (0, 0)
    assert outcome.duration_s <= spec.t_limit_s + 1e-9
    assert log, "collect_log must produce ndjson lines"
    rec = json.loads(log[0])
    for key in ("tick", "id", "x", "y", "v", "theta", "action", "policy", "status"):
        assert key in rec


def test_monte_carlo_is_deterministic_across_worker_counts(policy_file):
    spec = _spec(policy_file)
    serial = monte_carlo(spec, 5, master_seed=3, workers=1)
    parallel = monte_carlo(spec, 5, master_seed=3, workers=3)
    assert serial.row() == parallel.row()
    for a, b in zip(serial.outcomes, parallel.outcomes):
        assert (a.kind, a.mean_speed, a.duration_s, a.seed) == (
            b.kind,
            b.mean_speed,
            b.duration_s,
            b.seed,
        )


def test_monte_carlo_seeds_episodes_by_index(policy_file):
    spec = _spec(policy_file)
    rep = monte_carlo(spec, 3, master_seed=9)
    assert [o.seed for o in rep.outcomes] == [(9, 0), (9, 1), (9, 2)]
    # same master seed reproduces, a different one may not
    again = monte_carlo(spec, 3, master_seed=9)
    assert [o.kind for o in rep.outcomes] == [o.kind for o in again.outcomes]
    with pytest.raises(ValueError):
        monte_carlo(spec, 0)


def test_evaluate_models_pools_with_breakdown(policy_file):
    spec = _spec(policy_file)
    rep = evaluate_models(spec, 2, master_seed=1, traffic_models=("l1", "l2"))
    assert set(rep.breakdown) == {"l1", "l2"}
    assert rep.n_episodes == 4
    assert rep.traffic_model == "l1+l2"
    total = sum(p.successes for p in rep.breakdown.values())
    assert rep.successes == total


def test_build_network_rejects_unknown_scene():
    with pytest.raises(ValueError):
        build_network(EvalSpec(scene="hexagon"))
    net = build_network(EvalSpec(scene="roundabout", arm_length_m=50.0))
    lay = net.layouts["I0"]
    assert lay.params["arm_length"] == 50.0


# ---------------------------------------------------------------------------
# CSV plumbing


def test_csv_roundtrip_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[repr(0.1), "mixed", repr(1.0 / 3.0)], [repr(-2.5e-7), "l1", repr(5.0)]]
    write_csv(str(p1), ["x", "model", "y"], rows)
    header, back = read_csv(str(p1))
    write_csv(str(p2), header, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back == rows


def test_write_csv_checks_row_width(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "x.csv"), ["a", "b"], [["1"]])


def test_report_csv_has_one_row_per_report(tmp_path, policy_file):
    spec = _spec(policy_file)
    reports = [monte_carlo(spec, 2, master_seed=s) for s in (0, 1)]
    path = tmp_path / "report.csv"
    write_report_csv(reports, str(path))
    header, rows = read_csv(str(path))
    assert header == list(REPORT_COLUMNS)
    assert len(rows) == 2
    # rates parse back to floats that partition
    for r in rows:
        assert float(r[4]) + float(r[5]) + float(r[6]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# calibration sweep


def test_calibrate_rc_emits_rows_and_files(tmp_path, policy_file):
    spec = _spec(policy_file)
    rows = calibrate_rc(
        spec, [10.0], n_episodes=2, traffic_models=("l1",), master_seed=0,
        out_dir=str(tmp_path),
    )
    assert len(rows) == 1
    r = rows[0]
    assert r["rc"] == 10.0 and r["traffic_model"] == "l1" and r["n"] == 2
    assert r["success_rate"] + r["cr"] + r["dr"] == pytest.approx(1.0)
    header, csv_rows = read_csv(str(tmp_path / "calibration.csv"))
    assert header == list(CALIBRATION_COLUMNS)
    assert len(csv_rows) == 1
    svg = (tmp_path / "calibration_l1.svg").read_text()
    assert "<svg" in svg and "polyline" in svg
    with pytest.raises(ValueError):
        calibrate_rc(spec, [], 1)


def test_calibration_reuses_seeds_across_grid(policy_file):
    # common random numbers: the traffic realization for episode i is
    # shared across grid points, so two identical radii give identical rows
    spec = _spec(policy_file)
    rows = calibrate_rc(spec, [12.0, 12.0], 2, traffic_models=("l2",))
    assert rows[0]["j"] == rows[1]["j"]
    assert rows[0]["success_rate"] == rows[1]["success_rate"]


def test_line_chart_contains_axes_and_data():
    svg = line_chart([(1.0, 2.0), (2.0, 1.0)], title="t", x_label="xs", y_label="ys")
    assert svg.startswith("<svg") or "<svg" in svg
    assert "polyline" in svg and "xs" in svg and "ys" in svg


# ---------------------------------------------------------------------------
# episode rendering


def _logged_episode(policy_file):
    spec = _spec(policy_file)
    _, log, _ = run_one(spec, (2, 0), collect_log=True)
    return spec, log


def test_render_first_tick_draws_every_vehicle(policy_file):
    spec, log = _logged_episode(policy_file)
    net = build_network(spec)
    frames = render_svg(log, net, (0, 0))
    assert len(frames) == 1
    f = frames[0]
    n_at_zero = sum(1 for line in log if json.loads(line)["tick"] == 0)
    assert n_at_zero == 3  # two background vehicles plus the ego
    assert f.count("<polygon") == n_at_zero
    assert f.count("m/s") == n_at_zero  # speed captions
    assert "<line" in f  # road boundaries drawn


def test_render_empty_selection_gives_layout_only(policy_file):
    spec, log = _logged_episode(policy_file)
    net = build_network(spec)
    frames = render_svg(log, net, (1, 0))
    assert len(frames) == 1
    assert "<polygon" not in frames[0]
    assert "<line" in frames[0]


def test_render_rejects_unlogged_ticks(policy_file):
    spec, log = _logged_episode(policy_file)
    net = build_network(spec)
    with pytest.raises(ValueError, match="tick"):
        render_svg(log, net, (0, 10 ** 6))


def test_render_all_ticks_by_default(policy_file):
    spec, log = _logged_episode(policy_file)
    net = build_network(spec)
    ticks = sorted({json.loads(line)["tick"] for line in log})
    frames = render_svg(log, net)
    assert len(frames) == len(ticks)


def test_parse_log_reports_line_numbers():
    good = json.dumps(
        {"tick": 0, "id": 0, "x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.0,
         "action": 0, "policy": "l1", "status": "active"}
    )
    with pytest.raises(ValueError, match="line 2"):
        parse_log([good, "{not json"])
    missing = json.dumps({"tick": 0, "id": 0, "x": 0.0, "y": 0.0, "v": 1.0})
    with pytest.raises(ValueError, match="line 1.*theta"):
        parse_log([missing])
    assert parse_log([good, "", good])  # blank lines skipped
    assert len(parse_log([good, "", good])) == 2


def test_constants_cover_the_documented_surfaces():
    assert TRAFFIC_MODELS == ("l1", "l2", "mixed")
    assert AV_POLICIES == ("adaptive", "rule-based", "level1", "level2")
    assert DEFAULT_WEIGHTS == {"w_c": 10.0, "w_d": 5.0, "w_v": 1.0, "eps": 0.1}
