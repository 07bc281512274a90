"""Exit-code contract and artifact layout of the command-line front end."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from intersim import harness
from intersim.cli import _build_parser, _spec_from_args, main
from intersim.controllers import BETA, RC_M
from intersim.harness import REPORT_COLUMNS, EvalSpec, run_one
from intersim.imitation import (
    ADAPTIVE_DIM,
    LEVELK_DIM,
    SLOT_WIDTH,
    PolicyApproximator,
    default_encoding,
)

FIXTURE = str(Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / "levelk_policy.json")


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pol") / "policy.json"
    PolicyApproximator([LEVELK_DIM, 8, 6], default_encoding("levelk"), seed=4).save(str(path))
    return str(path)


def _fast(policy_file, out, *extra):
    return [
        "--scene", "fourway",
        "--vehicles", "2",
        "--policy-file", policy_file,
        "--config", _fast_cfg(out),
        "--out", str(out),
        *extra,
    ]


def _fast_cfg(out):
    path = os.path.join(str(out), "spec.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump({"t_limit_s": 5.0}, f)
    return path


# ---------------------------------------------------------------------------
# exit codes: configuration errors


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["evaluate", "--scene", "fourway", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("flags, needle", [
    (["--episodes", "x"], "argument --episodes: invalid int value: 'x'"),
    (["--traffic-model", "l3"], "argument --traffic-model: invalid choice: 'l3'"),
])
def test_bad_flag_value_names_flag_and_value(flags, needle, capsys):
    assert main(["evaluate", "--scene", "fourway", *flags]) == 1
    err = capsys.readouterr().err
    usage, message = err.split("intersim: error: ")
    assert "usage" in usage and message.startswith(needle)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("simulate", "train-policy", "evaluate", "calibrate", "render"):
        assert cmd in out


def test_missing_required_scene_exits_one(capsys):
    assert main(["simulate"]) == 1
    capsys.readouterr()


def test_unknown_scene_exits_one(capsys):
    assert main(["evaluate", "--scene", "hexagon", "--episodes", "1"]) == 1
    assert "hexagon" in capsys.readouterr().err


def test_bad_seed_exits_one(capsys):
    assert main(["simulate", "--scene", "fourway", "--seed", "-1"]) == 1
    assert main(["simulate", "--scene", "fourway", "--seed", str(2 ** 64)]) == 1
    capsys.readouterr()


def test_missing_policy_file_exits_one(tmp_path, capsys):
    code = main(
        ["simulate", "--scene", "fourway", "--policy-file",
         str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, policy_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_speed": True}))
    code = main(
        ["evaluate", "--scene", "fourway", "--episodes", "1",
         "--policy-file", policy_file, "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "warp_speed" in capsys.readouterr().err


def _count_loads(monkeypatch):
    """The path of every PolicyApproximator.load call from here on."""
    loads = []
    load = PolicyApproximator.load.__func__

    def counted_load(cls, path):
        loads.append(path)
        return load(cls, path)

    monkeypatch.setattr(PolicyApproximator, "load", classmethod(counted_load))
    return loads


def test_zero_episodes_exits_one(tmp_path, monkeypatch, capsys):
    # the count is checked before the network is built or the policy read
    loads = _count_loads(monkeypatch)
    for command in ("simulate", "evaluate", "calibrate"):
        code = main([command, *_fast(FIXTURE, tmp_path), "--episodes", "0"])
        assert code == 1
        assert "--episodes must be at least 1" in capsys.readouterr().err
    assert loads == []


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
def test_default_flags_carry_the_library_defaults(command):
    args = _build_parser().parse_args([command, "--scene", "fourway"])
    spec = _spec_from_args(args, {})
    assert (spec.rc_m, spec.beta) == (RC_M, BETA)
    assert args.episodes == (1 if command == "simulate" else 200)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_logs_and_summary(tmp_path, policy_file, capsys):
    code = main(["simulate", *_fast(policy_file, tmp_path), "--episodes", "2"])
    assert code == 0
    capsys.readouterr()
    for name in ("episode_0000.ndjson", "episode_0001.ndjson", "episodes.json"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "episode_0000.ndjson").read_text().splitlines()
    rec = json.loads(lines[0])
    assert rec["tick"] == 0
    summary = json.loads((tmp_path / "episodes.json").read_text())
    assert len(summary) == 2
    assert summary[0]["log"] == "episode_0000.ndjson"
    assert summary[0]["kind"] in ("Collision", "Deadlock", "Success")


@pytest.mark.parametrize("episodes", [1, 3])
def test_simulate_builds_once_and_logs_as_fresh_episodes(tmp_path, policy_file, monkeypatch, episodes, capsys):
    loads, builds = _count_loads(monkeypatch), []
    build = harness.build_network

    def counted_build(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(harness, "build_network", counted_build)
    code = main(["simulate", *_fast(policy_file, tmp_path), "--episodes", str(episodes), "--seed", "5"])
    assert code == 0
    capsys.readouterr()
    assert loads == [policy_file] and len(builds) == 1
    # sharing the built network and policy leaves every episode as a fresh one
    spec = EvalSpec(scene="fourway", n_vehicles=2, av=None, policy_file=policy_file, t_limit_s=5.0)
    _, log, _ = run_one(spec, (5, episodes - 1), harness._Built(spec), collect_log=True)
    assert (tmp_path / f"episode_{episodes - 1:04d}.ndjson").read_text() == "".join(line + "\n" for line in log)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_report_and_outcomes(tmp_path, policy_file, capsys):
    code = main(
        ["evaluate", *_fast(policy_file, tmp_path), "--episodes", "2", "--av", "rule-based"]
    )
    assert code == 0
    assert "success" in capsys.readouterr().out
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)
    rows = (tmp_path / "outcomes.ndjson").read_text().splitlines()
    assert len(rows) == 2
    assert json.loads(rows[0])["seed"] == [0, 0]


def test_evaluate_builds_once_at_one_worker(tmp_path, policy_file, monkeypatch, capsys):
    loads, builds = [], []
    load, build = PolicyApproximator.load.__func__, harness.build_network

    def counted_load(cls, path):
        loads.append(path)
        return load(cls, path)

    def counted_build(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(PolicyApproximator, "load", classmethod(counted_load))
    monkeypatch.setattr(harness, "build_network", counted_build)
    assert main(["evaluate", *_fast(policy_file, tmp_path), "--episodes", "3"]) == 0
    capsys.readouterr()
    assert loads == [policy_file] and len(builds) == 1


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_grid_and_outputs(tmp_path, policy_file, capsys):
    cfg = tmp_path / "cal.json"
    cfg.write_text(json.dumps({"t_limit_s": 5.0, "traffic_models": ["l1"]}))
    code = main(
        ["calibrate", "--scene", "fourway", "--vehicles", "2",
         "--policy-file", policy_file, "--config", str(cfg),
         "--episodes", "1", "--rc-grid", "8:10:2", "--out", str(tmp_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "rc=  8.0" in printed and "rc= 10.0" in printed
    assert (tmp_path / "calibration.csv").exists()
    assert (tmp_path / "calibration_l1.svg").exists()
    body = (tmp_path / "calibration.csv").read_text().splitlines()
    assert len(body) == 3  # header plus one row per grid point


@pytest.mark.parametrize(
    "grid",
    ["5", "5:10:0", "10:5:1", "a:b:c", "-4:0:2", "0:inf:1", "-inf:5:1", "nan:5:1", "0:5:nan", "0:5:inf"],
)
def test_bad_rc_grid_exits_one(tmp_path, policy_file, grid, capsys):
    out = tmp_path / "out"
    code = main(
        ["calibrate", *_fast(policy_file, tmp_path), "--episodes", "1",
         f"--rc-grid={grid}", "--out", str(out)]
    )
    assert code == 1
    assert "error: --rc-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
@pytest.mark.parametrize("rc", ["nan", "inf", "-1"])
def test_bad_rc_exits_one(tmp_path, policy_file, command, rc, capsys):
    out = tmp_path / "out"
    code = main(
        [command, *_fast(policy_file, tmp_path), "--episodes", "1", "--av", "rule-based",
         f"--rc={rc}", "--out", str(out)]
    )
    assert code == 1
    assert "rc_m must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


_BAD_OVERRIDES = {
    "n_vehicles-str": ({"n_vehicles": "3"}, "n_vehicles (expected int, got str)"),
    "t_limit_s-negative": ({"t_limit_s": -1}, "t_limit_s must be finite and positive"),
    "t_limit_s-zero": ({"t_limit_s": 0}, "t_limit_s must be finite and positive"),
    "t_limit_s-inf": ({"t_limit_s": float("inf")}, "t_limit_s must be finite and positive"),
    "arm_length_m-zero": ({"arm_length_m": 0}, "arm_length_m must be finite and positive"),
    "arm_length_m-negative": ({"arm_length_m": -5}, "arm_length_m must be finite and positive"),
    "arm_length_m-inf": ({"arm_length_m": float("inf")}, "arm_length_m must be finite and positive"),
    "beta-7": ({"beta": 7}, "beta must be in (0, 1]"),
    "beta-0": ({"beta": 0.0}, "beta must be in (0, 1]"),
    "beta-nan": ({"beta": float("nan")}, "beta must be in (0, 1]"),
    "weights-unknown-key": ({"weights": {"foo": 1}}, "weights must map some of w_c, w_d, w_v, eps"),
    "weights-nan": ({"weights": {"w_c": float("nan")}}, "to finite values, got {'w_c': nan}"),
    "weights-str-value": ({"weights": {"w_c": "1"}}, "weights (expected"),
    "weights-list": ({"weights": [1, 2]}, "weights (expected"),
}


_BAD_VALUES = {
    **{case: override for case, (override, _) in _BAD_OVERRIDES.items()},
    "rc_m-negative": {"rc_m": -3.0},
    "n_vehicles-negative": {"n_vehicles": -2},
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_bad_spec_value_raises_without_the_cli(case):
    """EvalSpec refuses what the CLI refuses, on the library path too."""
    override = _BAD_VALUES[case]
    (field,) = override
    with pytest.raises(ValueError, match=field):
        EvalSpec(**override)
    valid = EvalSpec(scene="fourway", av="rule-based", engine="expert")
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(valid, **override)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"engine": "distilled"}, "distilled engine needs policy_file"),
        ({"adaptive_policy_file": FIXTURE}, "adaptive_policy_file needs the distilled engine"),
    ],
)
def test_rules_across_fields_are_checked_at_the_build(tmp_path, override, message, capsys):
    EvalSpec(**override)  # a spec alone may still name a scene to render
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    out = tmp_path / "out"
    code = main(["evaluate", "--scene", "fourway", "--episodes", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
@pytest.mark.parametrize("case", list(_BAD_OVERRIDES))
def test_bad_spec_override_exits_one(tmp_path, policy_file, command, case, capsys):
    override, message = _BAD_OVERRIDES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_limit_s": 5.0, **override}))
    out = tmp_path / "out"
    code = main(
        [command, "--scene", "fourway", "--vehicles", "2", "--episodes", "1", "--av", "rule-based",
         "--policy-file", policy_file, "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_good_spec_overrides_are_accepted(tmp_path, policy_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_limit_s": 2, "beta": 1, "weights": {"w_c": 20, "eps": 0.5}}))
    code = main(
        ["evaluate", "--scene", "fourway", "--vehicles", "2", "--episodes", "1", "--av", "rule-based",
         "--policy-file", policy_file, "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# render


def _simulated_log(tmp_path, policy_file):
    out = tmp_path / "sim"
    out.mkdir(exist_ok=True)
    assert main(["simulate", *_fast(policy_file, out), "--episodes", "1"]) == 0
    return out / "episode_0000.ndjson"


def test_render_writes_frames(tmp_path, policy_file, capsys):
    log = _simulated_log(tmp_path, policy_file)
    out = tmp_path / "frames"
    code = main(
        ["render", str(log), "--scene", "fourway", "--ticks", "0:1", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    assert (out / "frame_00000.svg").exists()
    assert (out / "frame_00001.svg").exists()
    assert "<svg" in (out / "frame_00000.svg").read_text()


def test_render_missing_log_exits_two(tmp_path, capsys):
    code = main(
        ["render", str(tmp_path / "ghost.ndjson"), "--scene", "fourway",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "failed" in capsys.readouterr().err


def test_render_bad_ticks_exit_one(tmp_path, policy_file, capsys):
    log = _simulated_log(tmp_path, policy_file)
    assert main(["render", str(log), "--scene", "fourway", "--ticks", "abc"]) == 1
    # a tick outside the log is a bad request, not a crash
    assert main(
        ["render", str(log), "--scene", "fourway", "--ticks", "0:999999"]
    ) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# train-policy


def _tiny_train_cfg(tmp_path, variant, **over):
    cfg = {
        "variant": variant,
        "n_max": 1,
        "t_max": 2,
        "n_vehicles": 2,
        "train": {
            "hidden": 4, "min_steps": 5, "max_steps": 10,
            "final_epochs": 1.0, "final_max_steps": 10,
        },
        **over,
    }
    path = tmp_path / f"train_{variant}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_policy_levelk_writes_artifacts(tmp_path, capsys):
    code = main(
        ["train-policy", "--config", _tiny_train_cfg(tmp_path, "levelk"),
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "policy_levelk" in capsys.readouterr().out
    for name in ("policy_levelk.json", "policy_levelk_dataset.csv",
                 "policy_levelk_history.json"):
        assert (tmp_path / name).exists()
    arch = json.loads((tmp_path / "policy_levelk.json").read_text())["architecture"]
    assert arch[0] == LEVELK_DIM and arch[-1] == 6


def test_train_policy_adaptive_writes_artifacts(tmp_path, capsys):
    code = main(
        ["train-policy", "--config", _tiny_train_cfg(tmp_path, "adaptive"),
         "--out", str(tmp_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "policy_adaptive.json").exists()


def test_train_policy_adaptive_at_one_level_exits_zero(tmp_path, capsys):
    cfg = _tiny_train_cfg(tmp_path, "adaptive", k_max=1, t_max=4, n_vehicles=3)
    code = main(["train-policy", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "policy_adaptive.json").exists()


def test_train_policy_has_no_policy_file_option(tmp_path, policy_file, capsys):
    out = tmp_path / "out"
    code = main(
        ["train-policy", "--config", _tiny_train_cfg(tmp_path, "adaptive"), "--policy-file", policy_file,
         "--out", str(out)]
    )
    assert code == 1
    assert "usage" in capsys.readouterr().err
    assert not out.exists()


def test_train_policy_rejects_unknown_variant(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"variant": "transformer"}))
    assert main(["train-policy", "--config", str(cfg)]) == 1
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, extra, needle",
    [
        ({"variant": "levelk", "n_epoch": 3}, [], "n_epoch"),
        ({"train": {"bogus": 1}}, [], "bogus"),
        ({"train": 3}, [], "train"),
        ({"scenes": ["bogus"]}, [], "scenes"),
        ({"scenes": "fourway"}, [], "scenes"),
        ({"k_max": 0}, [], "k_max"),
        ({"k_max": 7}, [], "k_max"),
        ({}, ["--episodes", "0"], "n_max"),
        ({}, ["--vehicles", "0"], "n_vehicles"),
        ({"n_max": "3"}, [], "n_max"),
        ({"m_near": 6}, [], "unknown training keys in config: m_near"),
        ({"min_sep_m": 10.0}, [], "unknown training keys in config: min_sep_m"),
        ({"stop_disagreement_below": 0.1}, [], "unknown training keys in config: stop_disagreement_below"),
        ({"stop_patience": 5}, [], "unknown training keys in config: stop_patience"),
        ({"warm_start": 1}, [], "warm_start"),
        ({"scenes": ["fourway", 3]}, [], "scenes"),
        ({"train": {"lr": "fast"}}, [], "lr"),
        ({"train": {"batch_size": 0}}, [], "batch_size"),
        ({"train": {"hidden": 0}}, [], "hidden"),
    ],
    ids=["unknown-key", "unknown-train-key", "train-not-object", "unknown-scene",
         "scenes-not-list", "k_max-0", "k_max-7", "episodes-0", "vehicles-0", "n_max-str",
         "removed-m_near", "removed-min_sep_m", "removed-stop_disagreement_below",
         "removed-stop_patience", "warm_start-int", "scenes-item-not-str", "train-lr-str",
         "train-batch_size-0", "train-hidden-0"],
)
def test_train_policy_rejects_unknown_keys(tmp_path, capsys, config, extra, needle):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["train-policy", "--config", str(cfg), "--out", str(out)] + extra) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed input files and config values


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
def test_scene_file_without_intersections_exits_one(tmp_path, policy_file, command, capsys):
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps({"connectors": []}))
    out = tmp_path / "out"
    code = main(
        [command, "--scene", str(scene), "--episodes", "1", "--policy-file", policy_file,
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(scene) in err and "intersections" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
def test_policy_file_without_architecture_exits_one(tmp_path, command, capsys):
    policy = tmp_path / "bad_policy.json"
    policy.write_text(json.dumps({"format_version": 1, "theta": [], "encoding": {}}))
    out = tmp_path / "out"
    code = main(
        [command, "--scene", "fourway", "--episodes", "1", "--policy-file", str(policy),
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(policy) in err and "architecture" in err
    assert not out.exists()


def _policy_of_another_encoder(path, case):
    """Writes a policy file this encoder must refuse and returns its path."""
    if case == "adaptive-as-levelk":
        PolicyApproximator([ADAPTIVE_DIM, 8, 6], default_encoding("adaptive"), seed=1).save(str(path))
    else:  # m_near-4: the width an encoder of 4 slots reads
        width = LEVELK_DIM - 2 * SLOT_WIDTH
        PolicyApproximator([width, 8, 6], {**default_encoding("levelk"), "m_near": 4}, seed=1).save(str(path))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "evaluate", "calibrate"])
@pytest.mark.parametrize("case", ["adaptive-as-levelk", "m_near-4", "levelk-as-adaptive"])
def test_policy_file_of_another_encoder_exits_one(tmp_path, command, case, capsys):
    """Set-up refuses a policy file whose variant, encoding or input width
    differs from the encoder that would read it, before any output."""
    cfg = {"t_limit_s": 5.0}
    if case == "levelk-as-adaptive":
        policy, bad = FIXTURE, FIXTURE
        cfg["adaptive_policy_file"] = FIXTURE
    else:
        policy = bad = _policy_of_another_encoder(tmp_path / "other.json", case)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(
        [command, "--scene", "fourway", "--vehicles", "2", "--av", "adaptive", "--episodes", "1",
         "--policy-file", policy, "--config", str(cfg_path), "--out", str(out)]
    )
    assert code == 1
    assert f"policy file {bad} is not a" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize("n_out", [7, 5])
def test_policy_file_of_another_action_count_exits_one(tmp_path, command, n_out, capsys):
    """A policy must score each action of the table: set-up refuses one
    with more outputs (an index past the table) or fewer (an action it can
    never pick), before any output."""
    policy = tmp_path / "other.json"
    PolicyApproximator([LEVELK_DIM, 8, n_out], default_encoding("levelk"), seed=1).save(str(policy))
    out = tmp_path / "out"
    code = main([command, "--scene", "fourway", "--av", "level1", "--episodes", "2",
                 "--policy-file", str(policy), "--out", str(out)])
    assert code == 1
    assert f"policy file {policy} is not a levelk policy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["scene", "policy", "mismatch"])
def test_malformed_input_with_two_workers_exits_one(tmp_path, policy_file, bad, capsys):
    """The build errors of the worker processes reach the CLI as they do in
    process, before any output."""
    path = tmp_path / "bad.json"
    if bad == "scene":
        path.write_text(json.dumps({"connectors": []}))
        inputs = ["--scene", str(path), "--policy-file", policy_file]
    elif bad == "policy":
        path.write_text(json.dumps({"format_version": 1, "theta": [], "encoding": {}}))
        inputs = ["--scene", "fourway", "--policy-file", str(path)]
    else:
        inputs = ["--scene", "fourway", "--policy-file", _policy_of_another_encoder(path, "m_near-4")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_limit_s": 5.0, "workers": 2}))
    out = tmp_path / "out"
    code = main(["evaluate", *inputs, "--episodes", "2", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
@pytest.mark.parametrize("workers", [0.5, True, 0, -1, "2", None])
def test_bad_workers_exits_one(tmp_path, policy_file, command, workers, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_limit_s": 5.0, "workers": workers}))
    out = tmp_path / "out"
    code = main(
        [command, "--scene", "fourway", "--episodes", "1", "--policy-file", policy_file,
         "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1
    assert "workers must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("models", ["l1", [], ["l1", "l4"], [1], None])
def test_bad_traffic_models_exits_one(tmp_path, policy_file, models, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_limit_s": 5.0, "traffic_models": models}))
    out = tmp_path / "out"
    code = main(
        ["calibrate", "--scene", "fourway", "--episodes", "1", "--policy-file", policy_file,
         "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1
    assert "traffic_models must be a non-empty list of l1, l2, mixed" in capsys.readouterr().err
    assert not out.exists()
