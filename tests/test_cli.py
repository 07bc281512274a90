"""Exit-code contract and artifact layout of the command-line front end."""

import json
import os

import pytest

from intersim.cli import main
from intersim.harness import REPORT_COLUMNS
from intersim.imitation import LEVELK_DIM, PolicyApproximator, default_encoding


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pol") / "policy.json"
    PolicyApproximator([LEVELK_DIM, 8, 6], default_encoding(), seed=4).save(str(path))
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


def test_zero_episodes_exits_one(tmp_path, policy_file, capsys):
    code = main(
        ["simulate", *_fast(policy_file, tmp_path), "--episodes", "0"]
    )
    assert code == 1
    capsys.readouterr()


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
    assert "--rc must be finite and nonnegative" in capsys.readouterr().err
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
        ({}, ["--episodes", "0"], "n_max"),
        ({}, ["--vehicles", "0"], "n_vehicles"),
        ({"n_max": "3"}, [], "n_max"),
        ({"min_sep_m": "a"}, [], "min_sep_m"),
        ({"warm_start": 1}, [], "warm_start"),
        ({"scenes": ["fourway", 3]}, [], "scenes"),
        ({"train": {"lr": "fast"}}, [], "lr"),
        ({"train": {"batch_size": 0}}, [], "batch_size"),
        ({"train": {"hidden": 0}}, [], "hidden"),
    ],
    ids=["unknown-key", "unknown-train-key", "train-not-object", "unknown-scene",
         "scenes-not-list", "k_max-0", "episodes-0", "vehicles-0", "n_max-str",
         "min_sep_m-str", "warm_start-int", "scenes-item-not-str", "train-lr-str",
         "train-batch_size-0", "train-hidden-0"],
)
def test_train_policy_rejects_unknown_keys(tmp_path, capsys, config, extra, needle):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["train-policy", "--config", str(cfg), "--out", str(out)] + extra) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()
