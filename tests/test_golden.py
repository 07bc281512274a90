"""Pinned digests of short seeded runs.

Each case hashes a byte-stable output of the library: the ndjson log of
one seeded episode, the SVG frames rendered from one such log, or the CSV
of one tiny DAgger dataset. A change that
is meant to keep behaviour must leave every digest as it is; a change
that moves behaviour on purpose updates the pin and says so.
"""

import hashlib
from pathlib import Path

import pytest

from intersim.harness import EvalSpec, build_network, render_svg, run_one
from intersim.imitation import DaggerConfig, TrainConfig, dagger_train, dagger_train_adaptive

FIXTURE = str(Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / "levelk_policy.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EPISODES = {
    "fourway-expert-adaptive": (
        EvalSpec(scene="fourway", n_vehicles=3, av="adaptive", engine="expert", t_limit_s=8.0),
        "bc9657be402e017992aeb686dfcb478800634ced23bb749055091bd79130c584",
    ),
    "tshape-expert-adaptive": (
        EvalSpec(scene="tshape", n_vehicles=3, av="adaptive", engine="expert", t_limit_s=8.0),
        "fed7ba42d5d0632a4684cad8162d8919d9f6ae2887553905edd9655babaa8f28",
    ),
    "roundabout-expert-adaptive": (
        EvalSpec(scene="roundabout", n_vehicles=3, av="adaptive", engine="expert", t_limit_s=8.0),
        "35215f3e0826f32e9534ba110562682b4efee50a8520d67f93cf87c2048ed44a",
    ),
    "fourway-fixture-adaptive": (
        EvalSpec(scene="fourway", n_vehicles=3, av="adaptive", policy_file=FIXTURE, t_limit_s=10.0),
        "26ea0777cbaee14db9c585705b4b4588df207bb82f91a2c4348060fb35476507",
    ),
    "city-fixture-rule-based": (
        EvalSpec(scene="city", n_vehicles=16, av="rule-based", policy_file=FIXTURE, t_limit_s=10.0),
        "b7ffa7aa6cd5d762bbe2a8e09bcf895b7c16ae7545c5e1862d97914e65ea24c3",
    ),
}


# every frame of the city-fixture-rule-based log, joined by newlines
FRAMES_PIN = "9640a8326e349bb7000bef6ee830eb8bd530e4e73655c4dc3ea7e88e8ae20f59"
DATASET_PIN = "7c7a811cae56aacb17ad539db0b958bf0de6e07e6a6ea43ec182c7549f55c1f4"
ADAPTIVE_DATASET_PIN = "4abc45c263685c5c830aadc532bd92f76e8a92a5a66843e455bb0358732e2be9"


@pytest.mark.parametrize("name", list(EPISODES))
def test_episode_log_digest(name):
    spec, pin = EPISODES[name]
    _, log, _ = run_one(spec, (11, 0), collect_log=True)
    assert _sha("\n".join(log) + "\n") == pin


def test_rendered_frames_digest():
    spec, _ = EPISODES["city-fixture-rule-based"]
    _, log, _ = run_one(spec, (11, 0), collect_log=True)
    frames = render_svg(log, build_network(spec))
    assert len(frames) == 40
    assert _sha("\n".join(frames)) == FRAMES_PIN


def test_dagger_dataset_digest(tmp_path):
    cfg = DaggerConfig(
        n_max=2, t_max=6, n_vehicles=2, scenes=("fourway", "roundabout"), seed=3,
        train=TrainConfig(hidden=8, min_steps=5, max_steps=5, final_max_steps=5),
    )
    path = tmp_path / "dataset.csv"
    dagger_train(cfg).dataset.to_csv(str(path))
    assert _sha(path.read_text()) == DATASET_PIN


def test_adaptive_dagger_dataset_digest(tmp_path):
    cfg = DaggerConfig(
        n_max=2, t_max=8, n_vehicles=3, scenes=("fourway", "roundabout"), seed=3,
        train=TrainConfig(hidden=8, min_steps=5, max_steps=5, final_max_steps=5),
    )
    path = tmp_path / "dataset.csv"
    dagger_train_adaptive(cfg).dataset.to_csv(str(path))
    assert _sha(path.read_text()) == ADAPTIVE_DATASET_PIN
