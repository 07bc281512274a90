"""Pinned digests of short seeded runs.

Each case hashes a byte-stable output of the library: the ndjson log of
one seeded episode, the SVG frames rendered from one such log, the CSV
of one tiny DAgger dataset, or the float64 bytes of a built-in network's
geometry. A change that
is meant to keep behaviour must leave every digest as it is; a change
that moves behaviour on purpose updates the pin and says so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from intersim.geometry import make_city, single_network
from intersim.harness import EvalSpec, _Built, build_network, render_svg, run_one
from intersim.imitation import DaggerConfig, TrainConfig, dagger_train

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
GEOMETRY_PINS = {
    "fourway": "47ed56de33dc9f3e6c6604434f11ea00e47295e5f8177a1184c8d6f7e13c0dbc",
    "tshape": "708df154cc5699c46e684651bac339ca48e1ca1a4db354a70ca533d3eb87546f",
    "roundabout": "dddae65031a6e6b335f41452087bc6a93497767c3216dc733cb3e83309d2931b",
    "city": "7eb72c51bfb8b4465cb1244c49fdaf1329f2103902f01571d0c8cc3965054540",
}


@pytest.mark.parametrize("name", list(EPISODES))
def test_episode_log_digest(name):
    spec, pin = EPISODES[name]
    _, log, _ = run_one(spec, (11, 0), _Built(spec), collect_log=True)
    assert _sha("\n".join(log) + "\n") == pin


def test_rendered_frames_digest():
    spec, _ = EPISODES["city-fixture-rule-based"]
    _, log, _ = run_one(spec, (11, 0), _Built(spec), collect_log=True)
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



@pytest.mark.parametrize("kind", list(GEOMETRY_PINS))
def test_built_in_geometry_digest(kind):
    """Every layout's boundary and marking polylines, its lanes' endpoints
    and rectangles, and its ports, in listing order."""
    net = make_city() if kind == "city" else single_network(kind)
    parts = []
    for name in net.names:
        lay = net.layouts[name]
        parts += [np.asarray(p, dtype=float).tobytes() for p in lay.boundaries + lay.markings]
        for lane in lay.lanes.values():
            parts.append(np.array([lane.p0, lane.p1], dtype=float).tobytes())
            if lane.rect is not None:
                r = lane.rect
                parts.append(np.array([r.cx, r.cy, r.length, r.width, r.theta]).tobytes())
        parts += [np.array(lay.port(aid), dtype=float).tobytes() for aid in lay.arms]
    assert hashlib.sha256(b"".join(parts)).hexdigest() == GEOMETRY_PINS[kind]
