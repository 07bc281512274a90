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
        "d0f3cfbdfe27b2ef9b682d32299882338688c05b65c8907b7b8482d1c179a531",
    ),
    "tshape-expert-adaptive": (
        EvalSpec(scene="tshape", n_vehicles=3, av="adaptive", engine="expert", t_limit_s=8.0),
        "1b9ae1a729fdc4a6078d768a58af7bdf5dfcfa1d5c4d4863ada1ecdbaab3e041",
    ),
    "roundabout-expert-adaptive": (
        EvalSpec(scene="roundabout", n_vehicles=3, av="adaptive", engine="expert", t_limit_s=8.0),
        "9a5309d7d1c62abbc3403e2327b0f9e6e73523b15d64a0c8355a7caa7d01ba94",
    ),
    "fourway-fixture-adaptive": (
        EvalSpec(scene="fourway", n_vehicles=3, av="adaptive", policy_file=FIXTURE, t_limit_s=10.0),
        "d7c4265f3300b74028638bbe5da230e28475dc3b3274c5acf017d4cd3b2a68e7",
    ),
    "city-fixture-rule-based": (
        EvalSpec(scene="city", n_vehicles=16, av="rule-based", policy_file=FIXTURE, t_limit_s=10.0),
        "c650899ece4b1a4b2b61707ecc62b5d28d85d0bae489d27228d12bb87051d526",
    ),
    # The planner on a multi-intersection network. Seed rule: the first
    # of the seeds (11, s), s = 0, 1, ..., whose log differs between ego
    # trees that score only their goal layout's edges and ego trees that
    # score the network's edge table (s = 0), so the pin sees that table.
    "city-expert": (
        EvalSpec(scene="city", n_vehicles=6, av=None, engine="expert", t_limit_s=6.0),
        "e5c6c7a949e1ec28033cc945f6f72830306b8630c78493cf0b2699d7ac116661",
    ),
}


# every frame of the city-fixture-rule-based log, joined by newlines
FRAMES_PIN = "e102bc10118a26b3202d8c9ca6a393e0db8dba91537f9d206ce5188dd08e434e"
DATASET_PIN = "adae0d31d70951cbbcfe94ce17595816a471f558a4b8d178cd55ed65a55e9ce4"
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
