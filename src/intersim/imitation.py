"""Distillation of the game-tree policies into explicit classifiers.

The expert level-k planner is exact but costs a full 6^N tree expansion
per query. Training a small feed-forward classifier on expert-labeled
states visited by the learner itself (dataset aggregation) turns each
decision into one matrix product, which is what makes thousand-episode
evaluation studies affordable.

Everything here is plain numpy: the classifier is a small rectifier
stack sized for the 6-way decision boundary, trained by minibatch
gradient descent on a softmax cross-entropy loss.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (
    DEFAULT_ACTIONS,
    PHASE_APPROACH,
    PHASE_EXIT,
    PHASE_INSIDE,
    VehicleState,
    step,
    update_goal,
)
from .geometry import BUILDERS, KIND_LABELS, RoadNetwork, single_network
from .planner import BEHAVIORAL_LEVELS, K_MAX, PlanCache, expert_policy
from .scene import TrafficPolicy, detect_fail, detect_success, fill_empty_slots, spawn_vehicle

M_NEAR = 6  # opponent slots of the encoder; a policy file must say the same
POS_SCALE_M = 40.0  # interaction radius; positions land roughly in [-1, 1]
SPEED_SCALE = 5.0
SENTINEL_DX_M = 100.0  # empty opponent slots read as a far-away stopped car
N_LAYOUT_KINDS = 3

N_PHASES = 3
LANE_WIDTH_SCALE_M = 4.0
# kinematics, goal offset in both frames, phase, goal-lane tracking errors
EGO_BLOCK = 5 + 4 + N_PHASES + 3
SLOT_WIDTH = 9  # relative pose in both frames, heading, speed, goal direction

LEVELK_DIM = EGO_BLOCK + SLOT_WIDTH * M_NEAR + N_LAYOUT_KINDS + len(BEHAVIORAL_LEVELS)  # 74


def _lane_tracking(lane, x: float, y: float, th: float) -> Tuple[float, float]:
    """Signed cross-track offset and heading error against the goal lane.

    Straight lanes measure against the centerline through p0; ring arcs
    against the circle, tangent taken in the CCW travel direction. The
    steering choice reads almost directly off these two errors, which the
    raw pose and ref-point offset only determine through the road shape.
    """
    if lane.arc is not None:
        cx, cy = lane.arc["cx"], lane.arc["cy"]
        dx, dy = x - cx, y - cy
        e_y = math.hypot(dx, dy) - lane.arc["r"]
        e_psi = th - (math.atan2(dy, dx) + 0.5 * math.pi)
    else:
        hx, hy = math.cos(lane.heading), math.sin(lane.heading)
        e_y = hx * (y - lane.p0[1]) - hy * (x - lane.p0[0])
        e_psi = th - lane.heading
    return e_y, e_psi


_PHASE_INDEX = {PHASE_APPROACH: 0, PHASE_INSIDE: 1, PHASE_EXIT: 2}
_PHASE_ONE_HOT = {ph: [float(n == r) for n in range(N_PHASES)] for ph, r in _PHASE_INDEX.items()}
_LAYOUT_ONE_HOT = {kind: [float(n == r - 1) for n in range(N_LAYOUT_KINDS)] for kind, r in KIND_LABELS.items()}
_LEVEL_ONE_HOT = {k: [float(n == r) for n in range(len(BEHAVIORAL_LEVELS))] for r, k in enumerate(BEHAVIORAL_LEVELS)}
_SENTINEL_SLOT = [SENTINEL_DX_M / POS_SCALE_M, 0.0, SENTINEL_DX_M / POS_SCALE_M, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def _read_live(states: Sequence[Optional[VehicleState]], network: RoadNetwork) -> list:
    """Per slot, None when empty, else what the encoder reads of a vehicle:
    (x, y, theta, scaled speed, scaled goal offset x and y, phase, goal
    layout, goal lane)."""
    live: list = []
    for st in states:
        if st is None:
            live.append(None)
            continue
        lay, lane = network.resolve(st.goal_ref)
        x, y = st.pose.x, st.pose.y
        gx = (lane.p1[0] - x) / POS_SCALE_M
        gy = (lane.p1[1] - y) / POS_SCALE_M
        live.append((x, y, st.pose.theta, st.speed / SPEED_SCALE, gx, gy, st.phase, lay, lane))
    return live


def _common_block(live: list, i: int) -> List[float]:
    """The head of ego i, one flat list: every value of its encoded rows
    but the level one-hot (the ego block, the M_NEAR opponent slots and
    the layout kind one-hot).

    Ego: center offset in the layout frame, heading cos/sin, speed, goal
    offset in the layout frame and rotated into the ego frame (steering
    decisions read directly off the lateral component), phase one-hot,
    goal-lane tracking errors. Opponents fill the M_NEAR slots sorted by
    distance, then bearing, then slot, so the assignment is stable under
    index relabeling; the bearing is computed only when two distances tie
    exactly. Each slot: relative position in both frames, relative heading
    cos/sin, speed, and the opponent's own goal direction in the ego frame
    (crossing intent). Empty slots read as a far-away stopped car dead
    ahead with a zero goal vector.
    """
    x, y, th, v, gx, gy, phase, lay, lane = live[i]
    c, s = math.cos(th), math.sin(th)
    e_y, e_psi = _lane_tracking(lane, x, y, th)
    head = [
        (x - lay.center[0]) / POS_SCALE_M,
        (y - lay.center[1]) / POS_SCALE_M,
        c,
        s,
        v,
        gx,
        gy,
        gx * c + gy * s,
        -gx * s + gy * c,
        *_PHASE_ONE_HOT[phase],
        max(-2.0, min(2.0, e_y / LANE_WIDTH_SCALE_M)),
        math.cos(e_psi),
        math.sin(e_psi),
    ]
    near = [(math.hypot(o[0] - x, o[1] - y), j) for j, o in enumerate(live) if j != i and o is not None]
    near.sort()
    if len({d for d, _ in near}) < len(near):
        near.sort(key=lambda r: (r[0], math.atan2(live[r[1]][1] - y, live[r[1]][0] - x), r[1]))
    order = [j for _, j in near[:M_NEAR]]
    for j in order:
        ox, oy, oth, ov, ogx, ogy, _, _, _ = live[j]
        dx, dy = (ox - x) / POS_SCALE_M, (oy - y) / POS_SCALE_M
        head += (
            dx,
            dy,
            dx * c + dy * s,
            -dx * s + dy * c,
            math.cos(oth - th),
            math.sin(oth - th),
            ov,
            ogx * c + ogy * s,
            -ogx * s + ogy * c,
        )
    head += _SENTINEL_SLOT * (M_NEAR - len(order))
    return head + _LAYOUT_ONE_HOT[lay.kind]


def encode_many(
    states: Sequence[Optional[VehicleState]],
    indices: Sequence[int],
    levels: Sequence[int],
    network: RoadNetwork,
    plans: PlanCache,
) -> np.ndarray:
    """encode_state of vehicle indices[r] at level levels[r] as row r of
    one (R, LEVELK_DIM) array, all read from the same states. plans is the
    PlanCache of these states: its heads table holds each vehicle's head
    (every value of its rows but the level one-hot) by slot, so a head is
    built at most once per cache and shared by the rows of every call and
    level. The live vehicles are read only when a head is missing."""
    heads = plans.heads
    live = None
    rows = []
    for i, k in zip(indices, levels):
        if k not in BEHAVIORAL_LEVELS:
            raise ValueError(f"encoding defined for levels {BEHAVIORAL_LEVELS}, got {k}")
        if i not in heads:
            if live is None:
                live = _read_live(states, network)
            heads[i] = _common_block(live, i)
        rows.append(heads[i] + _LEVEL_ONE_HOT[k])
    return np.array(rows, dtype=float).reshape(len(rows), LEVELK_DIM)


def encode_state(
    states: Sequence[Optional[VehicleState]],
    i: int,
    k: int,
    network: RoadNetwork,
) -> np.ndarray:
    """Fixed-width encoding of (ego, opponents, level) in the frame of the
    intersection the ego is currently negotiating, closed by the layout
    kind one-hot and the commanded level one-hot: encode_many's one row."""
    return encode_many(states, [i], [k], network, PlanCache())[0]


_SLOT_FIELDS = ("dx", "dy", "dxe", "dye", "cos", "sin", "v", "gdxe", "gdye")
_EGO_FIELDS = (
    "ego_px", "ego_py", "ego_cos", "ego_sin", "ego_v",
    "goal_dx", "goal_dy", "goal_dxe", "goal_dye",
    "ph_approach", "ph_inside", "ph_exit",
    "track_ey", "track_cos", "track_sin",
)


def levelk_feature_names() -> List[str]:
    names = list(_EGO_FIELDS)
    for s in range(M_NEAR):
        names += [f"opp{s}_{f}" for f in _SLOT_FIELDS]
    names += ["xi_fourway", "xi_tshape", "xi_roundabout", "lvl_1", "lvl_2"]
    return names


# ---------------------------------------------------------------------------
# dataset


class DemoDataset:
    """Expert-labeled encoded states, one column per feature name,
    append-only during training.

    Persists as CSV with one header row (encoded field names, then
    `label`); floats are written with repr, so each value reads back
    exactly.
    """

    def __init__(self, feature_names: List[str]):
        self.n_features = len(feature_names)
        self.feature_names = feature_names
        self._xs: List[np.ndarray] = []
        self._ys: List[int] = []

    def __len__(self) -> int:
        return len(self._ys)

    def append(self, enc: np.ndarray, label: int) -> None:
        if enc.shape != (self.n_features,):
            raise ValueError(f"expected ({self.n_features},) encoding, got {enc.shape}")
        if not 0 <= label < len(DEFAULT_ACTIONS):
            raise ValueError(f"label {label} outside the action table")
        self._xs.append(np.asarray(enc, dtype=float))
        self._ys.append(int(label))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._ys:
            return np.zeros((0, self.n_features)), np.zeros(0, dtype=int)
        return np.stack(self._xs), np.array(self._ys, dtype=int)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(",".join(self.feature_names + ["label"]) + "\n")
            for enc, lab in zip(self._xs, self._ys):
                f.write(",".join(repr(float(v)) for v in enc) + f",{lab}\n")


# ---------------------------------------------------------------------------
# classifier


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # standard normal quantile at 0.975
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class TrainConfig:
    hidden: Union[int, Sequence[int]] = 64  # one int per hidden layer
    lr: float = 0.02  # effective step is lr / (1 - momentum); 0.05 already diverges
    momentum: float = 0.9
    lr_floor_frac: float = 0.1  # each fit anneals lr down to this fraction
    batch_size: int = 64
    epochs_per_fit: float = 2.0
    min_steps: int = 300
    max_steps: int = 6000
    final_epochs: float = 300.0  # the last aggregate fit gets a deeper pass
    final_max_steps: int = 400000

    def __post_init__(self):
        hs = [self.hidden] if isinstance(self.hidden, int) else list(self.hidden)
        if not hs or any(h <= 0 for h in hs):
            raise ValueError(f"hidden layer widths must be positive, got {self.hidden!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.lr_floor_frac <= 1:
            raise ValueError(f"lr_floor_frac must be in (0, 1], got {self.lr_floor_frac}")
        for name in ("epochs_per_fit", "min_steps", "max_steps", "final_epochs", "final_max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


# a fitted parameter beyond this magnitude marks a runaway fit; the
# committed fixture's largest is about 31
PARAM_LIMIT = 1e6


def _layer_sizes(n_features: int, hidden: Union[int, Sequence[int]]) -> List[int]:
    """Full width list [input, hidden..., n_actions] from a TrainConfig.hidden."""
    hs = [hidden] if isinstance(hidden, int) else [int(h) for h in hidden]
    return [n_features, *hs, len(DEFAULT_ACTIONS)]


class PolicyApproximator:
    """Feed-forward rectifier softmax classifier over encoded states.

    `sizes` lists layer widths [input, hidden..., output] with at least one
    hidden layer. Inference is deterministic; argmax ties resolve to the
    lowest action index, matching the planner's convention. Persists as JSON
    holding the architecture, the flattened parameters (w1, b1, w2, b2, ...
    in layer order), and the encoding config.
    """

    FORMAT_VERSION = 1

    def __init__(self, sizes: Sequence[int], encoding: dict, seed: int = 0):
        if len(sizes) < 3:
            raise ValueError("expected [input, hidden..., output] sizes")
        self.sizes = [int(s) for s in sizes]
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"layer widths must be positive, got {self.sizes}")
        self.encoding = dict(encoding)
        # one flat parameter vector; ws and bs are views into it
        self._theta = np.zeros(sum((d_in + 1) * d_out for d_in, d_out in zip(self.sizes, self.sizes[1:])))
        self.ws, self.bs = self._layers(self._theta)
        rng = np.random.default_rng(seed)
        for w in self.ws:
            w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), w.shape)

    def _layers(self, flat: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Views of flat, laid out as theta(), as each layer's weights and biases."""
        ws, bs, a = [], [], 0
        for d_in, d_out in zip(self.sizes, self.sizes[1:]):
            ws.append(flat[a : a + d_in * d_out].reshape(d_in, d_out))
            bs.append(flat[a + d_in * d_out : a + (d_in + 1) * d_out])
            a += (d_in + 1) * d_out
        return ws, bs

    # -- inference ----------------------------------------------------------

    def logits(self, X: np.ndarray) -> np.ndarray:
        H = X
        for w, b in zip(self.ws[:-1], self.bs[:-1]):
            H = H @ w
            H += b
            np.maximum(H, 0.0, out=H)
        H = H @ self.ws[-1]
        H += self.bs[-1]
        return H

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.argmax(self.logits(X), axis=1)

    def act(self, states, indices, levels, network, plans: PlanCache) -> np.ndarray:
        """Action index per row: vehicle indices[r] of states behaving at
        level levels[r]. One encode_many, through plans, the PlanCache of
        these states, and one predict for all rows."""
        if not len(indices):
            return np.zeros(0, dtype=int)
        return self.predict(encode_many(states, indices, levels, network, plans))

    # -- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, cfg: TrainConfig, rng: np.random.Generator, steps: int) -> float:
        """Minibatch momentum SGD on softmax cross-entropy for steps steps,
        the learning rate annealed exponentially from cfg.lr down to
        cfg.lr_floor_frac of it. Returns the final minibatch loss; raises
        RuntimeError on divergence: a non-finite loss during the loop, or
        after it a parameter that is not finite or exceeds PARAM_LIMIT in
        magnitude, or, where y holds two classes or more, a hidden layer with
        no unit active on any row of X.

        Gradients and velocities are flat vectors laid out as theta(), so
        one momentum update moves every layer, and each step writes into
        buffers made once per fit. Every product keeps the operands,
        orientation and row count of a per-layer step (a BLAS row's result
        can change with the batch), so the parameters come out bit for bit
        as the per-layer loop in the test suite's fit oracle gives them."""
        n = X.shape[0]
        if n == 0:
            return 0.0
        m = min(n, cfg.batch_size)  # every batch has m rows
        grad, vel = np.zeros_like(self._theta), np.zeros_like(self._theta)
        gws, gbs = self._layers(grad)
        hidden = self.sizes[1:-1]
        pres = [np.empty((m, d)) for d in hidden]  # pre-activation of each hidden layer
        acts = [None] + [np.empty((m, d)) for d in hidden]  # input to each layer
        backs = [np.empty((m, d)) for d in hidden]  # loss gradient at each hidden layer
        P = np.empty((m, self.sizes[-1]))
        rows = np.arange(m)
        loss = 0.0
        order = rng.permutation(n)
        pos = 0
        decay = cfg.lr_floor_frac ** (1.0 / max(steps - 1, 1))
        lr = cfg.lr
        for _ in range(steps):
            if pos + cfg.batch_size > n:
                order = rng.permutation(n)
                pos = 0
            idx = order[pos : pos + cfg.batch_size] if n >= cfg.batch_size else order
            pos += cfg.batch_size
            acts[0], yb = X[idx], y[idx]
            for layer, pre in enumerate(pres):
                np.matmul(acts[layer], self.ws[layer], out=pre)
                pre += self.bs[layer]
                np.maximum(pre, 0.0, out=acts[layer + 1])
            np.matmul(acts[-1], self.ws[-1], out=P)
            P += self.bs[-1]
            # the softmax, in place
            P -= P.max(axis=1, keepdims=True)
            np.exp(P, out=P)
            P /= P.sum(axis=1, keepdims=True)
            loss = float(-np.log(P[rows, yb] + 1e-12).mean())
            if not math.isfinite(loss):
                raise RuntimeError(f"classifier training diverged (loss={loss})")
            P[rows, yb] -= 1.0
            P /= m
            G = P
            for layer in range(len(self.ws) - 1, -1, -1):
                np.matmul(acts[layer].T, G, out=gws[layer])
                G.sum(axis=0, out=gbs[layer])
                if layer > 0:
                    G = np.matmul(G, self.ws[layer].T, out=backs[layer - 1])
                    G *= pres[layer - 1] > 0.0
            vel *= cfg.momentum
            vel += grad
            self._theta -= lr * vel
            lr *= decay
        peak = float(np.max(np.abs(self._theta)))
        if not peak <= PARAM_LIMIT:
            raise RuntimeError(f"classifier training diverged (max |theta|={peak:.3g})")
        H = X
        for layer, (w, b) in enumerate(zip(self.ws[:-1], self.bs[:-1]), start=1):
            H = H @ w
            H += b
            np.maximum(H, 0.0, out=H)
            if not H.any() and y.min() < y.max():  # every row then gets one class
                raise RuntimeError(f"classifier training diverged (hidden layer {layer} is dead on every row)")
        return loss

    # -- persistence ---------------------------------------------------------

    def theta(self) -> np.ndarray:
        return self._theta.copy()

    def set_theta(self, theta: np.ndarray) -> None:
        if theta.shape != self._theta.shape:
            raise ValueError(f"theta length {theta.shape} mismatches {self._theta.size}")
        self._theta[...] = theta

    def to_json(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "architecture": self.sizes,
            "theta": [float(v) for v in self.theta()],
            "encoding": self.encoding,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f)

    @classmethod
    def from_json(cls, data: dict) -> "PolicyApproximator":
        if data.get("format_version") != cls.FORMAT_VERSION:
            raise ValueError(f"unsupported policy format {data.get('format_version')}")
        obj = cls(data["architecture"], data["encoding"])
        obj.set_theta(np.array(data["theta"], dtype=float))
        return obj

    @classmethod
    def load(cls, path: str) -> "PolicyApproximator":
        """Raises ValueError naming path when the file is not a policy."""
        with open(path) as f:
            try:
                return cls.from_json(json.load(f))
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"policy file {path} is malformed: {type(e).__name__}: {e}") from None


def default_encoding() -> dict:
    """The encoding block of this encoder's policies; set-up refuses a file with another."""
    return {
        "variant": "levelk",
        "m_near": M_NEAR,
        "pos_scale_m": POS_SCALE_M,
        "speed_scale": SPEED_SCALE,
        "sentinel_dx_m": SENTINEL_DX_M,
    }


def load_policy(path: str) -> PolicyApproximator:
    """The policy in path; raises ValueError naming path unless this
    encoder reads it and it scores every action of the table."""
    policy = PolicyApproximator.load(path)
    sizes = policy.sizes
    if policy.encoding != default_encoding() or sizes[0] != LEVELK_DIM or sizes[-1] != len(DEFAULT_ACTIONS):
        raise ValueError(f"policy file {path} is not a levelk policy of this encoder")
    return policy


# ---------------------------------------------------------------------------
# dataset aggregation training loop


@dataclass
class DaggerConfig:
    """Settings of the trainer; encoder width and spawn gap are library constants."""

    n_max: int = 200
    t_max: int = 100
    n_vehicles: int = 3
    k_max: int = 2
    scenes: Tuple[str, ...] = ("fourway", "tshape", "roundabout")
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    warm_start: bool = False  # literal reading retrains from scratch

    def __post_init__(self):
        for name in ("n_max", "t_max", "n_vehicles", "k_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.k_max > K_MAX:
            raise ValueError(f"k_max must be at most {K_MAX}, the highest level the expert searches, got {self.k_max}")
        if not self.scenes or not set(self.scenes) <= set(BUILDERS):
            raise ValueError(f"scenes must be among {sorted(BUILDERS)}, got {list(self.scenes)}")


@dataclass
class DaggerResult:
    policy: PolicyApproximator
    dataset: DemoDataset
    history: List[dict]  # per episode: dataset size, disagreement rate, loss


def _episodes(cfg: DaggerConfig, rng: np.random.Generator, n_episodes: int):
    """Yields (episode number, network, initial states) per episode: a
    layout drawn from cfg.scenes and cfg.n_vehicles spawned in slot order.
    The networks are built once, before the first draw."""
    networks = {kind: single_network(kind) for kind in cfg.scenes}
    for n in range(1, n_episodes + 1):
        net = networks[cfg.scenes[rng.integers(len(cfg.scenes))]]
        states: List[Optional[VehicleState]] = []
        for _ in range(cfg.n_vehicles):
            states.append(spawn_vehicle(net, states, rng))
        yield n, net, states


def _respawn_terminal(states, net, rng) -> None:
    """Empty every failed or finished slot, then fill the empty slots as
    scene.sim_step does at a tick start (fill_empty_slots), so no ended
    vehicle blocks a spawn. As there, one detect_fail call flags every
    vehicle before any slot empties."""
    failed = detect_fail(states, [i for i, st in enumerate(states) if st is not None], net)
    for i, st in enumerate(states):
        if st is not None and (failed[i] or detect_success(st, net)):
            states[i] = None
    fill_empty_slots(states, net, rng)


def _advance(states, actions: Dict[int, int], net: RoadNetwork) -> None:
    """Synchronous move: each chosen action index applies to its vehicle."""
    for i, a_idx in actions.items():
        st = states[i]
        st.pose, st.speed = step(st.pose, st.speed, DEFAULT_ACTIONS[a_idx])
        update_goal(st, net)


def _fit_steps(train: TrainConfig, n_rows: int) -> int:
    """Step count of the fit after every episode but the last."""
    steps = int(train.epochs_per_fit * n_rows / train.batch_size)
    return max(train.min_steps, min(train.max_steps, steps))


def _final_steps(train: TrainConfig, n_rows: int) -> int:
    """Step count of the deeper last fit on the aggregate dataset."""
    steps = int(train.final_epochs * n_rows / train.batch_size)
    return min(train.final_max_steps, max(train.min_steps, steps))


def _refit(policy, dataset, cfg, n) -> Tuple[PolicyApproximator, float]:
    """Fit on the full dataset after episode n: from fresh weights unless
    cfg.warm_start, seeded by (cfg.seed, 2, n), deeper on the last."""
    if not len(dataset):
        return policy, float("nan")
    X, y = dataset.arrays()
    fit_seed = np.random.SeedSequence((cfg.seed, 2, n))
    if not cfg.warm_start:
        seed = int(fit_seed.generate_state(1)[0])
        policy = PolicyApproximator(policy.sizes, policy.encoding, seed=seed)
    steps = (_final_steps if n == cfg.n_max else _fit_steps)(cfg.train, len(dataset))
    return policy, policy.fit(X, y, cfg.train, np.random.default_rng(fit_seed), steps)


def dagger_train(cfg: DaggerConfig = DaggerConfig()) -> DaggerResult:
    """Dataset-aggregation imitation of the level-k experts.

    Per episode: a fresh scene on a random intersection kind; per tick and
    vehicle, query the expert at every behavioral level, record the states
    where the current classifier disagrees, then advance the vehicle under
    the classifier at a uniformly random level. The classifier is refit on
    the full dataset after every episode and the final iterate is returned.
    """
    root = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    enc = default_encoding()
    names = levelk_feature_names()
    policy = PolicyApproximator(_layer_sizes(len(names), cfg.train.hidden), enc, seed=cfg.seed)
    dataset = DemoDataset(names)
    levels = [k for k in BEHAVIORAL_LEVELS if k <= cfg.k_max]
    history: List[dict] = []

    for n, net, states in _episodes(cfg, rng, cfg.n_max):
        disagreements = 0
        queries = 0
        for _t in range(cfg.t_max):
            _respawn_terminal(states, net, rng)
            active = [i for i, s in enumerate(states) if s is not None]
            cache = PlanCache()
            keys = [(i, k) for i in active for k in levels]
            if keys:
                encs = encode_many(states, [i for i, _ in keys], [k for _, k in keys], net, cache)
                expert_idx = [expert_policy(states, i, k, net, cache).action_sequence[0] for i, k in keys]
                guesses = policy.predict(encs)
                for x, expert, guess in zip(encs, expert_idx, guesses):
                    queries += 1
                    if int(guess) != expert:
                        dataset.append(x.copy(), expert)
                        disagreements += 1
                chosen = {}
                for i in active:
                    k_t = levels[rng.integers(len(levels))]
                    chosen[i] = int(guesses[keys.index((i, k_t))])
                _advance(states, chosen, net)
        policy, loss = _refit(policy, dataset, cfg, n)
        rate = disagreements / queries if queries else 0.0
        history.append({"episode": n, "dataset": len(dataset), "disagreement": rate, "loss": loss})
    return DaggerResult(policy, dataset, history)


# ---------------------------------------------------------------------------
# held-out evaluation


def collect_probes(
    policy: PolicyApproximator,
    n_episodes: int,
    cfg: DaggerConfig = DaggerConfig(),
    seed: int = 7,
) -> List[Tuple[List[Optional[VehicleState]], int, int, RoadNetwork]]:
    """Probe states sampled under the trained policy's own rollouts, the
    distribution that matters at deployment. Each tick draws every active
    vehicle's level in slot order, then one act call decides all of them
    from that tick's snapshot, and they move together. Returns
    (states, i, k, network) tuples; consecutive probes share the same
    frozen snapshot."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    levels = [k for k in BEHAVIORAL_LEVELS if k <= cfg.k_max]
    probes = []
    for _n, net, states in _episodes(cfg, rng, n_episodes):
        for _t in range(cfg.t_max):
            _respawn_terminal(states, net, rng)
            active = [i for i, s in enumerate(states) if s is not None]
            snapshot = [s.copy() if s is not None else None for s in states]
            for i in active:
                for k in levels:
                    probes.append((snapshot, i, k, net))
            k_t = [levels[rng.integers(len(levels))] for _ in active]
            chosen = policy.act(states, active, k_t, net, PlanCache())
            _advance(states, {i: int(a) for i, a in zip(active, chosen)}, net)
    return probes


def evaluate_match(
    policy: PolicyApproximator,
    probes: Sequence[Tuple[List[Optional[VehicleState]], int, int, RoadNetwork]],
) -> dict:
    """Fraction of probe states where the classifier's argmax equals the
    expert's decision, with a 95% binomial interval."""
    if not probes:
        raise ValueError("empty probe set")
    hits = 0
    for _, tick in itertools.groupby(probes, key=lambda p: id(p[0])):
        tick = list(tick)
        states, net = tick[0][0], tick[0][3]
        cache = PlanCache()
        guesses = policy.act(states, [p[1] for p in tick], [p[2] for p in tick], net, cache)
        for (_, i, k, _), guess in zip(tick, guesses):
            expert = expert_policy(states, i, k, net, cache).action_sequence[0]
            hits += int(guess) == expert
    lo, hi = wilson_interval(hits, len(probes))
    return {"match": hits / len(probes), "n": len(probes), "ci_low": lo, "ci_high": hi}


# ---------------------------------------------------------------------------
# simulation adapter


class DistilledTraffic(TrafficPolicy):
    """Background traffic driven by the distilled classifier: one act call
    per tick for all background vehicles at their levels. It does not
    search; it puts the encodings of s_t in the tick's plan cache, where
    the AV's rollout and belief update find them."""

    def __init__(self, policy: PolicyApproximator):
        self.policy = policy

    def select(self, states, levels, indices, network, plans):
        out = self.policy.act(states, indices, [levels[i] for i in indices], network, plans)
        return {i: int(a) for i, a in zip(indices, out)}
