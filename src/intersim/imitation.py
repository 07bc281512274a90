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
from .geometry import BUILDERS, RoadNetwork, single_network
from .planner import DEFAULT_PLANNER, PlanCache, PlannerConfig, expert_policy
from .scene import TrafficPolicy, detect_fail, detect_success, road_edge_hits, spawn_vehicle

M_NEAR = 6
POS_SCALE_M = 40.0  # interaction radius; positions land roughly in [-1, 1]
SPEED_SCALE = 5.0
SENTINEL_DX_M = 100.0  # empty opponent slots read as a far-away stopped car
N_LAYOUT_KINDS = 3
BEHAVIORAL_LEVELS = (1, 2)

N_PHASES = 3
LANE_WIDTH_SCALE_M = 4.0
# kinematics, goal offset in both frames, phase, goal-lane tracking errors
EGO_BLOCK = 5 + 4 + N_PHASES + 3
SLOT_WIDTH = 9  # relative pose in both frames, heading, speed, goal direction

LEVELK_DIM = EGO_BLOCK + SLOT_WIDTH * M_NEAR + N_LAYOUT_KINDS + len(BEHAVIORAL_LEVELS)  # 74
ADAPTIVE_DIM = EGO_BLOCK + (SLOT_WIDTH + 1) * M_NEAR + N_LAYOUT_KINDS  # 78


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


def _opponent_order(states, i):
    """Opponents sorted by distance then bearing, so the slot assignment
    is stable under index relabeling."""
    ex, ey = states[i].pose.x, states[i].pose.y
    rows = []
    for j, o in enumerate(states):
        if j == i or o is None:
            continue
        dx, dy = o.pose.x - ex, o.pose.y - ey
        rows.append((math.hypot(dx, dy), math.atan2(dy, dx), j))
    rows.sort()
    return [j for _, _, j in rows]


_PHASE_INDEX = {PHASE_APPROACH: 0, PHASE_INSIDE: 1, PHASE_EXIT: 2}


def _encode_common(
    states: Sequence[Optional[VehicleState]],
    i: int,
    network: RoadNetwork,
    m_near: int,
    slot_width: int,
    tail: int,
) -> Tuple[np.ndarray, object, List[int], int]:
    """Ego block plus opponent slots shared by both encoding variants.

    Ego: center offset in the layout frame, heading cos/sin, speed, goal
    offset in the layout frame and rotated into the ego frame (steering
    decisions read directly off the lateral component), phase one-hot.
    Each opponent slot: relative position in both frames, relative
    heading cos/sin, speed, and the opponent's own goal direction in the
    ego frame (crossing intent). Empty slots read as a far-away stopped
    car dead ahead with a zero goal vector.
    """
    st = states[i]
    lay, lane = network.resolve(st.goal_ref)
    x, y, th = st.pose.x, st.pose.y, st.pose.theta
    c, s = math.cos(th), math.sin(th)
    out = np.zeros(EGO_BLOCK + slot_width * m_near + tail)
    out[0] = (x - lay.center[0]) / POS_SCALE_M
    out[1] = (y - lay.center[1]) / POS_SCALE_M
    out[2] = c
    out[3] = s
    out[4] = st.speed / SPEED_SCALE
    gx = (lane.ref_point[0] - x) / POS_SCALE_M
    gy = (lane.ref_point[1] - y) / POS_SCALE_M
    out[5] = gx
    out[6] = gy
    out[7] = gx * c + gy * s
    out[8] = -gx * s + gy * c
    out[9 + _PHASE_INDEX[st.phase]] = 1.0
    e_y, e_psi = _lane_tracking(lane, x, y, th)
    out[12] = max(-2.0, min(2.0, e_y / LANE_WIDTH_SCALE_M))
    out[13] = math.cos(e_psi)
    out[14] = math.sin(e_psi)
    order = _opponent_order(states, i)
    base = EGO_BLOCK
    for slot in range(m_near):
        if slot < len(order):
            j = order[slot]
            o = states[j]
            dx = (o.pose.x - x) / POS_SCALE_M
            dy = (o.pose.y - y) / POS_SCALE_M
            _, olane = network.resolve(o.goal_ref)
            ogx = (olane.ref_point[0] - o.pose.x) / POS_SCALE_M
            ogy = (olane.ref_point[1] - o.pose.y) / POS_SCALE_M
            out[base] = dx
            out[base + 1] = dy
            out[base + 2] = dx * c + dy * s
            out[base + 3] = -dx * s + dy * c
            out[base + 4] = math.cos(o.pose.theta - th)
            out[base + 5] = math.sin(o.pose.theta - th)
            out[base + 6] = o.speed / SPEED_SCALE
            out[base + 7] = ogx * c + ogy * s
            out[base + 8] = -ogx * s + ogy * c
        else:
            far = SENTINEL_DX_M / POS_SCALE_M
            out[base] = far
            out[base + 2] = far
            out[base + 4] = 1.0
        base += slot_width
    return out, lay, order, base


def encode_state(
    states: Sequence[Optional[VehicleState]],
    i: int,
    k: int,
    network: RoadNetwork,
    m_near: int = M_NEAR,
) -> np.ndarray:
    """Fixed-width encoding of (ego, opponents, level) in the frame of the
    intersection the ego is currently negotiating, closed by the layout
    kind one-hot and the commanded level one-hot."""
    if k not in BEHAVIORAL_LEVELS:
        raise ValueError(f"encoding defined for levels {BEHAVIORAL_LEVELS}, got {k}")
    out, lay, _, base = _encode_common(
        states, i, network, m_near, SLOT_WIDTH, N_LAYOUT_KINDS + len(BEHAVIORAL_LEVELS)
    )
    out[base + lay.label - 1] = 1.0
    out[base + N_LAYOUT_KINDS + k - 1] = 1.0
    return out


def encode_state_adaptive(
    states: Sequence[Optional[VehicleState]],
    i: int,
    estimates: Dict[int, int],
    network: RoadNetwork,
    m_near: int = M_NEAR,
) -> np.ndarray:
    """Encoding for the adaptive-policy approximator: the common block,
    but each opponent slot gains its estimated level as a signed channel
    (-1 level-1, +1 level-2, 0 empty slot) instead of a global ego-level
    one-hot."""
    out, lay, order, base = _encode_common(
        states, i, network, m_near, SLOT_WIDTH + 1, N_LAYOUT_KINDS
    )
    for slot in range(min(m_near, len(order))):
        j = order[slot]
        pos = EGO_BLOCK + (SLOT_WIDTH + 1) * slot + SLOT_WIDTH
        out[pos] = -1.0 if estimates.get(j, 1) == 1 else 1.0
    out[base + lay.label - 1] = 1.0
    return out


_SLOT_FIELDS = ("dx", "dy", "dxe", "dye", "cos", "sin", "v", "gdxe", "gdye")
_EGO_FIELDS = (
    "ego_px", "ego_py", "ego_cos", "ego_sin", "ego_v",
    "goal_dx", "goal_dy", "goal_dxe", "goal_dye",
    "ph_approach", "ph_inside", "ph_exit",
    "track_ey", "track_cos", "track_sin",
)


def levelk_feature_names(m_near: int = M_NEAR) -> List[str]:
    names = list(_EGO_FIELDS)
    for s in range(m_near):
        names += [f"opp{s}_{f}" for f in _SLOT_FIELDS]
    names += ["xi_fourway", "xi_tshape", "xi_roundabout", "lvl_1", "lvl_2"]
    return names


def adaptive_feature_names(m_near: int = M_NEAR) -> List[str]:
    names = list(_EGO_FIELDS)
    for s in range(m_near):
        names += [f"opp{s}_{f}" for f in _SLOT_FIELDS] + [f"opp{s}_lvl"]
    names += ["xi_fourway", "xi_tshape", "xi_roundabout"]
    return names


# ---------------------------------------------------------------------------
# dataset


class DemoDataset:
    """Expert-labeled encoded states, append-only during training.

    Persists as CSV with one header row (encoded field names, then
    `label`); floats are written with repr so a parse and re-emit cycle
    reproduces the file byte for byte.
    """

    def __init__(self, n_features: int, feature_names: Optional[List[str]] = None):
        if feature_names is not None and len(feature_names) != n_features:
            raise ValueError("feature_names length mismatch")
        self.n_features = n_features
        self.feature_names = feature_names or [f"f{i}" for i in range(n_features)]
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

    @classmethod
    def from_csv(cls, path: str) -> "DemoDataset":
        with open(path) as f:
            header = f.readline().rstrip("\n").split(",")
            if not header or header[-1] != "label":
                raise ValueError(f"{path}: expected trailing `label` column")
            ds = cls(len(header) - 1, header[:-1])
            for line in f:
                parts = line.rstrip("\n").split(",")
                ds.append(np.array([float(v) for v in parts[:-1]]), int(parts[-1]))
        return ds


# ---------------------------------------------------------------------------
# classifier


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
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
        rng = np.random.default_rng(seed)
        self.ws = [
            rng.normal(0.0, math.sqrt(2.0 / d_in), (d_in, d_out))
            for d_in, d_out in zip(self.sizes[:-1], self.sizes[1:])
        ]
        self.bs = [np.zeros(d) for d in self.sizes[1:]]

    # -- inference ----------------------------------------------------------

    def logits(self, X: np.ndarray) -> np.ndarray:
        H = X
        for w, b in zip(self.ws[:-1], self.bs[:-1]):
            H = np.maximum(H @ w + b, 0.0)
        return H @ self.ws[-1] + self.bs[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.argmax(self.logits(X), axis=1)

    def act(self, states, indices, levels, network) -> np.ndarray:
        """Action index per row: vehicle indices[r] of states behaving at
        level levels[r]. One encode per row, one predict for all rows."""
        if not len(indices):
            return np.zeros(0, dtype=int)
        m_near = self.encoding["m_near"]
        return self.predict(
            np.stack([encode_state(states, i, k, network, m_near) for i, k in zip(indices, levels)])
        )

    # -- training -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        cfg: TrainConfig,
        rng: np.random.Generator,
        steps: Optional[int] = None,
    ) -> float:
        """Minibatch momentum SGD on softmax cross-entropy with an
        exponential learning-rate anneal over the fit. Returns the final
        minibatch loss; raises on divergence."""
        n = X.shape[0]
        if n == 0:
            return 0.0
        if steps is None:
            steps = int(cfg.epochs_per_fit * n / cfg.batch_size)
            steps = max(cfg.min_steps, min(cfg.max_steps, steps))
        loss = 0.0
        order = rng.permutation(n)
        pos = 0
        vws = [np.zeros_like(w) for w in self.ws]
        vbs = [np.zeros_like(b) for b in self.bs]
        decay = cfg.lr_floor_frac ** (1.0 / max(steps - 1, 1))
        lr = cfg.lr
        n_layers = len(self.ws)
        for t in range(steps):
            if pos + cfg.batch_size > n:
                order = rng.permutation(n)
                pos = 0
            idx = order[pos : pos + cfg.batch_size] if n >= cfg.batch_size else order
            pos += cfg.batch_size
            Xb, yb = X[idx], y[idx]
            acts = [Xb]  # post-activation input to each layer
            pres = []  # pre-activation of each hidden layer
            for w, b in zip(self.ws[:-1], self.bs[:-1]):
                pre = acts[-1] @ w + b
                pres.append(pre)
                acts.append(np.maximum(pre, 0.0))
            Z = acts[-1] @ self.ws[-1] + self.bs[-1]
            Z -= Z.max(axis=1, keepdims=True)
            expz = np.exp(Z)
            P = expz / expz.sum(axis=1, keepdims=True)
            m = Xb.shape[0]
            loss = float(-np.log(P[np.arange(m), yb] + 1e-12).mean())
            if not math.isfinite(loss):
                raise RuntimeError(f"classifier training diverged (loss={loss})")
            G = P
            G[np.arange(m), yb] -= 1.0
            G /= m
            gws = [np.empty(0)] * n_layers
            gbs = [np.empty(0)] * n_layers
            for layer in range(n_layers - 1, -1, -1):
                gws[layer] = acts[layer].T @ G
                gbs[layer] = G.sum(axis=0)
                if layer > 0:
                    G = (G @ self.ws[layer].T) * (pres[layer - 1] > 0.0)
            mu = cfg.momentum
            for layer in range(n_layers):
                vws[layer] = mu * vws[layer] + gws[layer]
                vbs[layer] = mu * vbs[layer] + gbs[layer]
                self.ws[layer] -= lr * vws[layer]
                self.bs[layer] -= lr * vbs[layer]
            lr *= decay
        return loss

    # -- persistence ---------------------------------------------------------

    def theta(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.ws, self.bs):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_theta(self, theta: np.ndarray) -> None:
        total = sum(w.size + b.size for w, b in zip(self.ws, self.bs))
        if theta.shape != (total,):
            raise ValueError(f"theta length {theta.shape} mismatches {total}")
        a = 0
        for layer, (w, b) in enumerate(zip(self.ws, self.bs)):
            self.ws[layer] = theta[a : a + w.size].reshape(w.shape).copy()
            a += w.size
            self.bs[layer] = theta[a : a + b.size].copy()
            a += b.size

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
        with open(path) as f:
            return cls.from_json(json.load(f))


def default_encoding(variant: str = "levelk", m_near: int = M_NEAR) -> dict:
    return {
        "variant": variant,
        "m_near": m_near,
        "pos_scale_m": POS_SCALE_M,
        "speed_scale": SPEED_SCALE,
        "sentinel_dx_m": SENTINEL_DX_M,
    }


def behavioral_clone_train(
    dataset: DemoDataset,
    train: TrainConfig = TrainConfig(),
    seed: int = 0,
    encoding: Optional[dict] = None,
) -> PolicyApproximator:
    """Supervised fit on a fixed expert-generated dataset (the baseline
    against dataset aggregation)."""
    if len(dataset) == 0:
        raise ValueError("behavioral cloning needs a non-empty dataset")
    X, y = dataset.arrays()
    approx = PolicyApproximator(
        _layer_sizes(dataset.n_features, train.hidden),
        encoding or default_encoding(),
        seed=seed,
    )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    approx.fit(X, y, train, rng, steps=_final_steps(train, len(dataset)))
    return approx


# ---------------------------------------------------------------------------
# dataset aggregation training loop


@dataclass
class DaggerConfig:
    n_max: int = 200
    t_max: int = 100
    n_vehicles: int = 3
    k_max: int = 2
    scenes: Tuple[str, ...] = ("fourway", "tshape", "roundabout")
    seed: int = 0
    planner: PlannerConfig = DEFAULT_PLANNER
    train: TrainConfig = field(default_factory=TrainConfig)
    m_near: int = M_NEAR
    warm_start: bool = False  # literal reading retrains from scratch
    min_sep_m: float = 10.0
    stop_disagreement_below: Optional[float] = None  # optional early stop
    stop_patience: int = 5

    def __post_init__(self):
        for name in ("n_max", "t_max", "n_vehicles", "k_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
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
            states.append(spawn_vehicle(net, states, rng, cfg.min_sep_m))
        yield n, net, states


def _respawn_terminal(states, net, rng, min_sep) -> List[int]:
    """Respawn every empty, failed or finished slot in place and return
    the respawned slots.

    Road edges are checked once for all vehicles before any respawn;
    slot i's vehicle check runs after the earlier slots have respawned,
    the same order as scene.sim_step, so the later partner of a collision
    can miss the wreck; ROADMAP item 2(a) is the pending fix for both.
    """
    edges = road_edge_hits(states, [i for i, st in enumerate(states) if st is not None], net)
    respawned = []
    for i, st in enumerate(states):
        if st is None or detect_fail(states, i, net, edge_hits=edges) or detect_success(st, net):
            states[i] = spawn_vehicle(net, states, rng, min_sep)
            respawned.append(i)
    return respawned


def _advance(states, actions: Dict[int, int], net: RoadNetwork) -> None:
    """Synchronous move: each chosen action index applies to its vehicle."""
    for i, a_idx in actions.items():
        st = states[i]
        st.pose, st.speed = step(st.pose, st.speed, DEFAULT_ACTIONS[a_idx])
        update_goal(st, net)


def _final_steps(train: TrainConfig, n_rows: int) -> int:
    """Step count of the deeper last fit on the aggregate dataset."""
    steps = int(train.final_epochs * n_rows / train.batch_size)
    return min(train.final_max_steps, max(train.min_steps, steps))


def _refit(policy, dataset, cfg, stream, n) -> Tuple[PolicyApproximator, float]:
    """Fit on the full dataset after episode n: from fresh weights unless
    cfg.warm_start, seeded by (cfg.seed, stream, n), deeper on the last."""
    if not len(dataset):
        return policy, float("nan")
    X, y = dataset.arrays()
    fit_seed = np.random.SeedSequence((cfg.seed, stream, n))
    if not cfg.warm_start:
        seed = int(fit_seed.generate_state(1)[0])
        policy = PolicyApproximator(policy.sizes, policy.encoding, seed=seed)
    steps = _final_steps(cfg.train, len(dataset)) if n == cfg.n_max else None
    return policy, policy.fit(X, y, cfg.train, np.random.default_rng(fit_seed), steps=steps)


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
    enc = default_encoding("levelk", cfg.m_near)
    names = levelk_feature_names(cfg.m_near)
    policy = PolicyApproximator(_layer_sizes(len(names), cfg.train.hidden), enc, seed=cfg.seed)
    dataset = DemoDataset(len(names), names)
    levels = [k for k in BEHAVIORAL_LEVELS if k <= cfg.k_max]
    history: List[dict] = []
    calm_streak = 0

    for n, net, states in _episodes(cfg, rng, cfg.n_max):
        disagreements = 0
        queries = 0
        for _t in range(cfg.t_max):
            _respawn_terminal(states, net, rng, cfg.min_sep_m)
            active = [i for i, s in enumerate(states) if s is not None]
            cache = PlanCache()
            encs: Dict[Tuple[int, int], np.ndarray] = {}
            expert_idx: Dict[Tuple[int, int], int] = {}
            for i in active:
                for k in levels:
                    encs[(i, k)] = encode_state(states, i, k, net, cfg.m_near)
                    expert_idx[(i, k)] = expert_policy(
                        states, i, k, net, cfg.planner, cache
                    ).action_sequence[0]
            if encs:
                keys = list(encs)
                guesses = policy.predict(np.stack([encs[key] for key in keys]))
                for key, guess in zip(keys, guesses):
                    queries += 1
                    if int(guess) != expert_idx[key]:
                        dataset.append(encs[key], expert_idx[key])
                        disagreements += 1
                chosen = {}
                for i in active:
                    k_t = levels[rng.integers(len(levels))]
                    chosen[i] = int(guesses[keys.index((i, k_t))])
                _advance(states, chosen, net)
        policy, loss = _refit(policy, dataset, cfg, 2, n)
        rate = disagreements / queries if queries else 0.0
        history.append({"episode": n, "dataset": len(dataset), "disagreement": rate, "loss": loss})
        if cfg.stop_disagreement_below is not None:
            calm_streak = calm_streak + 1 if rate < cfg.stop_disagreement_below else 0
            if calm_streak >= cfg.stop_patience:
                break
    return DaggerResult(policy, dataset, history)


def dagger_train_adaptive(cfg: DaggerConfig = DaggerConfig()) -> DaggerResult:
    """Dataset aggregation against the level-estimating controller.

    One ego per episode holds beliefs over its opponents, updated each
    tick from their actions against the per-level expert predictions. The
    search-based adaptive policy labels the visited states under the
    current estimates, the ego advances under the classifier, and the
    opponents play their true levels through the expert. The output
    approximates the map (own state, opponents, estimated levels) to
    action with the estimate channels baked into the encoding.
    """
    from .controllers import BeliefState, adaptive_plan, estimate_level, update_beliefs

    root = np.random.SeedSequence((cfg.seed, 5))
    rng = np.random.default_rng(root.spawn(1)[0])
    enc = default_encoding("adaptive", cfg.m_near)
    names = adaptive_feature_names(cfg.m_near)
    policy = PolicyApproximator(_layer_sizes(len(names), cfg.train.hidden), enc, seed=cfg.seed)
    dataset = DemoDataset(len(names), names)
    levels = [k for k in BEHAVIORAL_LEVELS if k <= cfg.k_max]
    history: List[dict] = []

    for n, net, states in _episodes(cfg, rng, cfg.n_max):
        bg_levels = {j: levels[rng.integers(len(levels))] for j in range(1, cfg.n_vehicles)}
        beliefs = BeliefState(model_set=tuple(levels))
        disagreements = 0
        queries = 0
        for _t in range(cfg.t_max):
            for i in _respawn_terminal(states, net, rng, cfg.min_sep_m):
                if i == 0:
                    beliefs = BeliefState(model_set=beliefs.model_set, beta=beliefs.beta)
                else:
                    beliefs.reset(i)
            cache = PlanCache()
            opp_active = [
                j for j in range(1, cfg.n_vehicles) if states[j] is not None
            ]
            chosen: Dict[int, int] = {}
            for j in opp_active:
                chosen[j] = expert_policy(
                    states, j, bg_levels[j], net, cfg.planner, cache
                ).action_sequence[0]
            if states[0] is not None:
                estimates = {
                    j: estimate_level(beliefs.vec(j), beliefs.model_set)
                    for j in opp_active
                }
                x = encode_state_adaptive(states, 0, estimates, net, cfg.m_near)
                expert = adaptive_plan(states, 0, beliefs, net, cfg.planner, cache=cache).action_sequence[0]
                guess = int(policy.predict(x[None, :])[0])
                queries += 1
                if guess != expert:
                    dataset.append(x, expert)
                    disagreements += 1
                chosen[0] = guess
            # belief refresh from the actions just chosen at this state
            for j in opp_active:
                preds = {}
                for k in levels:
                    a = cfg.planner.actions[
                        expert_policy(states, j, k, net, cfg.planner, cache).action_sequence[0]
                    ]
                    preds[k] = (a.accel, a.omega)
                obs = cfg.planner.actions[chosen[j]]
                beliefs = update_beliefs(beliefs, j, (obs.accel, obs.omega), preds)
            _advance(states, chosen, net)
        policy, loss = _refit(policy, dataset, cfg, 6, n)
        rate = disagreements / queries if queries else 0.0
        history.append({"episode": n, "dataset": len(dataset), "disagreement": rate, "loss": loss})
    return DaggerResult(policy, dataset, history)


def collect_expert_rollouts(
    n_episodes: int,
    cfg: DaggerConfig = DaggerConfig(),
    seed: int = 1,
) -> DemoDataset:
    """Expert-driven rollouts labeled at every visited state, for training
    the cloning baseline on the expert's own distribution."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    names = levelk_feature_names(cfg.m_near)
    dataset = DemoDataset(len(names), names)
    levels = [k for k in BEHAVIORAL_LEVELS if k <= cfg.k_max]
    for _n, net, states in _episodes(cfg, rng, n_episodes):
        for _t in range(cfg.t_max):
            _respawn_terminal(states, net, rng, cfg.min_sep_m)
            active = [i for i, s in enumerate(states) if s is not None]
            cache = PlanCache()
            chosen = {}
            for i in active:
                for k in levels:
                    enc = encode_state(states, i, k, net, cfg.m_near)
                    idx = expert_policy(states, i, k, net, cfg.planner, cache).action_sequence[0]
                    dataset.append(enc, idx)
                k_t = levels[rng.integers(len(levels))]
                chosen[i] = expert_policy(states, i, k_t, net, cfg.planner, cache).action_sequence[0]
            _advance(states, chosen, net)
    return dataset


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
            _respawn_terminal(states, net, rng, cfg.min_sep_m)
            active = [i for i, s in enumerate(states) if s is not None]
            snapshot = [s.copy() if s is not None else None for s in states]
            for i in active:
                for k in levels:
                    probes.append((snapshot, i, k, net))
            k_t = [levels[rng.integers(len(levels))] for _ in active]
            chosen = policy.act(states, active, k_t, net)
            _advance(states, {i: int(a) for i, a in zip(active, chosen)}, net)
    return probes


def evaluate_match(
    policy: PolicyApproximator,
    probes: Sequence[Tuple[List[Optional[VehicleState]], int, int, RoadNetwork]],
    planner_cfg: PlannerConfig = DEFAULT_PLANNER,
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
        guesses = policy.act(states, [p[1] for p in tick], [p[2] for p in tick], net)
        for (_, i, k, _), guess in zip(tick, guesses):
            expert = expert_policy(states, i, k, net, planner_cfg, cache).action_sequence[0]
            hits += int(guess) == expert
    lo, hi = wilson_interval(hits, len(probes))
    return {"match": hits / len(probes), "n": len(probes), "ci_low": lo, "ci_high": hi}


# ---------------------------------------------------------------------------
# simulation adapter


class DistilledTraffic(TrafficPolicy):
    """Background traffic driven by the distilled classifier: one act call
    per tick for all background vehicles at their levels. It does not
    search, so it leaves the tick's plan table alone."""

    def __init__(self, policy: PolicyApproximator):
        self.policy = policy

    def select(self, states, levels, indices, network, plans):
        out = self.policy.act(states, indices, [levels[i] for i in indices], network)
        return {i: int(a) for i, a in zip(indices, out)}
