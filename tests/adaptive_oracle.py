"""The distilled AV paths with one predictor query per (vehicle, level).

These are the loops the batched Predictor replaced, kept as the reference
the library's controllers must match. A row predictor is
predict_row(states, i, k, network) -> action index; `batched` turns it
into the library's Predictor, which answers a list of rows at once.
"""

from typing import Dict, Tuple

import numpy as np

from intersim.controllers import (
    AdaptiveController,
    FixedLevelController,
    estimate_level,
    update_beliefs,
)
from intersim.dynamics import step
from intersim.planner import PlanCache, best_response, level0_plan, near_indices


def batched(predict_row):
    """The Predictor that answers each row with predict_row."""

    def predictor(states, indices, levels, network):
        return np.array(
            [predict_row(states, i, k, network) for i, k in zip(indices, levels)], dtype=int
        )

    return predictor


def rollout_per_row(states, opponents, estimates, network, cfg, predict_row):
    """Joint N-step opponent rollout, one query per opponent and step."""
    cur = [s.copy() if s is not None else None for s in states]
    trajs = {}
    for j in opponents:
        tr = np.empty((cfg.horizon_n + 1, 4))
        st = cur[j]
        tr[0] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
        trajs[j] = tr
    for tau in range(1, cfg.horizon_n + 1):
        picked = {j: predict_row(cur, j, estimates[j], network) for j in opponents}
        for j in opponents:
            st = cur[j]
            st.pose, st.speed = step(
                st.pose, st.speed, cfg.actions[picked[j]], dt=cfg.dt_s, v_max=cfg.v_max
            )
            trajs[j][tau] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
    return trajs


def observe_per_row(av, prev_states, actions, network, predict_row) -> None:
    """The belief update of AdaptiveController.observe, one query per
    (opponent, level)."""
    if av._ego is None or prev_states[av._ego] is None:
        return
    near = set(near_indices(prev_states, av._ego, av.planner))
    snapshot = list(prev_states)
    for j, a_idx in actions.items():
        if j == av._ego or j not in near:
            continue
        preds: Dict[int, Tuple[float, float]] = {}
        for k in av.beliefs.model_set:
            act = av.planner.actions[predict_row(snapshot, j, k, network)]
            preds[k] = (act.accel, act.omega)
        obs_act = av.planner.actions[a_idx]
        av.beliefs = update_beliefs(av.beliefs, j, (obs_act.accel, obs_act.omega), preds)
        p = av.beliefs.vec(j)
        av.peak[j] = np.maximum(av.peak.get(j, p), p)


class PerRowAdaptive(AdaptiveController):
    """Adaptive AV planning against rollout_per_row."""

    def __init__(self, predict_row, **kwargs):
        super().__init__(**kwargs)
        self.predict_row = predict_row

    def decide(self, states, i, network, plans):
        self._ego = i
        cfg = self.planner
        cache = plans.setdefault(cfg, PlanCache())
        near = near_indices(states, i, cfg)
        if not near:
            return level0_plan(list(states), i, network, cfg, cache).action_sequence[0]
        estimates = {
            j: estimate_level(self.beliefs.vec(j), self.beliefs.model_set) for j in near
        }
        opp = rollout_per_row(states, near, estimates, network, cfg, self.predict_row)
        return best_response(states[i], opp, network, cfg, cache).action_sequence[0]

    def observe(self, prev_states, actions, network, plans):
        observe_per_row(self, prev_states, actions, network, self.predict_row)


class PerRowDistilledAdaptive(PerRowAdaptive):
    """Adaptive AV whose action comes from actor(states, i, estimates,
    network), as in DistilledAdaptiveController."""

    def __init__(self, actor, predict_row, **kwargs):
        super().__init__(predict_row, **kwargs)
        self.actor = actor

    def decide(self, states, i, network, plans):
        self._ego = i
        near = near_indices(states, i, self.planner)
        estimates = {
            j: estimate_level(self.beliefs.vec(j), self.beliefs.model_set) for j in near
        }
        return self.actor(states, i, estimates, network)


class PerRowFixedLevel(FixedLevelController):
    def __init__(self, level, predict_row):
        super().__init__(level)
        self.predict_row = predict_row

    def decide(self, states, i, network, plans):
        return self.predict_row(states, i, self.level, network)
