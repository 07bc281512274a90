"""The explicit-policy AV paths with one policy query per (vehicle, level).

These are the loops the batched engine replaced, kept as the reference
the library's controllers must match. A row policy is
predict_row(states, i, k, network) -> action index; `batched` turns it
into the act of a controllers.PolicyEngine, which answers a list of rows
at once.
"""

from typing import Dict, List, Tuple

import numpy as np

from intersim.controllers import (
    AdaptiveController,
    FixedLevelController,
    PolicyEngine,
    estimate_level,
    update_beliefs,
)
from intersim.dynamics import DEFAULT_ACTIONS, step
from intersim.planner import BEHAVIORAL_LEVELS, HORIZON_N, INTERACTION_RADIUS_M, best_response, levelk_plan, near_indices


def batched(predict_row):
    """The act that answers each row with predict_row."""

    def act(states, indices, levels, network, plans):
        return np.array(
            [predict_row(states, i, k, network) for i, k in zip(indices, levels)], dtype=int
        )

    return act


def rollout_per_row(states, opponents, estimates, network, predict_row):
    """Joint N-step opponent rollout, one query per opponent and step."""
    cur = [s.copy() if s is not None else None for s in states]
    trajs = {}
    for j in opponents:
        tr = np.empty((HORIZON_N + 1, 4))
        st = cur[j]
        tr[0] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
        trajs[j] = tr
    for tau in range(1, HORIZON_N + 1):
        picked = {j: predict_row(cur, j, estimates[j], network) for j in opponents}
        for j in opponents:
            st = cur[j]
            st.pose, st.speed = step(st.pose, st.speed, DEFAULT_ACTIONS[picked[j]])
            trajs[j][tau] = (st.pose.x, st.pose.y, st.pose.theta, st.speed)
    return trajs


def _uniform():
    """The belief of an opponent not tracked yet."""
    return np.full(len(BEHAVIORAL_LEVELS), 1.0 / len(BEHAVIORAL_LEVELS))


def observe_per_row(av, prev_states, actions, network, predict_row) -> None:
    """The belief update of AdaptiveController.observe, one query per
    (opponent, level); it also raises the PerRowAdaptive av's peak of each
    opponent it updates."""
    if av._ego is None or prev_states[av._ego] is None:
        return
    near = set(near_indices(prev_states, av._ego, INTERACTION_RADIUS_M))
    snapshot = list(prev_states)
    for j, a_idx in actions.items():
        if j == av._ego or j not in near:
            continue
        preds: Dict[int, Tuple[float, float]] = {}
        for k in BEHAVIORAL_LEVELS:
            act = DEFAULT_ACTIONS[predict_row(snapshot, j, k, network)]
            preds[k] = (act.accel, act.omega)
        obs_act = DEFAULT_ACTIONS[a_idx]
        prior = av.beliefs.get(j, _uniform())
        p = av.beliefs[j] = update_beliefs(prior, (obs_act.accel, obs_act.omega), preds)
        av.peak[j] = np.maximum(av.peak.get(j, p), p)


class PerRowAdaptive(AdaptiveController):
    """Adaptive AV planning against rollout_per_row. It also keeps, per
    opponent, the running max of each level's probability (peak); a reset
    archives the slot's peak into resolved, so a test can check that the
    beliefs it compares lean to a level."""

    def __init__(self, predict_row):
        super().__init__(PolicyEngine(batched(predict_row)))
        self.predict_row = predict_row
        self.peak: Dict[int, np.ndarray] = {}
        self.resolved: List[Tuple[int, np.ndarray]] = []

    def decide(self, states, i, network, plans):
        self._ego = i
        near = near_indices(states, i, INTERACTION_RADIUS_M)
        if not near:
            return levelk_plan(list(states), i, 0, network, plans).action_sequence[0]
        estimates = {j: estimate_level(self.beliefs.setdefault(j, _uniform())) for j in near}
        opp = rollout_per_row(states, near, estimates, network, self.predict_row)
        return best_response(states[i], opp, network, plans).action_sequence[0]

    def observe(self, prev_states, actions, network, plans):
        observe_per_row(self, prev_states, actions, network, self.predict_row)

    def reset_belief(self, i):
        if i in self.peak:
            self.resolved.append((i, self.peak.pop(i)))
        super().reset_belief(i)

    def peak_by_slot(self) -> Dict[int, np.ndarray]:
        """Best probability reached per level for every slot, across all
        vehicle instances that occupied the slot."""
        out: Dict[int, np.ndarray] = {}
        for j, p in self.resolved + list(self.peak.items()):
            out[j] = np.maximum(out[j], p) if j in out else p.copy()
        return out


class PerRowFixedLevel(FixedLevelController):
    def __init__(self, level, predict_row):
        super().__init__(level, PolicyEngine(batched(predict_row)))
        self.predict_row = predict_row

    def decide(self, states, i, network, plans):
        return self.predict_row(states, i, self.level, network)
