"""Where the tracer hooks into intersim, and the per-layer metrics it yields.

Every name is patched in the module that calls it. The span names group
the calls by layer; the metric table at the bottom turns span totals and
hook counts into the ``per_layer`` metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from tracer import Tracer


def _subclasses(cls) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count(key: str, size=lambda args, res: 1):
    def hook(tr: Tracer, args, kwargs, res):
        tr.counts[key] += size(args, res)
    return hook


def _deferred(tr: Tracer, args, kwargs, res):
    if res is None:
        tr.counts["scene.spawn_vehicle.deferred"] += 1


def _tick(tr: Tracer, args, kwargs, res):
    tr.next_tick()
    ep = args[0]
    if ep.av_index is not None and ep.states[ep.av_index] is not None and not ep.done:
        tr.counts["scene.av_active_ticks"] += 1


def _distinct(tr: Tracer, args, kwargs, res):
    ego, opp = args[0], args[1]
    p = ego.pose
    tr.see((p.x, p.y, p.theta, ego.speed, ego.goal_ref, ego.phase, id(args[2]),
            tuple(t.tobytes() for t in opp.values())))


def _rows(x) -> int:
    return int(np.atleast_2d(x).shape[0])


def instrument(tr: Tracer, dagger: bool) -> None:
    """Install every patch point. In the DAgger workload the batched
    ``predict`` that follows each tick's expert queries marks the tick
    boundary for the distinct-search count; elsewhere ``sim_step`` does."""
    from intersim import controllers, dynamics, geometry, harness, imitation, planner, reward, scene

    tr.wrap(scene, "sim_step", "scene.sim_step", before=_tick)
    for mod in (scene, imitation):
        tr.wrap(mod, "spawn_vehicle", "scene.spawn_vehicle", hook=_deferred)
        tr.wrap(mod, "detect_fail", "scene.detect_fail")
        tr.wrap(mod, "detect_success", "scene.detect_success")
        tr.wrap(mod, "update_goal", "dynamics.update_goal")
    for cls in _subclasses(scene.TrafficPolicy):
        tr.wrap(cls, "select", "scene.select")
    for cls in _subclasses(scene.AVController):
        tr.wrap(cls, "decide", "scene.decide")
        if "observe" in vars(cls):
            tr.wrap(cls, "observe", "controllers.observe")

    for mod in (scene, imitation, controllers, dynamics):
        tr.wrap(mod, "step", "dynamics.step")

    for mod in (planner, controllers):
        tr.wrap(mod, "levelk_plan", "planner.levelk_plan")
    tr.wrap(planner, "_best_response", "planner.best_response", hook=_distinct)
    tr.wrap(planner, "features_many", "reward.features_many",
            hook=_count("reward.features_many.rows", lambda a, r: len(a[0])))

    tr.wrap(reward, "overlap_rects_group", "geometry.overlap_rects_group",
            hook=_count("geometry.pair_tests", lambda a, r: len(a[0]) * len(a[5])))
    tr.wrap(reward, "overlap_rects_one_many", "geometry.overlap_rects_one_many",
            hook=_count("geometry.pair_tests", lambda a, r: len(a[0])))
    for mod in (reward, geometry):
        tr.wrap(mod, "segments_hit_rects_matrix", "geometry.segments_hit_rects_matrix",
                hook=_count("geometry.pair_tests", lambda a, r: int(np.size(r))))
    tr.wrap(scene, "segments_hit_rects", "geometry.segments_hit_rects")
    for mod in (scene, reward):
        tr.wrap(mod, "rects_overlap", "geometry.rects_overlap",
                hook=_count("geometry.pair_tests"))

    tr.wrap(imitation, "encode_state", "imitation.encode_state")
    tr.wrap(imitation, "expert_policy", "imitation.expert_policy")
    tr.wrap(imitation.PolicyApproximator, "predict", "imitation.predict",
            hook=_count("imitation.predict.rows", lambda a, r: _rows(a[1])),
            before=(lambda t, a, k, r: t.next_tick()) if dagger else None)
    tr.wrap(imitation.PolicyApproximator, "fit", "imitation.fit")

    tr.wrap(controllers, "adaptive_plan", "controllers.adaptive_plan")
    tr.wrap(controllers, "predictor_rollout", "controllers.predictor_rollout")
    tr.wrap(controllers, "update_beliefs", "controllers.update_beliefs")
    tr.wrap(controllers, "estimate_path", "controllers.estimate_path")
    tr.wrap(controllers, "rule_based_action", "controllers.rule_based_action")
    tr.wrap(controllers, "reference_path", "controllers.reference_path")

    tr.wrap(harness, "run_one", "harness.run_one")
    if "_Built" in vars(harness):
        tr.wrap(harness._Built, "__init__", "harness.build")
    else:
        tr.wrap(harness, "build_network", "harness.build")


# metric name -> (span name, field) or (None, counter key); units by suffix
METRICS = {
    "scene.sim_step.calls": ("scene.sim_step", "calls"),
    "scene.sim_step.self_ms": ("scene.sim_step", "self_ms"),
    "scene.spawn_vehicle.calls": ("scene.spawn_vehicle", "calls"),
    "scene.spawn_vehicle.deferred": (None, "scene.spawn_vehicle.deferred"),
    "scene.spawn_vehicle.ms": ("scene.spawn_vehicle", "ms"),
    "scene.detect_fail.calls": ("scene.detect_fail", "calls"),
    "scene.detect_fail.ms": ("scene.detect_fail", "ms"),
    "scene.detect_success.ms": ("scene.detect_success", "ms"),
    "scene.select.ms": ("scene.select", "ms"),
    "scene.decide.ms": ("scene.decide", "ms"),
    "scene.observe.ms": ("controllers.observe", "ms"),
    "dynamics.step.calls": ("dynamics.step", "calls"),
    "dynamics.step.ms": ("dynamics.step", "ms"),
    "dynamics.update_goal.ms": ("dynamics.update_goal", "ms"),
    "planner.levelk_plan.calls": ("planner.levelk_plan", "calls"),
    "planner.best_response.calls": ("planner.best_response", "calls"),
    "planner.best_response.distinct": (None, "planner.best_response.distinct"),
    "planner.best_response.ms": ("planner.best_response", "ms"),
    "planner.best_response.self_ms": ("planner.best_response", "self_ms"),
    "reward.features_many.calls": ("reward.features_many", "calls"),
    "reward.features_many.rows": (None, "reward.features_many.rows"),
    "reward.features_many.self_ms": ("reward.features_many", "self_ms"),
    "geometry.overlap_rects_group.self_ms": ("geometry.overlap_rects_group", "self_ms"),
    "geometry.segments_hit_rects_matrix.self_ms": ("geometry.segments_hit_rects_matrix", "self_ms"),
    "geometry.overlap_rects_one_many.self_ms": ("geometry.overlap_rects_one_many", "self_ms"),
    "geometry.segments_hit_rects.calls": ("geometry.segments_hit_rects", "calls"),
    "geometry.rects_overlap.calls": ("geometry.rects_overlap", "calls"),
    "geometry.pair_tests": (None, "geometry.pair_tests"),
    "imitation.encode_state.calls": ("imitation.encode_state", "calls"),
    "imitation.encode_state.ms": ("imitation.encode_state", "ms"),
    "imitation.predict.calls": ("imitation.predict", "calls"),
    "imitation.predict.rows": (None, "imitation.predict.rows"),
    "imitation.predict.ms": ("imitation.predict", "ms"),
    "imitation.expert_queries": ("imitation.expert_policy", "calls"),
    "imitation.fit.calls": ("imitation.fit", "calls"),
    "imitation.fit.ms": ("imitation.fit", "ms"),
    "imitation.dataset.rows": (None, "imitation.dataset.rows"),
    "controllers.adaptive_plan.ms": ("controllers.adaptive_plan", "ms"),
    "controllers.predictor_rollout.calls": ("controllers.predictor_rollout", "calls"),
    "controllers.predictor_rollout.ms": ("controllers.predictor_rollout", "ms"),
    "controllers.update_beliefs.calls": ("controllers.update_beliefs", "calls"),
    "controllers.observe.ms": ("controllers.observe", "self_ms"),
    "controllers.estimate_path.calls": ("controllers.estimate_path", "calls"),
    "controllers.estimate_path.ms": ("controllers.estimate_path", "ms"),
    "controllers.rule_based_action.ms": ("controllers.rule_based_action", "ms"),
    "controllers.reference_path.ms": ("controllers.reference_path", "ms"),
    "harness.run_one.calls": ("harness.run_one", "calls"),
    "harness.build.ms": ("harness.build", "ms"),
}


def unit(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric == "geometry.pair_tests":
        return "pairs-computed"
    if metric.endswith(".rows"):
        return "rows"
    return "count"


def per_layer(tr: Tracer) -> Dict[str, float]:
    spans = tr.summary()
    out: Dict[str, float] = {}
    for metric, (span, field) in METRICS.items():
        if span is None:
            out[metric] = tr.counts[field]
        else:
            out[metric] = spans.get(span, {}).get(field, 0)
    return out
