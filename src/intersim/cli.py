"""Command-line front end.

Subcommands cover the package surface: simulate writes episode logs,
train-policy runs the imitation loop, evaluate and calibrate produce CSV
reports and charts, render turns a log back into SVG frames. Exit codes:
0 success, 1 configuration error (bad flags, files, or config values),
2 failure while executing a validly configured command.
"""

from __future__ import annotations

import argparse
import collections.abc
import json
import math
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional, Union, get_args, get_origin, get_type_hints

from .harness import (
    AV_POLICIES,
    EvalSpec,
    TRAFFIC_MODELS,
    _Built,
    build_network,
    calibrate_rc,
    monte_carlo,
    render_svg,
    run_one,
    write_report_csv,
)
from .imitation import DaggerConfig, TrainConfig, dagger_train, dagger_train_adaptive


class ConfigError(Exception):
    """User-facing configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="intersim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp, scene_required=False):
        sp.add_argument("--scene", required=scene_required,
                        help="built-in layout (fourway|tshape|roundabout|city) or network JSON path")
        sp.add_argument("--vehicles", type=int, default=3, help="background vehicle count")
        sp.add_argument("--traffic-model", choices=TRAFFIC_MODELS, default="mixed")
        sp.add_argument("--av", choices=AV_POLICIES, default=None,
                        help="vehicle-under-test policy (omit for traffic only)")
        sp.add_argument("--episodes", type=int, default=None)
        sp.add_argument("--seed", type=_u64, default=0)
        sp.add_argument("--rc", type=float, default=14.0, help="rule-based spacing radius, m")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--policy-file", default=None,
                        help="trained level-k policy JSON; enables the distilled engine")
        sp.add_argument("--config", default=None, help="JSON file of extra spec overrides")

    sim = sub.add_parser("simulate", help="run seeded episodes and write ndjson logs")
    common(sim, scene_required=True)

    tr = sub.add_parser("train-policy", help="imitation-train an explicit policy")
    tr.add_argument("--episodes", type=int, default=None, help="dataset-aggregation episodes")
    tr.add_argument("--vehicles", type=int, default=None)
    tr.add_argument("--seed", type=_u64, default=None)
    tr.add_argument("--out", default=".")
    tr.add_argument("--config", default=None,
                    help="JSON with variant (levelk|adaptive) and training overrides")

    ev = sub.add_parser("evaluate", help="Monte-Carlo evaluation report")
    common(ev, scene_required=True)

    cal = sub.add_parser("calibrate", help="sweep the rule-based spacing radius")
    common(cal, scene_required=True)
    cal.add_argument("--rc-grid", default="6:20:2",
                     help="min:max:step in meters, inclusive of both ends")

    rnd = sub.add_parser("render", help="episode log to SVG frames")
    rnd.add_argument("log", help="ndjson episode log path")
    rnd.add_argument("--scene", required=True,
                     help="layout kind or network JSON the log was recorded on")
    rnd.add_argument("--ticks", default=None, help="lo:hi tick range (inclusive)")
    rnd.add_argument("--out", default=".")
    return p


def _u64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in u64")
    return v


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _check_keys(cfg: dict, config_cls, what: str) -> None:
    known = {f.name for f in fields(config_cls)}
    bad = [k for k in cfg if k not in known]
    if bad:
        raise ConfigError(f"unknown {what} in config: {', '.join(sorted(bad))}")


def _json_fits(value, tp) -> bool:
    """Whether a decoded JSON value can fill a dataclass field of type tp.
    Lists stand in for tuples and sequences, objects for dicts; ints are
    valid floats, but booleans are not numbers."""
    origin = get_origin(tp)
    if origin is Union:
        return any(_json_fits(value, t) for t in get_args(tp))
    if origin is dict:
        return isinstance(value, dict) and all(_json_fits(v, get_args(tp)[1]) for v in value.values())
    if origin in (tuple, collections.abc.Sequence):
        item = get_args(tp)[0]
        return isinstance(value, list) and all(_json_fits(v, item) for v in value)
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def _type_name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")


def _check_types(cfg: dict, config_cls, what: str) -> None:
    hints = get_type_hints(config_cls)
    bad = [
        f"{k} (expected {_type_name(hints[k])}, got {type(v).__name__})"
        for k, v in cfg.items()
        if not _json_fits(v, hints[k])
    ]
    if bad:
        raise ConfigError(f"wrongly typed {what} in config: {', '.join(bad)}")


def _spec_from_args(args, overrides: dict) -> EvalSpec:
    """The flags' EvalSpec under the config's overrides. EvalSpec checks
    the values; here only the override names and types, and the files."""
    _check_keys(overrides, EvalSpec, "spec keys")
    _check_types(overrides, EvalSpec, "spec keys")
    spec = EvalSpec(**{
        "scene": args.scene,
        "n_vehicles": args.vehicles,
        "traffic_model": args.traffic_model,
        "av": args.av,
        "engine": "distilled" if args.policy_file else "expert",
        "policy_file": args.policy_file,
        "rc_m": args.rc,
        **overrides,
    })
    for key in ("policy_file", "adaptive_policy_file"):
        path = getattr(spec, key)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"{key.replace('_', '-')} not found: {path}")
    return spec


def _pop_workers(cfg: dict) -> int:
    workers = cfg.pop("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    return workers


def _parse_grid(text: str) -> List[float]:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"--rc-grid expects min:max:step, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or lo < 0:
        raise ConfigError(f"--rc-grid needs finite bounds and step and min >= 0, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("--rc-grid needs step > 0 and max >= min")
    grid, v = [], lo
    while v <= hi + 1e-9:
        grid.append(round(v, 9))
        v += step
    return grid


def _parse_ticks(text: Optional[str]):
    if text is None:
        return None
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"--ticks expects lo:hi, got {text!r}")
    return lo, hi


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    cfg.pop("workers", None)  # logs are written per episode; no parallel path here
    spec = _spec_from_args(args, cfg)
    built = _Built(spec)  # bad scenes and malformed policy files fail here
    n = args.episodes if args.episodes is not None else 1
    if n < 1:
        raise ConfigError("--episodes must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    summary = []
    for idx in range(n):
        outcome, log, _ = run_one(spec, (args.seed, idx), built, collect_log=True)
        log_path = os.path.join(args.out, f"episode_{idx:04d}.ndjson")
        with open(log_path, "w") as f:
            for line in log:
                f.write(line + "\n")
        summary.append(
            {
                "episode": idx,
                "kind": outcome.kind,
                "mean_speed": outcome.mean_speed,
                "duration_s": outcome.duration_s,
                "log": os.path.basename(log_path),
            }
        )
        print(f"episode {idx}: {outcome.kind} "
              f"(v_bar={outcome.mean_speed:.2f} m/s, {outcome.duration_s:.1f} s)")
    with open(os.path.join(args.out, "episodes.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    variant = cfg.pop("variant", "levelk")
    if variant not in ("levelk", "adaptive"):
        raise ConfigError(f"unknown train variant {variant!r}")
    train_over = cfg.pop("train", {})
    dcfg = DaggerConfig()
    _check_keys(cfg, DaggerConfig, "training keys")
    _check_types(cfg, DaggerConfig, "training keys")
    if not isinstance(train_over, dict):
        raise ConfigError("train must be a JSON object of classifier settings")
    _check_keys(train_over, TrainConfig, "train keys")
    _check_types(train_over, TrainConfig, "train keys")
    if "scenes" in cfg:
        cfg["scenes"] = tuple(cfg["scenes"])
    dcfg = replace(dcfg, **cfg)
    if train_over:
        dcfg = replace(dcfg, train=replace(TrainConfig(), **train_over))
    if args.episodes is not None:
        dcfg = replace(dcfg, n_max=args.episodes)
    if args.vehicles is not None:
        dcfg = replace(dcfg, n_vehicles=args.vehicles)
    if args.seed is not None:
        dcfg = replace(dcfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    if variant == "adaptive":
        result = dagger_train_adaptive(dcfg)
        stem = "policy_adaptive"
    else:
        result = dagger_train(dcfg)
        stem = "policy_levelk"
    result.policy.save(os.path.join(args.out, f"{stem}.json"))
    result.dataset.to_csv(os.path.join(args.out, f"{stem}_dataset.csv"))
    with open(os.path.join(args.out, f"{stem}_history.json"), "w") as f:
        json.dump(result.history, f, indent=1)
    last = result.history[-1] if result.history else {}
    print(f"trained {stem}: {len(result.dataset)} samples, "
          f"final disagreement {last.get('disagreement', float('nan')):.3f}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    workers = _pop_workers(cfg)
    spec = _spec_from_args(args, cfg)
    n = args.episodes if args.episodes is not None else 200
    if n < 1:
        raise ConfigError("--episodes must be at least 1")
    report = monte_carlo(spec, n, args.seed, workers=workers)
    os.makedirs(args.out, exist_ok=True)
    write_report_csv([report], os.path.join(args.out, "report.csv"))
    with open(os.path.join(args.out, "outcomes.ndjson"), "w") as f:
        for o in report.outcomes:
            f.write(json.dumps(
                {"kind": o.kind, "mean_speed": o.mean_speed,
                 "duration_s": o.duration_s, "seed": list(o.seed)},
                separators=(",", ":")) + "\n")
    print(f"{report.scene} / {report.traffic_model} / {report.av_policy}: "
          f"success {report.success_rate:.3f} "
          f"[{report.ci_low:.3f}, {report.ci_high:.3f}], "
          f"CR {report.cr:.3f}, DR {report.dr:.3f}, J {report.j:.3f}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    workers = _pop_workers(cfg)
    models = cfg.pop("traffic_models", list(TRAFFIC_MODELS))
    if not (isinstance(models, list) and models and all(m in TRAFFIC_MODELS for m in models)):
        raise ConfigError(
            f"traffic_models must be a non-empty list of {', '.join(TRAFFIC_MODELS)}, got {models!r}"
        )
    spec = _spec_from_args(args, cfg)
    grid = _parse_grid(args.rc_grid)
    n = args.episodes if args.episodes is not None else 200
    if n < 1:
        raise ConfigError("--episodes must be at least 1")
    rows = calibrate_rc(spec, grid, n, models, args.seed, workers, out_dir=args.out)
    for r in rows:
        print(f"rc={r['rc']:>5.1f} {r['traffic_model']:>5}: J={r['j']:.3f} "
              f"(success {r['success_rate']:.3f}, CR {r['cr']:.3f}, DR {r['dr']:.3f})")
    return 0


def _cmd_render(args) -> int:
    spec = EvalSpec(scene=args.scene)
    ticks = _parse_ticks(args.ticks)
    network = build_network(spec)
    with open(args.log) as f:
        lines = f.read().splitlines()
    frames = render_svg(lines, network, ticks)
    os.makedirs(args.out, exist_ok=True)
    start = ticks[0] if ticks else 0
    for off, frame in enumerate(frames):
        path = os.path.join(args.out, f"frame_{start + off:05d}.svg")
        with open(path, "w") as f:
            f.write(frame)
    print(f"wrote {len(frames)} frame(s) to {args.out}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "train-policy": _cmd_train,
    "evaluate": _cmd_evaluate,
    "calibrate": _cmd_calibrate,
    "render": _cmd_render,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # invalid spec values surfaced by the library are config errors too
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
