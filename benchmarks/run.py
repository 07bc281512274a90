"""The intersim benchmark: seeded V&V and DAgger workloads, timed end to
end, with a separate traced pass for the per-layer metrics.

    python3 benchmarks/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Each workload is a fixed set of operations made from the seed, cut into a
few chunks: a chunk is one call of a public entry point, either
``harness.monte_carlo(spec, n, chunk_seed, workers=1)`` (the ``intersim
evaluate`` path) or ``imitation.dagger_train`` (the ``train-policy``
path). A pass runs every chunk once; a run repeats passes, at least two,
until ``--seconds`` of measurement are spent, and every pass must give the
same outcome digest. Timings are scaled to the speed of a reference machine
by a probe timed between ticks (``common.speed_probe``). With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by one pass under the tracer of
``tracer.py``, and the JSON carries the per-layer metrics. Outcome counts,
digests, machine notes and the tracing overhead are printed above it as
ungated information.

Operations are episodes. One fails when it raises or fails a check; a
failed check makes the command exit with status 1. A checkout without the
intersim sources, or with a policy fixture that does not match its
manifest, exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common

common.pin_blas()

MIN_PASSES = 2
SETUP_PROBES = 5
SETUP_SPEED_PROBES = 9  # speed probes after each set-up, after one to warm up
# a pass runs the speed probe at the first cut 50 ms after the last
# probe, and scales each interval by the median of the probes nearest it
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 4  # probes on each side

# (spec, chunks, episodes per chunk). A pass takes 5 to 13 s on a 2-core
# Xeon VM, so a 24-second run makes two to four. The time caps keep one
# deadlocked episode (300 s by default, 1,200 ticks) from dominating a run
# and make episodes alike in length, so the figures vary little from seed
# to seed; every workload times at least 100 ticks, so that ten lie beyond
# the 90th percentile.
EVAL_WORKLOADS = {
    "fourway-adaptive-expert": (
        dict(scene="fourway", n_vehicles=3, traffic_model="mixed", av="adaptive",
             engine="expert", t_limit_s=5.0),
        7, 1,
    ),
    "city-rule-distilled": (
        dict(scene="city", n_vehicles=20, traffic_model="mixed", av="rule-based",
             engine="distilled", t_limit_s=15.0),
        5, 3,
    ),
    "fourway-adaptive-distilled": (
        dict(scene="fourway", n_vehicles=3, traffic_model="mixed", av="adaptive",
             engine="distilled", t_limit_s=15.0),
        5, 10,
    ),
}
DAGGER_WORKLOAD = "dagger-levelk"
# One training call per layout kind, so every seed has the same layout mix.
# Ticks vary most in cost on the roundabout (up to 3x), where vehicles
# interact; episodes of 24 ticks give them time to, so that the tail of the
# tick times varies less between seeds than with short episodes, and spend
# less of a pass in fits.
DAGGER_SCENES = ("fourway", "tshape", "roundabout")
DAGGER_CONFIG = dict(n_max=6, t_max=24, n_vehicles=3, k_max=2)
# the final fit gets the same 300 steps as every other fit
DAGGER_TRAIN = dict(final_max_steps=300)
WORKLOADS = (*EVAL_WORKLOADS, DAGGER_WORKLOAD)

# --smoke: a few ticks per workload, for the benchmark's own test
SMOKE_T_LIMIT_S = 1.0
SMOKE_DAGGER = dict(n_max=2, t_max=3)
SMOKE_TRAIN = dict(final_max_steps=20, min_steps=10)


class FirstTick(Exception):
    """Raised by the set-up probe at the first simulated tick."""


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


# ---------------------------------------------------------------------------
# workload construction


def chunk_seeds(name: str, seed: int, smoke: bool) -> list:
    k = len(DAGGER_SCENES) if name == DAGGER_WORKLOAD else EVAL_WORKLOADS[name][1]
    return [seed * k + j for j in range(1 if smoke else k)]


def eval_spec(name: str, smoke: bool):
    """The EvalSpec of a workload and its episodes per chunk."""
    from intersim.harness import EvalSpec

    kwargs, _, episodes = EVAL_WORKLOADS[name]
    kwargs = dict(kwargs)
    if kwargs["engine"] == "distilled":
        kwargs["policy_file"] = str(common.FIXTURE)
    if smoke:
        kwargs["t_limit_s"] = SMOKE_T_LIMIT_S
        episodes = 1
    return EvalSpec(**kwargs), episodes


def dagger_config(chunk: int, seed: int, smoke: bool):
    from intersim.imitation import DaggerConfig, TrainConfig

    kwargs = {**DAGGER_CONFIG, **(SMOKE_DAGGER if smoke else {})}
    train = TrainConfig(**{**DAGGER_TRAIN, **(SMOKE_TRAIN if smoke else {})})
    return DaggerConfig(seed=seed, train=train, scenes=(DAGGER_SCENES[chunk],), **kwargs)


def fixture_problem() -> str:
    """Empty when the policy fixture matches the sha256 in its manifest."""
    manifest = json.loads(common.MANIFEST.read_text())
    digest = hashlib.sha256(common.FIXTURE.read_bytes()).hexdigest()
    if digest == manifest["sha256"]:
        return ""
    return (f"policy fixture {common.FIXTURE.name} has sha256 {digest}, its manifest "
            f"says {manifest['sha256']}; regenerate both with benchmarks/make_fixture.py")


# ---------------------------------------------------------------------------
# one pass: every chunk of a workload once, checked and digested


class Pass:
    """A pass cuts each chunk's wall into consecutive intervals at
    every tick boundary: ``intervals`` holds their host seconds and
    ``is_tick`` marks those that are one tick. The cuts fall at the same
    points of the same work in every pass. Between intervals, outside
    them, it runs the host speed probe of ``common``."""

    def __init__(self):
        self.chunks = 0
        self.intervals: list = []
        self.is_tick: list = []
        self.last = 0.0  # time of the latest cut
        self.probe_at: list = []  # number of intervals before each probe
        self.probe_s: list = []
        self.last_probe = -math.inf
        self.ticks = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.hash = hashlib.sha256()
        self.counts: dict = {}

    def cut(self, now: float, tick: bool) -> None:
        self.intervals.append(now - self.last)
        self.is_tick.append(tick)
        self.last = now
        if now - self.last_probe >= PROBE_EVERY_S:
            self.probe_at.append(len(self.intervals))
            self.probe_s.append(common.speed_probe())
            self.last = self.last_probe = time.perf_counter()

    @property
    def samples(self) -> list:
        return [v for v, t in zip(self.intervals, self.is_tick) if t]

    def scaled(self) -> list:
        """The intervals in host seconds of the reference machine: each is
        scaled by PROBE_REF_S over the median of the probes nearest it."""
        out = []
        for i, v in enumerate(self.intervals):
            j = bisect.bisect_right(self.probe_at, i)
            near = self.probe_s[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW]
            out.append(v * common.PROBE_REF_S / statistics.median(near))
        return out

    @property
    def wall(self) -> float:
        """Host seconds of the pass, its probes left out."""
        return sum(self.intervals)

    @property
    def digest(self) -> str:
        return self.hash.hexdigest()


def _patch(owner, attr, make):
    orig = vars(owner)[attr]
    setattr(owner, attr, make(orig))
    return lambda: setattr(owner, attr, orig)


def _timed_call(p: Pass, fn, *args):
    """One chunk, its end the last cut of its intervals; an exception is
    reported."""
    p.last = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        return None
    p.cut(time.perf_counter(), False)
    p.chunks += 1
    return out


def eval_pass(name: str, seed: int, smoke: bool) -> Pass:
    from intersim import harness, scene
    from intersim.dynamics import DT_S

    spec, n = eval_spec(name, smoke)
    kinds = (harness.KIND_SUCCESS, harness.KIND_COLLISION, harness.KIND_DEADLOCK)
    p = Pass()
    p.counts = dict.fromkeys(("success", "collision", "deadlock"), 0)
    clock = time.perf_counter

    def make(orig):
        def sim_step(*args, **kwargs):
            p.cut(clock(), False)
            out = orig(*args, **kwargs)
            p.cut(clock(), True)
            return out
        return sim_step
    restore = _patch(scene, "sim_step", make)
    try:
        for chunk_seed in chunk_seeds(name, seed, smoke):
            p.attempted += n
            report = _timed_call(p, harness.monte_carlo, spec, n, chunk_seed, 1)
            if report is None:
                p.failed += n
                p.problems.append(f"monte_carlo raised at seed {chunk_seed}")
                continue
            for o in report.outcomes:
                if o.kind not in kinds or not math.isfinite(o.mean_speed):
                    p.failed += 1
                    p.problems.append(f"episode {o.seed}: kind {o.kind!r}, "
                                      f"mean_speed {o.mean_speed!r}")
                p.hash.update(f"{o.kind}|{o.mean_speed!r}|{o.duration_s!r}\n".encode())
                p.ticks += round(o.duration_s / DT_S)
            counts = [sum(o.kind == k for o in report.outcomes) for k in kinds]
            for key, c in zip(p.counts, counts):
                p.counts[key] += c
            if (len(report.outcomes) != n or sum(counts) != n
                    or counts != [report.successes, report.collisions, report.deadlocks]):
                p.failed += n
                p.problems.append(f"outcome counts {counts} do not partition n={n}")
    finally:
        restore()
    if len(p.samples) != p.ticks:
        p.problems.append(f"{len(p.samples)} sim_step calls for {p.ticks} episode ticks")
    return p


def dagger_pass(seed: int, smoke: bool) -> Pass:
    from intersim import imitation

    p = Pass()
    p.counts = {"episodes": 0, "dataset_rows": 0}
    # dagger_train is one call; its ticks are timed between the one
    # batched predict each labelled tick makes, restarting after a fit
    clock = time.perf_counter
    after_predict = [False]

    def make_predict(orig):
        def predict(*args, **kwargs):
            p.cut(clock(), after_predict[0])
            after_predict[0] = True
            return orig(*args, **kwargs)
        return predict

    def make_fit(orig):
        def fit(*args, **kwargs):
            p.cut(clock(), False)
            out = orig(*args, **kwargs)
            p.cut(clock(), False)
            after_predict[0] = False
            return out
        return fit

    cls = imitation.PolicyApproximator
    restores = [_patch(cls, "predict", make_predict), _patch(cls, "fit", make_fit)]
    try:
        for chunk, chunk_seed in enumerate(chunk_seeds(DAGGER_WORKLOAD, seed, smoke)):
            cfg = dagger_config(chunk, chunk_seed, smoke)
            p.attempted += cfg.n_max
            result = _timed_call(p, imitation.dagger_train, cfg)
            if result is None or len(result.history) != cfg.n_max:
                p.failed += cfg.n_max
                p.problems.append(f"dagger_train at seed {chunk_seed} raised or stopped early")
                continue
            prev = 0
            for entry in result.history:
                bad = []
                if not math.isfinite(entry["loss"]):
                    bad.append(f"loss {entry['loss']!r}")
                if entry["dataset"] < prev:
                    bad.append(f"dataset shrank {prev} -> {entry['dataset']}")
                if bad:
                    p.failed += 1
                    p.problems.append(f"DAgger seed {chunk_seed} episode {entry['episode']}: "
                                      + ", ".join(bad))
                prev = entry["dataset"]
                p.hash.update(f"{entry['episode']}|{entry['dataset']}|"
                              f"{entry['disagreement']!r}|{entry['loss']!r}\n".encode())
            p.hash.update(result.policy.theta().tobytes())
            p.ticks += len(result.history) * cfg.t_max
            p.counts["episodes"] += len(result.history)
            p.counts["dataset_rows"] += len(result.dataset)
    finally:
        for r in restores:
            r()
    return p


def one_pass(name: str, seed: int, smoke: bool) -> Pass:
    if name == DAGGER_WORKLOAD:
        return dagger_pass(seed, smoke)
    return eval_pass(name, seed, smoke)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_probe(name: str, seed: int, smoke: bool) -> tuple:
    """Seconds from the first intersim import to the first simulated tick:
    imports, network building and policy loading, through the public
    entry point; and the median time of the speed probe right after."""
    t0 = time.perf_counter()
    common.import_intersim()
    from intersim import harness, imitation, scene

    def stop(*args, **kwargs):
        raise FirstTick

    first = chunk_seeds(name, seed, smoke)[0]
    try:
        if name == DAGGER_WORKLOAD:
            # the first spawn follows the network builds of dagger_train
            _patch(imitation, "spawn_vehicle", lambda orig: stop)
            imitation.dagger_train(dagger_config(0, first, smoke))
        else:
            _patch(scene, "sim_step", lambda orig: stop)
            spec, n = eval_spec(name, smoke)
            harness.monte_carlo(spec, n, first, workers=1)
    except FirstTick:
        elapsed = time.perf_counter() - t0
        probes = [common.speed_probe() for _ in range(1 + SETUP_SPEED_PROBES)][1:]
        return elapsed, statistics.median(probes)
    raise RuntimeError("workload finished without simulating a tick")


def measure_setup(name: str, seed: int, smoke: bool) -> list:
    """(host seconds, speed probe seconds) of each fresh-process probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = []
    for _ in range(1 if smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env={**os.environ, **common.BLAS_ENV})
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with status {proc.returncode}")
        out.append(tuple(map(float, proc.stdout.split()[-2:])))
    return out


# ---------------------------------------------------------------------------
# reporting


def machine_notes() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile(values: list, q: int) -> float:
    """q-th percentile by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def timing(passes: list, scaled: bool) -> tuple:
    """Every pass replays the same work, cut at the same points. Each
    interval, a tick or the work between two ticks, is taken as its median
    over the passes; the rate and the tick percentiles follow."""
    series = (p.scaled() if scaled else p.intervals for p in passes)
    per_interval = [statistics.median(col) for col in zip(*series)]
    per_tick = [v for v, t in zip(per_interval, passes[0].is_tick) if t]
    return (passes[0].ticks / sum(per_interval), 1e3 * statistics.median(per_tick),
            1e3 * percentile(per_tick, 90))


def end_to_end(passes: list, setup: list) -> dict:
    """Timings are scaled to the reference machine's speed by the probe, so
    that the phases of a shared host's load do not show as changes of the
    program; the unscaled figures are printed as information."""
    rate, p50, p90 = timing(passes, scaled=True)
    return {
        "ticks_per_s": rate,
        "tick_ms_p50": p50,
        "tick_ms_p90": p90,
        "setup_s": statistics.median(t * common.PROBE_REF_S / probe for t, probe in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"ticks_per_s": "1/s", "tick_ms_p50": "ms", "tick_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def predictions(name: str, m: dict, active_ticks: int) -> list:
    """Bypassed layers must read exactly as predicted; printed, not gated."""
    out = []
    if name != DAGGER_WORKLOAD:
        out.append(("imitation.fit.calls == 0", m["imitation.fit.calls"] == 0))
    if name == "city-rule-distilled":
        out.append(("planner.best_response.calls == 0", m["planner.best_response.calls"] == 0))
    if name == "fourway-adaptive-expert":
        out.append(("imitation.predict.calls == 0", m["imitation.predict.calls"] == 0))
    if name == "fourway-adaptive-distilled":
        out.append((f"planner.best_response.calls == AV-active ticks ({active_ticks})",
                    m["planner.best_response.calls"] == active_ticks))
    return out


def traced_run(name: str, seed: int, smoke: bool, untraced: Pass):
    """One pass under the tracer; returns it with the per-layer metrics.
    It is timed like the untraced pass, so that the tracing overhead is
    read at the reference speed."""
    import layers
    from tracer import Tracer

    tr = Tracer()
    layers.instrument(tr, dagger=name == DAGGER_WORKLOAD)
    try:
        traced = one_pass(name, seed, smoke)
    finally:
        tr.restore()
    tr.counts["imitation.dataset.rows"] = traced.counts.get("dataset_rows", 0)
    metrics = layers.per_layer(tr)
    same = traced.digest == untraced.digest
    if not same:
        traced.problems.append(f"traced digest {traced.digest} != untraced {untraced.digest}")
    log(f"traced digest {traced.digest} ({'matches' if same else 'DIFFERS'})")
    on, off = sum(traced.scaled()), sum(untraced.scaled())
    log(f"tracing overhead {on - off:.3f} s: traced pass {on:.3f} s, untraced pass {off:.3f} s "
        f"scaled ({traced.wall:.3f} s and {untraced.wall:.3f} s unscaled), {len(tr.start)} spans")
    if tr.missing:
        log("patch points not found: " + ", ".join(tr.missing))
    for text, ok in predictions(name, metrics, tr.counts["scene.av_active_ticks"]):
        log(f"prediction {text}: {'holds' if ok else 'VIOLATED'}")
    return traced, {k: {"value": v, "unit": layers.unit(k)} for k, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    setup = [] if trace else measure_setup(name, seed, smoke)
    log("machine " + json.dumps(machine_notes()))
    # the traced run needs one untraced pass, for the digest and the overhead
    min_passes = 1 if trace else MIN_PASSES
    passes = []
    t_begin = time.perf_counter()
    while True:
        passes.append(one_pass(name, seed, smoke))
        elapsed = time.perf_counter() - t_begin
        if passes[-1].problems or (len(passes) >= min_passes
                                   and (trace or elapsed + passes[-1].wall > seconds)):
            break
    first = passes[0]
    problems = [q for p in passes for q in p.problems]
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"outcome digest differs across repeats: {sorted(digests)}")
    if len({(tuple(p.is_tick), p.chunks) for p in passes}) != 1:
        problems.append("repeats were cut into different intervals or chunks")
    log(f"workload {name} seed {seed}: {len(passes)} passes of {first.chunks} chunks, "
        f"{first.attempted} episodes, {first.ticks} ticks, {len(first.samples)} tick samples")
    log(f"outcomes {json.dumps(first.counts)} digest {first.digest}")
    log("pass walls s " + " ".join(f"{p.wall:.3f}" for p in passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    out = {}
    if trace:
        traced, out = traced_run(name, seed, smoke, first)
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
    else:
        log("set-up probes, unscaled host s " + " ".join(f"{t:.4f}" for t, _ in setup)
            + "; speed probe ms " + " ".join(f"{1e3 * q:.3f}" for _, q in setup))
        probes = [1e3 * s for p in passes for s in p.probe_s]
        log(f"speed probe ms: median {statistics.median(probes):.3f}, min {min(probes):.3f}, "
            f"max {max(probes):.3f}, {len(probes)} probes; reference {1e3 * common.PROBE_REF_S:.3f}")
        log("unscaled host time: ticks_per_s {:.3f}, tick_ms_p50 {:.3f}, tick_ms_p90 {:.3f}"
            .format(*timing(passes, scaled=False)))
        if not problems:
            metrics = end_to_end(passes, setup)
            out = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    for q in problems:
        log(f"CHECK FAILED: {q}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in its own process, then the distillation speed-up."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    for name, res in results.items():
        for metric, v in res["metrics"].items():
            print(f"{name:28s} {metric:12s} {v['value']:14.4f} {v['unit']}")
    fast = results.get("fourway-adaptive-distilled")
    slow = results.get("fourway-adaptive-expert")
    if fast and slow and fast["metrics"] and slow["metrics"]:
        a = fast["metrics"]["ticks_per_s"]["value"]
        b = slow["metrics"]["ticks_per_s"]["value"]
        print(f"distillation speed-up (ungated): {a / b:.2f}x = {a:.2f} ticks/s distilled "
              f"/ {b:.2f} ticks/s expert, fourway adaptive V&V stack")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few ticks per workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        if args.setup_probe:
            print(*map(repr, setup_probe(args.workload, args.seed, args.smoke)))
            return 0
        common.import_intersim()
    except common.SourceMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    problem = fixture_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
