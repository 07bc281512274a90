"""Guards against dead code and unused dependencies growing back."""

import ast
import functools
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intersim"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _not_imported(deps, roots):
    """The distribution names in deps that no file under roots imports."""
    imported = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    imported.add(node.module.split(".")[0])
    names = [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps]
    return [n for n in names if n.replace("-", "_") not in imported]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib arrived in Python 3.11")
def test_every_dependency_is_imported_by_the_package():
    import tomllib

    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert _not_imported(deps, [PACKAGE]) == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib arrived in Python 3.11")
def test_every_test_extra_is_imported_by_the_tests_or_benchmarks():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = project["optional-dependencies"]["test"]
    assert _not_imported(deps, [ROOT / "tests", ROOT / "benchmarks"]) == []


def _references(tree):
    """(name, line) of every identifier use: loads, attributes, imported
    names, and identifier-like strings (the benchmark patches by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of every
    module-level class, whose names do not start with an underscore."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member


def test_every_public_definition_is_referenced():
    refs = {}  # name -> [(path, line)]
    for root in SEARCHED:
        for path in root.rglob("*.py"):
            for name, line in _references(_parse(path)):
                refs.setdefault(name, []).append((path, line))
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_definitions(_parse(path)):
            own = range(node.lineno, node.end_lineno + 1)
            users = [r for r in refs.get(node.name, []) if not (r[0] == path and r[1] in own)]
            if not users:
                orphans.append(f"{path.name}:{node.name}")
    assert orphans == []


def _unused_imports(tree):
    """Names bound by an import statement and never read in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for root in (PACKAGE, ROOT / "tests", ROOT / "benchmarks")
        for path in sorted(root.rglob("*.py"))
        for name, line in _unused_imports(_parse(path))
    ]
    assert unused == []


def _unbounded_memos(namespaces):
    """Qualified names of the functools.lru_cache or functools.cache memos
    in the namespaces, and in the classes there, that have no finite
    maxsize."""
    out = []
    for ns in namespaces:
        for name, obj in vars(ns).items():
            members = vars(obj).items() if inspect.isclass(obj) and obj.__module__ == ns.__name__ else []
            for qual, fn in [(name, obj), *((f"{name}.{m}", v) for m, v in members)]:
                fn = getattr(fn, "__func__", fn)
                if hasattr(fn, "cache_parameters") and fn.cache_parameters()["maxsize"] is None:
                    out.append(f"{ns.__name__}.{qual}")
    return out


def test_every_library_memo_is_bounded():
    """A memo that lives as long as the process and has no bound would
    grow with every distinct key over a long study."""
    modules = [importlib.import_module(f"intersim.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unbounded_memos(modules) == []
    probe = types.ModuleType("probe")
    probe.bounded = functools.lru_cache(maxsize=4)(abs)
    probe.unbounded = functools.cache(abs)
    probe.Holder = type("Holder", (), {"__module__": "probe", "memo": staticmethod(functools.lru_cache(None)(abs))})
    assert _unbounded_memos([probe]) == ["probe.unbounded", "probe.Holder.memo"]


@pytest.mark.parametrize("dagger", [False, True])
def test_every_benchmark_patch_point_exists(monkeypatch, dagger):
    """A refactor that renames or drops a name the benchmark tracer patches
    would make that layer read zero calls instead of failing."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from layers import instrument
    from tracer import Tracer

    tracer = Tracer()
    try:
        instrument(tracer, dagger)
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_benchmark_hooks_read_the_right_arguments(monkeypatch):
    """The tracer's hooks read the wrapped calls' positional arguments: a
    signature change that shifted them would count the wrong thing. One
    fourway expert tick under the tracer must give 777 feature rows per
    features_many call at the default horizon, and no more distinct
    searches than searches. Each overlap_rects_group call must add its
    rows times its opponents to the pair tests, as the kernel's own
    parameters name them."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from layers import instrument, per_layer
    from tracer import Tracer

    from intersim import geometry, reward, scene
    from intersim.controllers import AdaptiveController
    from intersim.geometry import single_network
    from intersim.planner import DEFAULT_PLANNER

    cfg = scene.SceneConfig(network=single_network("fourway"), n_vehicles=3, av_policy="adaptive")
    ep = scene.init_episode(cfg, seed=(1, 0))
    tracer = Tracer()
    kernel = inspect.signature(geometry.overlap_rects_group)
    pairs = []  # (counted by the tracer's hook, rows x opponents)

    def spy(*args, **kwargs):
        before = tracer.counts["geometry.pair_tests"]
        res = traced(*args, **kwargs)
        a = kernel.bind(*args, **kwargs).arguments
        pairs.append((tracer.counts["geometry.pair_tests"] - before, len(a["x"]) * len(a["others"])))
        return res

    av, ticks = AdaptiveController(), 0
    try:
        instrument(tracer, False)
        traced = reward.overlap_rects_group
        reward.overlap_rects_group = spy  # restore() puts the kernel back
        while not pairs:
            scene.sim_step(ep, cfg, scene.ExpertTraffic(), av)
            ticks += 1
    finally:
        tracer.restore()
    m = per_layer(tracer)
    assert DEFAULT_PLANNER.horizon_n == 4
    assert all(counted == want > 0 for counted, want in pairs)
    assert m["scene.sim_step.calls"] == ticks
    assert m["reward.features_many.calls"] > 0
    assert m["reward.features_many.rows"] == 777 * m["reward.features_many.calls"]
    assert 0 < m["planner.best_response.distinct"] <= m["planner.best_response.calls"]


def test_both_trainers_read_every_dagger_config_field():
    """A DaggerConfig field that one trainer ignores is a knob that does
    nothing there, and one that neither reads does nothing at all: each
    dataset-aggregation trainer, run once, reads every field after the
    config is built."""
    import dataclasses

    from intersim.imitation import DaggerConfig, TrainConfig, dagger_train, dagger_train_adaptive

    fields = {f.name for f in dataclasses.fields(DaggerConfig)}
    reads = set()

    class Recorded(DaggerConfig):
        def __getattribute__(self, name):
            if name in fields:
                reads.add(name)
            return super().__getattribute__(name)

    seen = {}
    for trainer in (dagger_train, dagger_train_adaptive):
        cfg = Recorded(
            n_max=1, t_max=2, n_vehicles=2, seed=0,
            train=TrainConfig(hidden=4, min_steps=1, max_steps=1, final_max_steps=1),
        )
        reads.clear()  # __post_init__ reads the fields it checks
        assert len(trainer(cfg).dataset) > 0  # so the refit reads its fields too
        seen[trainer.__name__] = set(reads)
    assert seen["dagger_train"] == seen["dagger_train_adaptive"] == fields
