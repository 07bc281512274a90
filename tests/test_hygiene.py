"""Guards against dead code and unused dependencies growing back."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intersim"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib arrived in Python 3.11")
def test_every_dependency_is_imported_by_the_package():
    import tomllib

    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                imported.add(node.module.split(".")[0])
    names = [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps]
    assert [n for n in names if n.replace("-", "_") not in imported] == []


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


def test_every_public_definition_is_referenced():
    refs = {}  # name -> [(path, line)]
    for root in SEARCHED:
        for path in root.rglob("*.py"):
            for name, line in _references(_parse(path)):
                refs.setdefault(name, []).append((path, line))
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
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
    searches than searches."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from layers import instrument, per_layer
    from tracer import Tracer

    from intersim import scene
    from intersim.controllers import AdaptiveController
    from intersim.geometry import single_network
    from intersim.planner import DEFAULT_PLANNER

    cfg = scene.SceneConfig(network=single_network("fourway"), n_vehicles=3, av_policy="adaptive")
    ep = scene.init_episode(cfg, seed=(1, 0))
    tracer = Tracer()
    try:
        instrument(tracer, False)
        scene.sim_step(ep, cfg, scene.ExpertTraffic(), AdaptiveController())
    finally:
        tracer.restore()
    m = per_layer(tracer)
    assert DEFAULT_PLANNER.horizon_n == 4
    assert m["scene.sim_step.calls"] == 1
    assert m["reward.features_many.calls"] > 0
    assert m["reward.features_many.rows"] == 777 * m["reward.features_many.calls"]
    assert 0 < m["planner.best_response.distinct"] <= m["planner.best_response.calls"]
