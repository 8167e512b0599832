"""The package's public surface, the hooks a benchmark tracer patches, and
the imports of every module."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import evdispatch
from evdispatch import baselines, dispatcher, economics, offline, pricing
from evdispatch.domain import ResourceLedger
from evdispatch.harness import generate_scenario
from evdispatch.schedules import GenerationPolicy

#: (owner, name) of every attribute that a tracer replaces with a counting
#: wrapper for a run, each looked up on its owner at call time.
HOOKS = [(dispatcher.DispatcherState, "fresh"),
         (dispatcher, "feasible_schedules"), (dispatcher, "utility_breakdown"),
         (dispatcher, "dispatch"), (ResourceLedger, "fits")]
HOOKS += [(module, "primal_increment") for module in (economics, offline, baselines)]
HOOKS += [(pricing, family.name + "_payment") for family in pricing.FAMILIES]

SOURCES = sorted(pathlib.Path(evdispatch.__file__).parent.glob("*.py"))


def test_every_export_resolves_and_appears_once():
    """A function deleted from a module must leave no dangling export, and
    the package imports exactly the names it exports."""
    names = evdispatch.__all__
    assert [n for n, count in Counter(names).items() if count > 1] == []
    assert [n for n in names if not hasattr(evdispatch, n)] == []
    init = ast.parse(pathlib.Path(evdispatch.__file__).read_text(encoding="utf-8"))
    assert {name for _, name in _imported(init)} == set(names) - {"__version__"}


def test_every_hook_sees_calls(monkeypatch):
    """Each hook exists, ``fresh`` stays a classmethod, and a counting
    wrapper on each sees calls during an online run, the three threshold
    runs and the exact search of a tiny day."""
    assert [(o.__name__, n) for o, n in HOOKS if not hasattr(o, n)] == []
    fresh = dispatcher.DispatcherState.__dict__["fresh"]
    assert isinstance(fresh, classmethod)

    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    for owner, name in HOOKS:
        key = f"{owner.__name__}.{name}"
        if name == "fresh":
            monkeypatch.setattr(owner, name, classmethod(counted(key, fresh.__func__)))
        else:
            monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))

    config, sessions = generate_scenario(0, "tiny")
    _, captured = evdispatch.run_online(sessions, config,
                                        GenerationPolicy(max_candidates_total=4),
                                        capture_candidates=True)
    for threshold in (0.25, 0.5, 0.75):
        evdispatch.run_threshold(sessions, config, threshold)
    evdispatch.exact_offline(sessions, config, captured)
    assert [f"{o.__name__}.{n}" for o, n in HOOKS
            if not calls[f"{o.__name__}.{n}"]] == [], calls


def _imported(tree: ast.Module):
    """(line, name) of every name a module binds by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used(tree: ast.Module):
    """Every name a module reads, including those inside string
    annotations such as ``"Cells"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set(_used(tree))
    assert [(line, name) for line, name in _imported(tree) if name not in used] == []


def _unread_parameters(tree: ast.Module):
    """(line, function, parameter) of every parameter that its function or
    lambda never reads, nested functions and lambdas included. The
    ``self`` or ``cls`` of a method is exempt: a protocol such as
    ``__repr__`` fixes it."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args
        params = params[1:] if id(node) in methods else params
        params += args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param.arg not in read:
                yield node.lineno, name, param.arg


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    """A parameter that nothing reads is an option half removed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_unread_parameters(tree)) == []


def _referenced(node: ast.AST):
    """Every name that a node reads: bare, as an attribute, or imported."""
    yield from _used(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_has_a_caller():
    """A module-level ``_name`` function or class that nothing in the
    package reads outside its own definition is a helper left behind by a
    half-finished removal."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    statements = [node for tree in trees for node in tree.body]
    helpers = [node for node in statements
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    reads = {id(node): set(_referenced(node)) for node in statements}
    assert [h.name for h in helpers
            if not any(h.name in reads[id(node)] for node in statements if node is not h)] == []


def _schedule_builders(node: ast.AST, where: str = "<module>"):
    """The innermost function around each ``Schedule(...)`` call under
    node, or ``<module>`` for a call outside every function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _schedule_builders(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) == "Schedule":
                yield where
        yield from _schedule_builders(child, where)


def test_one_function_makes_every_plan():
    """Every plan builder (online, threshold) makes its plans through
    ``schedules.make_plan``, so the arrival slot, cable window, final charge
    and value of a plan are worked out in one place."""
    builders = {(path.name, name) for path in SOURCES
                for name in _schedule_builders(ast.parse(path.read_text(encoding="utf-8")))}
    assert builders == {("schedules.py", "make_plan")}


def test_numpy_is_the_only_runtime_dependency():
    """A tiny day runs online, the thresholds, the upper bound and the
    exact search with every test-only package blocked from import."""
    script = """
import sys
for name in ("scipy", "networkx", "hypothesis", "pytest"):
    sys.modules[name] = None
from evdispatch import exact_offline, run_online, run_threshold, upper_bound
from evdispatch.harness import generate_scenario
from evdispatch.schedules import GenerationPolicy
config, sessions = generate_scenario(0, "tiny")
report, captured = run_online(sessions, config, GenerationPolicy(max_candidates_total=4),
                              capture_candidates=True)
threshold = run_threshold(sessions, config, 0.5)
ub = upper_bound(sessions, config)
opt = exact_offline(sessions, config, captured).welfare
assert threshold.welfare <= ub and report.welfare <= opt <= ub
print(sorted(m for m in ("scipy", "networkx", "hypothesis", "pytest") if sys.modules[m]))
"""
    src = str(pathlib.Path(evdispatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_quick_start_runs_as_written(capsys):
    """The README's first ``python`` block once ran the exact search on a
    desk day, which it refuses: its search space has 516 digits."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 4
