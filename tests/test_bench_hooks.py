"""The names the benchmark's per-layer counters look up must stay bound.

perfbench/run.py and perfbench/tracing.py find functions by dotted name; a
renamed or merged function would make its counter read zero without any
error.  The tables are read with ast, since importing run.py changes
sys.path and sys.dont_write_bytecode.
"""

import ast
import importlib
from pathlib import Path

from dshuffle import anatomy

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assignments(path):
    tree = ast.parse(path.read_text())
    return {t.id: node.value for node in tree.body
            if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


def _strings(node, env):
    """The tuple of strings a table expression of the form
    NAME + (..) or (..) evaluates to."""
    if isinstance(node, ast.Name):
        return _strings(env[node.id], env)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _strings(node.left, env) + _strings(node.right, env)
    return tuple(ast.literal_eval(node))


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    value = importlib.import_module("dshuffle." + module)
    for attr in attrs:
        value = getattr(value, attr)
    return value


def test_counted_names_resolve():
    env = _assignments(BENCH / "run.py")
    names = _strings(env["COUNTED"], env) + _strings(env["SELF_TIMED"], env)
    hooks = _assignments(BENCH / "tracing.py")["HOOKS"]
    names += tuple(ast.literal_eval(k) for k in hooks.keys)
    assert len(names) > 20
    for name in names:
        assert callable(_resolve(name)), name


def test_benchmark_caches_exist():
    for fn in (anatomy.evaluate_word, anatomy.generator_series):
        assert hasattr(fn, "cache_info")


SRC = Path(__file__).resolve().parents[1] / "src" / "dshuffle"


def _is_cache(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)
    return name in ("lru_cache", "cache")


def test_caches_are_module_level():
    """The benchmark empties a cache through its module attribute, so one
    on a method or a nested function would survive between cold tasks."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(_is_cache(d) for d in node.decorator_list)):
                assert id(node) in top, "%s:%d" % (path.name, node.lineno)
                found.append(node.name)
    assert {"_ihara_action", "evaluate_word", "s_d"} <= set(found)


def test_ihara_action_cache_is_found():
    from dshuffle import series
    assert hasattr(series._ihara_action, "cache_info")
    assert series._ihara_action.__module__ == "dshuffle.series"
