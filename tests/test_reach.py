"""Every function, class and method of the program is needed.

A definition is needed when the command line, an acceptance pin, a
benchmark task or an oracle reaches it.  The graph is read with ast: each
function or class points to the names referenced in its body (a variable
or an attribute; imports are not references), and a name reaches every
definition of that name, so a method is reached through any attribute of
its name.  The roots are the whole of cli.py, tests/test_acceptance.py
and perfbench/workloads.py, the console scripts of pyproject.toml, the
statements each module runs on import, and ORACLES.  Dunder methods come
with their class; every other method is asserted like a function.
"""

import ast
import pathlib
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dshuffle"
ROOT_FILES = (SRC / "cli.py", ROOT / "tests" / "test_acceptance.py",
              ROOT / "perfbench" / "workloads.py")

# references that tests compare the program against, with what for
ORACLES = (
    ("evaluate", "Polynomial and RationalFunction at a rational point: the "
     "pointwise oracle of every substitution and product test"),
    ("sigma", "the antipode, one half of the dihedral symmetry check"),
    ("tau", "the stuffle reversal, the other half (ROADMAP item 3)"),
    ("check_dihedral", "f + sigma(f) = f + tau(f) = 0 on bracket values"),
    ("sharp_eval", "f at the prefix sums along one word, against the "
     "sharp word sums of the shuffle checks"),
    ("sl2_f_via_rotations", "the lowering operator by cyclic rotations, "
     "against sl2_f"),
    ("vineyard_realize", "the realization of a vineyard, against s_d"),
    ("series_ihara_action", "f∘g depth by depth: the definition f∘g − g∘f "
     "that the single-sum series_ihara_bracket is checked against"),
)


def _references(nodes):
    """Names and attributes used in the nodes, imports left out."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _graph():
    """(module.name of each function, class and non-dunder method, name ->
    referenced names of each of its definitions, names referenced by the
    roots)."""
    top, edges = [], {}
    roots = {name for name, _ in ORACLES}
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    roots |= {target.split(":")[1] for target in scripts.values()}
    for path in ROOT_FILES:
        roots |= _references([ast.parse(path.read_text())])
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _references([node])
                continue
            top.append("%s.%s" % (path.stem, node.name))
            refs = _references(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                refs |= _references(node.bases)
                for item in node.body:
                    if (not isinstance(item, ast.FunctionDef)
                            or item.name.startswith("__")):
                        refs |= _references([item])
                    else:
                        top.append("%s.%s.%s" % (path.stem, node.name,
                                                 item.name))
                        edges.setdefault(item.name, set()).update(
                            _references([item]))
            else:
                refs |= _references(node.body + node.args.defaults)
            edges.setdefault(node.name, set()).update(refs)
    return top, edges, roots


def _reached(edges, roots):
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(edges.get(name, ()))
    return seen


def test_every_definition_is_reached():
    top, edges, roots = _graph()
    reached = _reached(edges, roots)
    missing = [name for name in top if name.split(".")[-1] not in reached]
    assert not missing, "reached by no root: " + ", ".join(missing)


def test_oracles_exist():
    _, edges, _ = _graph()
    missing = [name for name, _ in ORACLES if name not in edges]
    assert not missing, "no such definition: " + ", ".join(missing)
