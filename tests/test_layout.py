"""The package holds the engines: every top-level function and class of
src/cuemoments is reached from a command, from a name the benchmark checks
import, or from a short allowlist. Reference oracles live in tests/oracles.py."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Reached by no command yet; each is kept for the ROADMAP item named.
ALLOWED = {
    ("symfunc", "newton_convert"): "item 4 converts power sums to e_l with Newton's identities",
    ("painleve", "fractional_moment_q1"): "item 2 extends it to real exponents p < 2s + 1",
}


def _imported(tree):
    """{local name: (module, name)} of every from-import of the package,
    relative ones included."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "cuemoments." in node.module):
            module = node.module if node.level else node.module.split(".", 1)[1]
            out.update({a.asname or a.name: (module, a.name) for a in node.names})
    return out


def _definitions_and_reached():
    trees = {p.stem: ast.parse(p.read_text())
             for p in (ROOT / "src" / "cuemoments").glob("*.py") if p.stem != "__init__"}
    defs, stack = {}, list(ALLOWED)
    stack += _imported(ast.parse((ROOT / "bench" / "checks.py").read_text())).values()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                if mod == "cli":
                    stack.append((mod, node.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                stack.append((mod, node))    # module-level code runs at import
    imports = {mod: _imported(tree) for mod, tree in trees.items()}
    reached = set()
    while stack:
        mod, item = stack.pop()
        if isinstance(item, str):
            if (mod, item) in reached or (mod, item) not in defs:
                continue
            reached.add((mod, item))
            item = defs[mod, item]
        stack += [imports[mod].get(node.id, (mod, node.id))
                  for node in ast.walk(item) if isinstance(node, ast.Name)]
    return set(defs), reached


def test_every_definition_is_reached():
    defined, reached = _definitions_and_reached()
    assert set(ALLOWED) <= defined
    unreached = sorted("%s.%s" % d for d in defined - reached)
    assert not unreached, "reached by no command, check or engine: " + ", ".join(unreached)
