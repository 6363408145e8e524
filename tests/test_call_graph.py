"""No new recursion in `src/mpstkit`: each module's call graph, read from its
AST, has only the cycles listed here, each with the ROADMAP item that removes
it.  A walk that recurses once per step fails on a long or deeply nested
protocol, so a change that removes a cycle deletes its entry, and no change
adds one.

Calls are matched by name: a bare name matches a function of the module (a
nested one included), `self.name` a method of one of its classes.  A
reference counts as a call, so `map(self.expr, args)` is an edge too."""

import ast

import pytest

from helpers import ROOT

SRC = ROOT / "src" / "mpstkit"

ALLOWED = {
    "core": {
        ("substitute",): "item 2",
        ("walk",): "item 2",  # inside `alpha_normalize`
        ("payload_to_json", "sort_to_json", "type_to_json"): "item 2",
        ("payload_from_json", "sort_from_json", "type_from_json"): "item 2",
    },
    "elaborate": {
        ("concrete", "instantiate", "sort", "type_expr"): "item 3",
    },
    "runtime": {
        ("_atom", "eval"): "item 3",
    },
    "surface": {
        ("branch", "branches", "type_expr"): "item 3",
        ("add_expr", "atom", "expr"): "item 3",
        ("arm", "stmt"): "item 3",
        ("_render_sbranches", "_render_sty"): "item 3",
        ("_render_atom", "_render_expr"): "item 3",
        ("_render_proc",): "item 3",
    },
    "typecheck": {
        ("_atom_type", "_check_sort_args", "expr_type"): "item 3",
    },
}


def call_graph(tree: ast.Module) -> dict:
    """Each function or method name of the module -> the names it calls."""
    spaces = {"function": set(), "method": set()}
    refs = {}

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spaces["method" if in_class else "function"].add(child.name)
                refs.setdefault(child.name, set())
                visit(child, child.name, False)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, owner, True)
                continue
            if owner is not None:
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    refs[owner].add((child.id, "function"))
                elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                      and child.value.id == "self"):
                    refs[owner].add((child.attr, "method"))
            visit(child, owner, in_class)

    visit(tree, None, False)
    # the names of each kind are all known only after the whole walk
    return {
        name: {callee for callee, space in calls if callee in spaces[space]}
        for name, calls in refs.items()
    }


def cycles(graph: dict) -> set:
    """The names of each strongly connected component that has a cycle."""

    def reachable(start):  # in one or more steps
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        return seen

    reach = {name: reachable(name) for name in graph}
    return {
        tuple(sorted(other for other in reach[name] if name in reach[other]))
        for name in graph
        if name in reach[name]
    }


def test_finds_mutual_recursion_through_references():
    tree = ast.parse(
        "def a(x):\n    return list(map(b, x))\n"
        "def b(x):\n    return a(x)\n"
        "def c():\n    return a\n"
        "class K:\n"
        "    def m(self):\n        return self.n()\n"
        "    def n(self):\n        return [self.m for _ in ()]\n"
        "    def o(self):\n        sort = 1\n        return sort\n"
        "    def sort(self):\n        def walk(t):\n            return walk(t)\n"
        "        return walk(0)\n"
    )
    assert cycles(call_graph(tree)) == {("a", "b"), ("m", "n"), ("walk",)}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_cycle_outside_the_allowlist(module):
    found = cycles(call_graph(ast.parse((SRC / f"{module}.py").read_text())))
    allowed = set(ALLOWED.get(module, {}))
    assert found - allowed == set(), "new recursion"
    assert allowed - found == set(), "a cycle is gone: delete its entry"
