"""The reference every skyline in the suite is checked against.

``tests.conftest.brute_force_skyline_ids`` (either relation, as a set)
and ``tests.conftest.ordered_ext_skyline`` (ext-dominance, in store
order) are plain quadratic loops.  A reference that shared a helper with
the library could share its bug and pass both sides of a check, so:

* an AST check pins that neither calls anything of ``repro``: every call
  is a builtin, a stdlib or numpy name, or a method of a local array,
  never a method of the objects passed in (whose attributes they only
  read);
* on fixed inputs the oracle disagrees with two planted defects, a
  skyline that drops exact duplicates and one that swaps weak and strict
  on one column, for both relations.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

import tests.conftest as conftest
from tests.conftest import brute_force_skyline_ids, ordered_ext_skyline

ORACLES = ("brute_force_skyline_ids", "ordered_ext_skyline")


def _imports(tree: ast.Module) -> dict[str, str]:
    """Each name the module binds by an import, and the module it came from."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module or ""
    return bound


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node


@pytest.mark.parametrize("name", ORACLES)
def test_the_oracle_calls_nothing_of_the_library(name):
    tree = ast.parse(inspect.getsource(conftest))
    imported = _imports(tree)
    (function,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    params = {arg.arg for arg in function.args.args}
    locals_ = {
        target.id
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.For, ast.comprehension))
        for target in ast.walk(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        if isinstance(target, ast.Name)
    } - params
    for node in (n for stmt in function.body for n in ast.walk(stmt)):
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), ast.unparse(node)
        if isinstance(node, ast.Name) and node.id in imported:
            assert not imported[node.id].startswith("repro"), ast.unparse(node)
        if not isinstance(node, ast.Call):
            continue
        root = _root(node.func)
        assert isinstance(root, ast.Name), ast.unparse(node)
        if root is node.func:  # a plain name: a builtin or a stdlib import
            known = root.id in vars(builtins) or root.id in imported
            assert known and root.id not in params, ast.unparse(node)
        else:  # a method: of numpy, math, or an array the function made
            assert root.id in {"np", "math"} | locals_, ast.unparse(node)


#: Exact duplicates (rows 0 and 1), a tie on column 0 (rows 0 and 2) and
#: a row everything dominates (row 3).
VALUES = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
IDS = np.array([10, 11, 12, 13])


def _dominates(q, p, strict: bool, weak_col: bool | None = None) -> bool:
    """The relation, with column 0 read weakly (``weak_col=True``) or
    strictly (``False``) whatever ``strict`` says of the others."""
    weak = [not strict] * len(p)
    if weak_col is not None:
        weak[0] = weak_col
    if not all(qc <= pc if w else qc < pc for qc, pc, w in zip(q, p, weak)):
        return False
    return strict or any(qc < pc for qc, pc in zip(q, p))


def _planted(values, ids, strict: bool, defect: str) -> frozenset[int]:
    """A skyline with one defect: ``dedup`` keeps only the first copy of
    an exact duplicate; ``swap`` flips column 0 between weak and strict."""
    rows = values.tolist()
    weak_col = strict if defect == "swap" else None  # the other reading
    kept = []
    for i, p in enumerate(rows):
        if defect == "dedup" and p in rows[:i]:
            continue
        if not any(_dominates(q, p, strict, weak_col) for j, q in enumerate(rows) if j != i):
            kept.append(int(ids[i]))
    return frozenset(kept)


@pytest.mark.parametrize(
    ("strict", "expected"),
    [(False, {10, 11}), (True, {10, 11, 12})],
    ids=["dominance", "ext-dominance"],
)
def test_the_oracle_tells_both_planted_defects(strict, expected):
    points = SimpleNamespace(values=VALUES, ids=IDS)  # no library object
    assert brute_force_skyline_ids(points, strict=strict) == expected
    assert brute_force_skyline_ids(points, (0, 1), strict) == expected
    for defect in ("dedup", "swap"):
        assert _planted(VALUES, IDS, strict, defect) != expected, defect


def test_the_ordered_oracle_keeps_store_order_and_reads_only_arrays():
    store = SimpleNamespace(points=SimpleNamespace(values=VALUES, ids=IDS))
    got = ordered_ext_skyline(store)
    assert got.result.points.ids.tolist() == [10, 11, 12]
    assert got.result.points.values.tolist() == VALUES[:3].tolist()
    assert got.result.f.tolist() == [1.0, 1.0, 1.0]
    assert got.threshold == 1.0 and got.input_size == 4
    assert ordered_ext_skyline(store, (1,)).result.points.ids.tolist() == [10, 11]
    empty = SimpleNamespace(points=SimpleNamespace(values=np.zeros((0, 2)), ids=IDS[:0]))
    assert ordered_ext_skyline(empty).threshold == math.inf


def test_the_oracle_on_a_margin_below_the_sum():
    """``(tiny, 1)`` is dominated by ``(0, 1)`` though both sums are 1.0."""
    points = SimpleNamespace(values=np.array([[1.17549435e-38, 1.0], [0.0, 1.0]]), ids=IDS[:2])
    assert brute_force_skyline_ids(points) == {11}
    assert brute_force_skyline_ids(points, strict=True) == {10, 11}
