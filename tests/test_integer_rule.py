"""One integer rule: every count, bound, twist and box is an int, never a bool.

Each public entry point that takes such an argument rejects ``True`` and
``1.5`` with a :class:`DomainError` naming the argument, and the package
decides what an integer is with ``type(x) is int``, never ``isinstance``.
"""

import ast
from pathlib import Path

import pytest

from bundle_arith import cohomology, diophantine, rank2, rank3
from bundle_arith.errors import DomainError, require_int

SRC = Path(__file__).resolve().parents[1] / "src" / "bundle_arith"

CV = cohomology.ChernVector(2, 3, (1, 2))
V2 = rank2.Rank2BundleClass(0, 0, 0)
G3 = rank3.make_group(3, 0, 24)
W3 = rank3.Rank3BundleClass(3, 0, -4)


def _solution(field, x):
    """The solution (1, 0, 0, 1, 0) with ``field`` set to ``x``."""
    values = {"x": 1, "y": 0, "z": 0, "a": 1, "b": 0}
    values[field] = x
    return diophantine.QuadricSolution(**values)


def _replaced(values, i, x):
    """``values`` as a list with entry i set to ``x``."""
    values = list(values)
    values[i] = x
    return values


# (name the message starts with, call with the argument under test set to x)
ENTRY_POINTS = {
    "ChernVector-rank": ("rank", lambda x: cohomology.ChernVector(x, 3, (1,))),
    "ChernVector-dim": ("dim", lambda x: cohomology.ChernVector(1, x, (1,))),
    "ChernVector-c": ("c", lambda x: cohomology.ChernVector(1, 3, (x,))),
    "split_chern_vector-dim": ("dim", lambda x: cohomology.split_chern_vector(x, (1, 2))),
    "split_chern_vector-twists[0]": (
        "twists[0]", lambda x: cohomology.split_chern_vector(3, (x, 2))
    ),
    "euler_characteristic": ("twist", lambda x: cohomology.euler_characteristic(CV, x)),
    "feasible_c3_lattice": (
        "scan bound", lambda x: cohomology.feasible_c3_lattice(3, 0, x)
    ),
    "epsilon": ("a", lambda x: rank2.epsilon(x)),
    "delta-c1": ("c1", lambda x: rank2.delta(x, 0)),
    "delta-c2": ("c2", lambda x: rank2.delta(0, x)),
    "alpha_extendable-c1": ("c1", lambda x: rank2.alpha_extendable(x, 0)),
    "alpha_extendable-c2": ("c2", lambda x: rank2.alpha_extendable(0, x)),
    "alpha_balanced_split": ("b", lambda x: rank2.alpha_balanced_split(x)),
    "count_classes-c1": ("c1", lambda x: rank2.count_classes(x, 0)),
    "count_classes-c2": ("c2", lambda x: rank2.count_classes(0, x)),
    "split_rank2-x": ("x", lambda x: rank2.split_rank2(x, 0)),
    "split_rank2-y": ("y", lambda x: rank2.split_rank2(0, x)),
    **{
        f"split_rank3-{t}": (
            t, lambda x, i=i: rank3.split_rank3(*_replaced((0, 0, 0), i, x))
        )
        for i, t in enumerate("xyz")
    },
    "Rank2BundleClass-c1": ("c1", lambda x: rank2.Rank2BundleClass(x, 0, 0)),
    "Rank2BundleClass-c2": ("c2", lambda x: rank2.Rank2BundleClass(1, x)),
    **{
        f"Rank3BundleClass-{c}": (
            c, lambda x, i=i: rank3.Rank3BundleClass(*_replaced((3, 0, -4), i, x))
        )
        for i, c in enumerate(("c1", "c2", "c3"))
    },
    "GroupDescriptorA1-a1": ("a1", lambda x: rank2.GroupDescriptorA1(x)),
    "GroupDescriptorA1-b": ("shift b", lambda x: rank2.GroupDescriptorA1(0, x)),
    "tensor_line": ("twist k", lambda x: rank2.tensor_line(V2, x)),
    "agreement_sweep-c1_min": ("c1_min", lambda x: rank2.agreement_sweep(x, 2)),
    "agreement_sweep-c2_bound": ("c2_bound", lambda x: rank2.agreement_sweep(-4, x)),
    # a generator: the check fires when iteration starts
    **{
        f"realizable_classes-{b}": (
            b, lambda x, i=i: list(rank2.realizable_classes(*_replaced((-2, 0, 2), i, x)))
        )
        for i, b in enumerate(("c1_min", "c1_max", "c2_bound"))
    },
    "generation_closure-c1_min": (
        "c1_min", lambda x: rank2.generation_closure(x, 0, 2, x, 0, 2)
    ),
    "generation_closure-c1_max": (
        "c1_max", lambda x: rank2.generation_closure(-2, x, 2, -2, x, 2)
    ),
    "generation_closure-c2_bound": (
        "c2_bound", lambda x: rank2.generation_closure(-2, 0, x, -2, 0, x)
    ),
    "generation_closure-search_c1_min": (
        "search_c1_min", lambda x: rank2.generation_closure(-2, 0, 2, x, 0, 2)
    ),
    "generation_closure-search_c1_max": (
        "search_c1_max", lambda x: rank2.generation_closure(-2, 0, 2, -2, x, 2)
    ),
    "generation_closure-search_c2_bound": (
        "search_c2_bound", lambda x: rank2.generation_closure(-2, 0, 2, -2, 0, x)
    ),
    "iterate": ("iteration count", lambda x: rank3.iterate(G3, W3, x)),
    "smallest_nonsplit_multiple": (
        "bound", lambda x: rank3.smallest_nonsplit_multiple(G3, W3, x)
    ),
    "make_group": ("scan bound", lambda x: rank3.make_group(3, 0, x)),
    "make_group-base_c1": ("base_c1", lambda x: rank3.make_group(x, 0, 24)),
    "make_group-base_c2": ("base_c2", lambda x: rank3.make_group(3, x, 24)),
    "GroupDescriptorV0-base_c1": ("base_c1", lambda x: rank3.GroupDescriptorV0(x, 0)),
    "GroupDescriptorV0-base_c2": ("base_c2", lambda x: rank3.GroupDescriptorV0(3, x)),
    "is_split_realizable-c1": ("c1", lambda x: rank3.is_split_realizable(x, 0, 0)),
    "is_split_realizable-c2": ("c2", lambda x: rank3.is_split_realizable(3, x, 0)),
    "is_split_realizable-c3": ("c3", lambda x: rank3.is_split_realizable(3, 0, x)),
    "brute_force_solutions-a": (
        "a", lambda x: diophantine.brute_force_solutions(x, 0, 6)
    ),
    "brute_force_solutions-b": (
        "b", lambda x: diophantine.brute_force_solutions(3, x, 6)
    ),
    "brute_force_solutions-box": (
        "box", lambda x: diophantine.brute_force_solutions(3, 0, x)
    ),
    "coverage_check-a": ("a", lambda x: diophantine.coverage_check(x, 0, 6, 2)),
    "coverage_check-b": ("b", lambda x: diophantine.coverage_check(3, x, 6, 2)),
    "coverage_check-box": ("box", lambda x: diophantine.coverage_check(3, 0, x, 2)),
    "coverage_check-param_bound": (
        "param_bound", lambda x: diophantine.coverage_check(3, 0, 6, x)
    ),
    **{
        f"QuadricSolution-{field}": (field, lambda x, field=field: _solution(field, x))
        for field in ("x", "y", "z", "a", "b")
    },
    **{
        f"param_family1-{p}": (
            p, lambda x, i=i: diophantine.param_family1(*_replaced((1, 1, 0, 1), i, x))
        )
        for i, p in enumerate("uvlw")
    },
    "param_family2-t": ("t", lambda x: diophantine.param_family2(x, 2)),
    "param_family2-l": ("l", lambda x: diophantine.param_family2(2, x)),
}


@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_non_integers(entry, bad):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as info:
        call(bad)
    # the message names the argument, so the bad value is what was refused
    assert str(info.value).startswith(name), str(info.value)


@pytest.mark.parametrize(
    "value, least, message",
    [
        (-1, None, None),
        (0, 0, None),
        (1, 1, None),
        (2, 2, None),
        (False, None, "n must be an integer, got False"),
        (-1, 0, "n must be a non-negative integer, got -1"),
        (0, 1, "n must be a positive integer, got 0"),
        (1, 2, "n must be an integer >= 2, got 1"),
        (2.0, 2, "n must be an integer >= 2, got 2.0"),
    ],
)
def test_require_int_wording(value, least, message):
    if message is None:
        require_int(value, "n", least)
    else:
        with pytest.raises(DomainError, match=f"^{message}$"):
            require_int(value, "n", least)


def _int_isinstance_lines(source):
    """Lines of ``isinstance(..., int)`` calls, tuple and union forms included."""

    def names_int(node):
        if isinstance(node, ast.Tuple):
            return any(map(names_int, node.elts))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return names_int(node.left) or names_int(node.right)
        return isinstance(node, ast.Name) and node.id == "int"

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and names_int(node.args[1])
    ]


def test_detector_sees_every_form():
    forms = [
        "isinstance(x, int)",
        "isinstance(x, (str, int))",
        "isinstance(x, str | int)",
    ]
    assert [_int_isinstance_lines(f) for f in forms] == [[1]] * 3
    assert _int_isinstance_lines("isinstance(x, dict)\ntype(x) is int") == []


def test_package_has_no_int_isinstance():
    # isinstance(True, int) holds, so such a check lets bools through
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _int_isinstance_lines(path.read_text("utf-8"))
    ]
    assert not found, found
