"""One integer rule: every count, bound, twist and box is an int, never a bool.

Each public entry point that takes such an argument (its rows derived
from the signatures) rejects ``True``, ``False``, ``1.5``, ``Fraction(1, 2)``
and ``None`` with a DomainError naming the argument, and the package
decides what an integer is with ``type(x) is int``, never ``isinstance``.
"""

import ast
import inspect
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bundle_arith import cohomology, diophantine, rank2, rank3
from bundle_arith.errors import DomainError, require_int

SRC = Path(__file__).resolve().parents[1] / "src" / "bundle_arith"

MODULES = (cohomology, diophantine, rank2, rank3)
CV = cohomology.ChernVector(2, 3, (1, 2))
V2 = rank2.Rank2BundleClass(0, 0, 0)
G3 = rank3.make_group(3, 0, 24)
W3 = rank3.Rank3BundleClass(3, 0, -4)

# One valid call per public callable that takes an int; each row changes one argument
VALID_CALLS = {
    cohomology.ChernVector: (1, 3, (1,)), cohomology.split_chern_vector: (3, (1, 2)),
    cohomology.euler_characteristic: (CV, 0), cohomology.feasible_c3_lattice: (3, 0, 24),
    diophantine.QuadricSolution: (1, 0, 0, 1, 0), diophantine.param_family1: (1, 1, 0, 1),
    diophantine.param_family2: (2, 2), diophantine.brute_force_solutions: (3, 0, 6),
    diophantine.coverage_check: (3, 0, 6, 2),
    rank2.Rank2BundleClass: (0, 0, 0), rank2.GroupDescriptorA1: (0, 0), rank2.epsilon: (0,),
    rank2.delta: (0, 0), rank2.alpha_extendable: (0, 0), rank2.alpha_balanced_split: (0,),
    rank2.split_rank2: (0, 0), rank2.agreement_sweep: (-4, 2), rank2.tensor_line: (V2, 1),
    rank2.count_classes: (0, 0), rank2.realizable_classes: (-2, 0, 2),
    rank2.generation_closure: (-2, 0, 2, -2, 0, 2),
    rank3.Rank3BundleClass: (3, 0, -4), rank3.GroupDescriptorV0: (3, 0),
    rank3.split_rank3: (0, 0, 0), rank3.is_split_realizable: (3, 0, 0),
    rank3.make_group: (3, 0, 24), rank3.iterate: (G3, W3, 2),
    rank3.smallest_nonsplit_multiple: (G3, W3, 2),
}

# (callable, parameter): the name its error message gives the argument
ALIASES = {
    (rank2.GroupDescriptorA1, "b"): "shift b", (rank2.tensor_line, "k"): "twist k",
    (rank3.iterate, "n"): "iteration count", (rank3.make_group, "scan"): "scan bound",
    (cohomology.feasible_c3_lattice, "scan"): "scan bound",
}

# (callable, parameter): why the parameter has no row
EXEMPT = {
    (rank2.Rank2BundleClass, "alpha"): "a Z/2 value, checked against {0, 1} (None at odd c1)",
    (rank2.ReachedClass, "cost"): "a report field the closure fills in, never an input",
    (rank2.GenerationReport, "searched"): "a report field the closure fills in, never an input",
    (diophantine.Provenance, "params"): "a record of the generator param_family1/2 checked",
}

# Sequences of ints, one row for an element: (callable, parameter) -> {row id: (name, call)}
ELEMENT_ROWS = {
    (cohomology.ChernVector, "c"): {"ChernVector-c": ("c", lambda x: cohomology.ChernVector(1, 3, (x,)))},
    (cohomology.split_chern_vector, "twists"): {
        "split_chern_vector-twists[0]": ("twists[0]", lambda x: cohomology.split_chern_vector(3, (x, 2))),
        "split_chern_vector-twists[1]": ("twists[1]", lambda x: cohomology.split_chern_vector(3, (2, x))),
    },
}


def _int_parameters():
    """(callable, position, parameter, annotation) for each public parameter typed with int."""
    for module in MODULES:
        for obj in map(vars(module).get, module.__all__):
            params = inspect.signature(obj).parameters.values() if callable(obj) else ()
            for i, p in enumerate(params):
                tree = ast.parse(p.annotation, mode="eval")
                if any(isinstance(node, ast.Name) and node.id == "int" for node in ast.walk(tree)):
                    yield obj, i, p.name, p.annotation


def _call(obj, args):
    if inspect.isgenerator(result := obj(*args)):
        list(result)  # a generator checks its arguments when iteration starts


def _derived_rows():
    """Row id -> (name the message starts with, call with the argument under test set to x).

    Each parameter annotated int gets a row from its callable's valid call.
    The id names the parameter unless it is the callable's only int input
    or its scan bound.
    """
    params = list(_int_parameters())
    counts = Counter(obj for obj, *_ in params)
    rows = {}
    for obj, i, param, annotation in params:
        if (obj, param) in ELEMENT_ROWS:
            rows.update(ELEMENT_ROWS[obj, param])
        elif annotation == "int" and obj in VALID_CALLS and (obj, param) not in EXEMPT:
            args = VALID_CALLS[obj]
            bare = counts[obj] == 1 or param == "scan"
            rows[obj.__name__ if bare else f"{obj.__name__}-{param}"] = (
                ALIASES.get((obj, param), param),
                lambda x, obj=obj, args=args, i=i: _call(obj, (*args[:i], x, *args[i + 1:])),
            )
    return rows


ENTRY_POINTS = _derived_rows()


def test_every_int_parameter_has_a_row():
    # a derived row (an int annotation and a valid call), an element row or an exemption;
    covered = {**ELEMENT_ROWS, **EXEMPT}
    params = list(_int_parameters())
    missing = [f"{obj.__name__}.{param}" for obj, _, param, annotation in params
               if (obj, param) not in covered and not (annotation == "int" and obj in VALID_CALLS)]
    assert not missing, missing
    # and no table names a callable or a parameter that is gone
    known = {(obj, param) for obj, _, param, _ in params}
    assert set(VALID_CALLS) <= {obj for obj, _ in known}
    assert set(ALIASES) | set(covered) <= known
    for obj, args in VALID_CALLS.items():  # so each row's error is its bad argument's
        _call(obj, args)


@pytest.mark.parametrize("bad", [True, False, 1.5, Fraction(1, 2), None],
                         ids=["bool", "false", "float", "fraction", "none"])
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
