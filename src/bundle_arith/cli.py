"""Command-line interface with deterministic machine-readable output.

Every subcommand prints a single result document: human-readable lines
by default, one JSON document with ``--json``.  Identical invocations
produce byte-identical machine output.  Exit codes: 0 ok, 2 domain
error, 3 consistency error (a computed result contradicting required
structure), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import acceptance, cohomology, diophantine, rank2, rank3
from .errors import DomainError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONSISTENCY = 3
EXIT_USAGE = 64

__all__ = ["CommandResult", "main", "entrypoint"]


@dataclass
class CommandResult:
    """Status, payload, and provenance notes of one CLI invocation."""

    status: str
    payload: dict
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {"status": self.status, "payload": self.payload, "notes": self.notes}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def render_human(self) -> str:
        lines = [f"status: {self.status}"]
        lines.extend(_human_lines(self.payload, ""))
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _human_lines(value, prefix):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _human_lines(value[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, item in enumerate(value):
            yield from _human_lines(item, f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')} = {value}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _LazyParser:
    """A subcommand's parser, built on first use.

    Each ``add_subparsers`` call passes this class as its
    ``parser_class``, so ``add_parser(name, build=..., help=...)`` makes a
    proxy holding ``build``, the function that adds the command's
    arguments.  argparse touches the proxy only when it dispatches to the
    command; usage, help listings and "invalid choice" messages read only
    the names and help strings.  So each call builds the top-level parser
    and then only the parsers on the path of the command it runs.
    """

    def __init__(self, build, **kwargs):
        self._build, self._kwargs, self._parser = build, kwargs, None

    def __getattr__(self, name):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._build(self._parser)
        return getattr(self._parser, name)


def _rank2_payload(cls: rank2.Rank2BundleClass) -> dict:
    return {"c1": cls.c1, "c2": cls.c2, "alpha": cls.alpha}


def _rank3_payload(cls: rank3.Rank3BundleClass) -> dict:
    return {"c1": cls.c1, "c2": cls.c2, "c3": cls.c3, "rho": cls.rho}


def _provenance_payload(prov: diophantine.Provenance) -> dict:
    return {"kind": prov.kind, "params": list(prov.params)}


def _solution_payload(sol: diophantine.QuadricSolution) -> dict:
    return {
        "x": sol.x,
        "y": sol.y,
        "z": sol.z,
        "a": sol.a,
        "b": sol.b,
        "provenance": _provenance_payload(sol.provenance),
    }


def _parse_rank2_tokens(tokens: list[int]) -> rank2.Rank2BundleClass:
    """A class is c1 c2 with a trailing 0/1 alpha token exactly when c1 is even."""
    if len(tokens) == 2:
        c1, c2 = tokens
        if c1 % 2 == 0:
            raise DomainError(
                f"c1 = {c1} is even: a trailing alpha token (0 or 1) is required"
            )
        return rank2.Rank2BundleClass(c1, c2)
    if len(tokens) == 3:
        c1, c2, alpha = tokens
        if c1 % 2:
            raise DomainError(f"c1 = {c1} is odd: no alpha token is allowed")
        return rank2.Rank2BundleClass(c1, c2, alpha)
    raise DomainError(f"a rank-2 class needs 2 or 3 integers, got {len(tokens)}")


def _alpha_note(c1: int, c2: int, alpha: int) -> str:
    d = rank2.delta(c1, c2)
    return (f"Delta = (c1^2 - 4 c2)/4 = {d}; "
            f"Delta(Delta - 1)/12 = {d * (d - 1) // 12} -> alpha = {alpha}")


def _epsilon_note(a1: int) -> str:
    eps = rank2.epsilon(a1)
    return f"epsilon({a1}) = {eps} ({a1} {'=' if eps else '!='} 4 mod 8)"


def _cmd_feasible(args):
    vector = cohomology.ChernVector(args.rank, args.dim, tuple(args.chern))
    feasible = cohomology.is_feasible(vector)
    chis = cohomology._chis(vector.rank, vector.dim, vector.c, range(args.dim + 1))
    n_fact = cohomology._plan(vector.dim)[0]
    notes = [
        "chi at twists 0..dim: " + ", ".join(str(Fraction(x, n_fact)) for x in chis),
        "feasible iff every twisted chi is an integer",
    ]
    payload = {
        "rank": args.rank,
        "dim": args.dim,
        "chern": list(args.chern),
        "feasible": feasible,
    }
    return payload, notes


def _cmd_count_rank2(args):
    count = rank2.count_classes(args.c1, args.c2)
    notes = [f"c1*c2 = {args.c1 * args.c2} is {'even: realizable' if count else 'odd: unrealizable'}"]
    if count:
        notes.append(
            "even c1 carries two classes (alpha = 0, 1); odd c1 carries one"
        )
    return {"c1": args.c1, "c2": args.c2, "count": count}, notes


def _cmd_alpha(args):
    if args.split is not None:
        x, y = args.split
        cls = rank2.split_rank2(x, y)
        if cls.alpha is None:
            raise DomainError(
                f"O({x}) + O({y}) has odd c1 = {x + y}; alpha is not defined"
            )
        notes = [
            _alpha_note(cls.c1, cls.c2, cls.alpha),
            f"normalized twist b = (x - y)/2 = {(x - y) // 2}: "
            f"b = 2 (mod 4) {'holds' if cls.alpha else 'fails'}",
        ]
        return _rank2_payload(cls), notes
    c1, c2 = args.chern
    alpha = rank2.alpha_extendable(c1, c2)
    return {"c1": c1, "c2": c2, "alpha": alpha}, [_alpha_note(c1, c2, alpha)]


def _cmd_add_rank2(args):
    v = _parse_rank2_tokens(args.v)
    w = _parse_rank2_tokens(args.w)
    g = rank2.GroupDescriptorA1(args.a1, args.shift or 0)
    total = rank2.add(g, v, w)
    notes = []
    if args.shift is not None:
        e = g.identity
        notes.append(
            f"shifted identity O({args.a1 - args.shift}) + O({args.shift}) has "
            f"(c2, alpha) = ({e.c2}, {e.alpha})"
        )
    elif args.a1 % 2 == 0:
        notes.append(_epsilon_note(args.a1))
    return {"sum": _rank2_payload(total)}, notes


def _cmd_horrocks(args):
    v = _parse_rank2_tokens(args.v)
    w = _parse_rank2_tokens(args.w)
    total = rank2.horrocks_sum(v, w)
    notes = []
    if v.c1 % 2 == 0:
        n = -v.c1 // 2
        notes.append(
            f"c1 = -2n with n = {n}; n mod 4 = {n % 4} so alpha gains "
            f"{'an extra 1' if rank2.epsilon(v.c1) else 'no correction'}"
        )
    return {"sum": _rank2_payload(total)}, notes


def _cmd_agree(args):
    cases, all_agree, rule = rank2.agreement_sweep(args.c1_min, args.c2_bound)
    n_max = -args.c1_min // 2
    payload = {
        "c1_min": args.c1_min,
        "c2_bound": args.c2_bound,
        "cases": cases,
        "all_agree": all_agree,
        "epsilon_rule_verified": rule,
    }
    notes = [f"epsilon(-2n) = [n = 2 (mod 4)] checked for n = 0..{n_max}"]
    return payload, notes


def _cmd_tensor(args):
    v = _parse_rank2_tokens(args.v)
    out = rank2.tensor_line(v, args.k)
    return {"class": _rank2_payload(out)}, ["alpha is unchanged by twisting"]


def _cmd_generate(args):
    s1min = args.c1_min if args.search_c1_min is None else args.search_c1_min
    s1max = args.c1_max if args.search_c1_max is None else args.search_c1_max
    s2 = args.c2_bound if args.search_c2_bound is None else args.search_c2_bound
    report = rank2.generation_closure(args.c1_min, args.c1_max, args.c2_bound, s1min, s1max, s2)
    payload = {
        "box": {"c1_min": args.c1_min, "c1_max": args.c1_max, "c2_bound": args.c2_bound},
        "search_box": {"c1_min": s1min, "c1_max": s1max, "c2_bound": s2},
        "reached": [
            {
                "class": _rank2_payload(r.cls),
                "cost": r.cost,
                "witness": r.witness,
            }
            for r in report.reached
        ],
        "unreached": [_rank2_payload(c) for c in report.unreached],
        "all_reached": report.all_reached,
        "states_settled": report.searched,
    }
    notes = [
        "witnesses are cheapest expressions in split classes under tensor/horrocks",
        "unreached classes are findings: witnesses may need a larger search box",
    ]
    return payload, notes


def _group_notes(g: rank3.GroupDescriptorV0) -> list[str]:
    return [
        f"kernel of c3 is {g.kernel_kind} "
        f"(base mod 3 = ({g.base_c1 % 3}, {g.base_c2 % 3}))",
        f"feasible c3 lattice over ({g.base_c1}, {g.base_c2}) is "
        f"{g.c3_generator}Z (closed form)",
    ]


def _cmd_rank3_add(args):
    g = rank3.make_group(*args.base, args.scan)
    v = rank3.Rank3BundleClass(*args.v)
    w = rank3.Rank3BundleClass(*args.w)
    total = rank3.add(g, v, w)
    return {"sum": _rank3_payload(total)}, _group_notes(g)


def _cmd_rank3_iterate(args):
    g = rank3.make_group(*args.base, args.scan)
    w = rank3.Rank3BundleClass(*args.w)
    out = rank3.iterate(g, w, args.n)
    return {"class": _rank3_payload(out)}, _group_notes(g)


def _cmd_rank3_index(args):
    g = rank3.make_group(*args.base, args.scan)
    w = rank3.Rank3BundleClass(*args.cls)
    index = rank3.subgroup_index(g, w)
    payload = {
        "index": "infinite" if index == math.inf else index,
        "c3_generator": g.c3_generator,
        "kernel": g.kernel_kind,
    }
    notes = _group_notes(g)
    if index != math.inf:
        k = w.c3 // g.c3_generator
        if g.kernel_kind == rank3.KERNEL_Z3:
            notes.append(
                f"index = |det [[k, r], [0, 3]]| = 3|k| with k = {k}, any r"
            )
        else:
            notes.append(f"index = |k| with k = {k}")
    return payload, notes


def _cmd_rank3_split(args):
    c1, c2, c3 = args.cls
    twists = rank3.is_split_realizable(c1, c2, c3)
    payload = {
        "chern": [c1, c2, c3],
        "splittable": twists is not None,
        "twists": list(twists) if twists is not None else None,
    }
    notes = [
        f"integer roots of t^3 - ({c1}) t^2 + ({c2}) t - ({c3}) "
        + ("found" if twists else "do not exist")
    ]
    return payload, notes


def _cmd_rank3_prime_witness(args):
    g = rank3.make_group(*args.base, args.scan)
    w = rank3.Rank3BundleClass(*args.w)
    p, verified = rank3.prime_witness(g, w)
    notes = _group_notes(g)
    notes.append(
        f"p is the smallest prime > max(3|c1|, 3|c3|) = "
        f"{max(3 * abs(w.c1), 3 * abs(w.c3))}"
    )
    return {"p": p, "verified": verified}, notes


def _cmd_quadric_solve(args):
    sols = diophantine.brute_force_solutions(args.a, args.b, args.box, args.raw)
    payload = {
        "a": args.a,
        "b": args.b,
        "box": args.box,
        "solutions": [_solution_payload(s) for s in sols],
    }
    notes = [
        "triples are canonical (sorted descending); pass --raw for permutations"
        if not args.raw
        else "raw ordered triples, permutation-closed"
    ]
    return payload, notes


def _cmd_quadric_param1(args):
    # positional order u l v w; the solution formulas are stated in (u, v, l, w)
    sol = diophantine.param_family1(args.u, args.v, args.l, args.w)
    return {"solution": _solution_payload(sol)}, [
        "x = w(v^2 + uv - lv), y = wu(l - v), z = wu(u + v), "
        "a = w(u^2 + v^2 + uv - lv), b = wul"
    ]


def _cmd_quadric_param2(args):
    first, second = diophantine.param_family2(args.t, args.l)
    return {
        "solutions": [_solution_payload(first), _solution_payload(second)]
    }, ["identity-type solutions: one triple coordinate is 0"]


def _cmd_quadric_cover(args):
    report = diophantine.coverage_check(args.a, args.b, args.box, args.param_bound)
    payload = {
        "a": args.a,
        "b": args.b,
        "box": args.box,
        "param_bound": args.param_bound,
        "matched": [
            {
                "solution": _solution_payload(sol),
                "generator": _provenance_payload(prov),
            }
            for sol, prov in report.matched
        ],
        "unmatched": [_solution_payload(s) for s in report.unmatched],
        "match_rate": f"{len(report.matched)}/{report.total}",
        "all_matched": report.all_matched,
    }
    notes = ["unmatched solutions are findings, never dropped"]
    return payload, notes


def _cmd_report(args):
    results = [acceptance.run(key) for key in args.only or acceptance.CRITERIA]
    payload = {
        "criteria": [
            {"key": r.key, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    # timings stay out of the document so identical runs stay byte-identical
    notes = [f"{r.status} {r.key}" for r in results]
    return payload, notes


# Shared arguments.  Every argument is an int unless its kwargs give an
# ``action`` or another ``type``.
_RANK2_CLASS = {"nargs": "+", "required": True, "metavar": "INT"}
_RANK3_CLASS = {"nargs": 3, "required": True, "metavar": ("C1", "C2", "C3")}
_GROUP = (("--base", {"nargs": 2, "required": True, "metavar": ("C1", "C2")}),
          ("--scan", {"default": 24}))

# One row per command: its path, its help (the rank3 and quadric subcommands
# are listed without one), its handler (none for the root and the groups) and
# its arguments as (flag, kwargs) pairs in add_argument order.  A list of
# pairs in place of a pair is a required, mutually exclusive group.
COMMANDS = (
    ((), None, None, (
        ("--json", {"action": "store_true", "help": "machine-readable output"}),
        ("--out", {"type": str, "metavar": "FILE", "help": "also write the output to FILE"}),
    )),
    (("feasible",), "integrality test for Chern data", _cmd_feasible,
     (("rank", {}), ("dim", {}), ("chern", {"nargs": "+"}))),
    (("count-rank2",), "number of rank-2 classes on CP^3", _cmd_count_rank2,
     (("c1", {}), ("c2", {}))),
    (("alpha",), "alpha invariant of a rank-2 class", _cmd_alpha, ([
        ("--split", {"nargs": 2, "metavar": ("X", "Y")}),
        ("--chern", {"nargs": 2, "metavar": ("C1", "C2")}),
    ],)),
    (("add-rank2",), "group sum of two rank-2 classes", _cmd_add_rank2, (
        ("--a1", {"required": True}),
        ("--v", _RANK2_CLASS),
        ("--w", _RANK2_CLASS),
        ("--shift", {"metavar": "B"}),
    )),
    (("horrocks",), "Horrocks sum of two rank-2 classes", _cmd_horrocks,
     (("--v", _RANK2_CLASS), ("--w", _RANK2_CLASS))),
    (("agree",), "sweep: Horrocks sum equals the group sum", _cmd_agree,
     (("--c1-min", {"default": -40}), ("--c2-bound", {"default": 10}))),
    (("tensor",), "tensor a rank-2 class by a line bundle", _cmd_tensor,
     (("--v", _RANK2_CLASS), ("--k", {"required": True}))),
    (("generate",), "closure of split classes in a box", _cmd_generate, (
        ("--c1-min", {"required": True}),
        ("--c1-max", {"required": True}),
        ("--c2-bound", {"required": True}),
        ("--search-c1-min", {}),
        ("--search-c1-max", {}),
        ("--search-c2-bound", {}),
    )),
    (("rank3",), "rank-3 groups on CP^5", None, ()),
    (("rank3", "add"), None, _cmd_rank3_add,
     (*_GROUP, ("--v", _RANK3_CLASS), ("--w", _RANK3_CLASS))),
    (("rank3", "iterate"), None, _cmd_rank3_iterate,
     (*_GROUP, ("--w", _RANK3_CLASS), ("--n", {"required": True}))),
    (("rank3", "index"), None, _cmd_rank3_index,
     (*_GROUP, ("--class", {"dest": "cls", **_RANK3_CLASS}))),
    (("rank3", "split"), None, _cmd_rank3_split,
     (("--class", {"dest": "cls", **_RANK3_CLASS}),)),
    (("rank3", "prime-witness"), None, _cmd_rank3_prime_witness,
     (*_GROUP, ("--w", _RANK3_CLASS))),
    (("quadric",), "split elements as quadric points", None, ()),
    (("quadric", "solve"), None, _cmd_quadric_solve,
     (("a", {}), ("b", {}), ("--box", {"default": 6}), ("--raw", {"action": "store_true"}))),
    (("quadric", "param1"), None, _cmd_quadric_param1,
     (("u", {}), ("l", {}), ("v", {}), ("w", {}))),
    (("quadric", "param2"), None, _cmd_quadric_param2, (("t", {}), ("l", {}))),
    (("quadric", "cover"), None, _cmd_quadric_cover,
     (("a", {}), ("b", {}), ("--box", {"default": 6}), ("--param-bound", {"default": 12}))),
    (("report",), "run the acceptance suite", _cmd_report,
     (("--only", {"type": str, "nargs": "+", "choices": sorted(acceptance.CRITERIA),
                  "metavar": "KEY"}),)),
)
_CHILDREN = {path: [row for row in COMMANDS if row[0] and row[0][:-1] == path]
             for path, _, _, _ in COMMANDS}


def _add_arguments(p, arguments):
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(p.add_mutually_exclusive_group(required=True), argument)
        else:
            flag, kwargs = argument
            p.add_argument(flag, **(kwargs if "action" in kwargs else {"type": int, **kwargs}))


def _build(parser, row):
    """Add the arguments of the command in ``row``, then its subcommands' lazy parsers."""
    path, _, handler, arguments = row
    _add_arguments(parser, arguments)
    if handler is not None:
        parser.set_defaults(handler=handler)
    if _CHILDREN[path]:
        sub = parser.add_subparsers(dest="_".join((*path, "command")), required=True,
                                    parser_class=_LazyParser)
        for child in _CHILDREN[path]:
            help_text = child[1]
            sub.add_parser(child[0][-1], build=partial(_build, row=child),
                           **({} if help_text is None else {"help": help_text}))


def build_parser() -> _Parser:
    """The top-level parser; a subcommand's parser is built when it is invoked."""
    parser = _Parser(prog="bundle-arith", description=__doc__)
    _build(parser, COMMANDS[0])
    return parser


def _error(status: str, exc: Exception) -> CommandResult:
    return CommandResult(status, {"error": str(exc), "kind": type(exc).__name__})


def _run(args) -> tuple[CommandResult, int]:
    try:
        payload, notes = args.handler(args)
    except DomainError as exc:
        return _error("domain_error", exc), EXIT_DOMAIN
    failed = args.command == "report" and not payload["all_passed"]
    return CommandResult("ok", payload, notes), EXIT_CONSISTENCY if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    render = CommandResult.to_json if args.json else CommandResult.render_human
    try:
        result, code = _run(args)
        text = render(result)
    except ValueError as exc:  # str(int) past sys.get_int_max_str_digits()
        if "integer string conversion" not in str(exc):
            raise
        msg = f"the result has an integer of over {sys.get_int_max_str_digits()} digits"
        text, code = render(_error("domain_error", DomainError(msg))), EXIT_DOMAIN
    if args.out:
        # write before printing, so a failed write still prints one document
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            msg = f"cannot write --out file {args.out}: {exc.strerror or exc}"
            text, code = render(_error("domain_error", DomainError(msg))), EXIT_DOMAIN
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early; keep the interpreter's exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
