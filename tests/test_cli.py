"""Tests for the command-line interface and its machine-readable output.

The byte-exact contract is two tables: ``golden_cli.json`` (the ``--json``
output and exit code of at least one call per command) and
``golden_help.json`` (help and usage errors).  The tests written out here
check what a golden file cannot: time limits, ``--out`` files, pipes,
fresh interpreters, repeat runs and the round-trip.  The few that read a
single field of a golden call (``test_add_rank2``, ``test_index_example``
and the like) predate the tables and stay under their names.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bundle_arith
import oracle
from bundle_arith.cli import (
    COMMANDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    CommandResult,
    main,
)
from bundle_arith.diophantine import MAX_PARAM_BOUND, MAX_SCAN_RADIUS
from bundle_arith.rank2 import MAX_SEARCH_EXTENT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


class TestBasicCommands:
    def test_count_rank2_unrealizable(self, capsys):
        code, doc = run_json(capsys, "count-rank2", "1", "1")
        assert code == EXIT_OK
        assert doc["status"] == "ok"
        assert doc["payload"]["count"] == 0

    def test_alpha_split(self, capsys):
        code, doc = run_json(capsys, "alpha", "--split", "2", "-2")
        assert code == EXIT_OK
        assert doc["payload"]["alpha"] == 1

    def test_add_rank2(self, capsys):
        code, doc = run_json(
            capsys, "add-rank2", "--a1", "0", "--v", "0", "-1", "0", "--w", "0", "-4", "1"
        )
        assert code == EXIT_OK
        assert doc["payload"]["sum"] == {"c1": 0, "c2": -5, "alpha": 1}

    def test_horrocks(self, capsys):
        code, doc = run_json(
            capsys, "horrocks", "--v", "-4", "0", "1", "--w", "-4", "0", "1"
        )
        assert code == EXIT_OK
        assert doc["payload"]["sum"] == {"c1": -4, "c2": 0, "alpha": 1}

    def test_tensor(self, capsys):
        code, doc = run_json(capsys, "tensor", "--v", "2", "3", "0", "--k", "1")
        assert code == EXIT_OK
        assert doc["payload"]["class"] == {"c1": 4, "c2": 6, "alpha": 0}

    def test_feasible_dim_bound(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(capsys, "feasible", "1", "3000", "1")
        assert code == EXIT_DOMAIN
        assert "at most 64" in doc["payload"]["error"]
        big = str(10**18)
        code, doc = run_json(capsys, "feasible", "3", "64", big, "-" + big, big)
        assert code == EXIT_OK
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rank", [1, 3])
    def test_feasible_huge_classes_exit_promptly(self, capsys, rank):
        # the power sums are computed once per vector, not once per twist
        start = time.perf_counter()
        code, out = run_cli(capsys, "--json", "feasible", str(rank), "64",
                            *["9" * 4000] * rank)
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_DOMAIN
        doc = json.loads(out)  # exactly one document
        assert doc["status"] == "domain_error"
        assert "digits" in doc["payload"]["error"]

    def test_agree_answers_huge_bounds(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(capsys, "agree", "--c1-min", "-40", "--c2-bound", "1000000")
        assert code == EXIT_OK
        assert doc["payload"]["cases"] == 336000336000084
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--v", "2", "3", "0", "--k", "9" * 4000],
            ["quadric", "param1", "9" * 4000, "1", "1", "1"],
            ["feasible", "1", "3", "9" * 4000],
            ["agree", "--c1-min", "-" + "9" * 3999 + "8", "--c2-bound", "9" * 4000],
        ],
        ids=["tensor", "param1", "feasible", "agree"],
    )
    def test_too_many_digits_is_domain_error(self, capsys, argv):
        # str(int) refuses results past sys.get_int_max_str_digits()
        start = time.perf_counter()
        code, out = run_cli(capsys, "--json", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DOMAIN
        doc = json.loads(out)  # exactly one document, no traceback
        assert doc["status"] == "domain_error"
        assert "digits" in doc["payload"]["error"]


class TestRank3Commands:
    def test_index_example(self, capsys):
        code, doc = run_json(
            capsys, "rank3", "index", "--base", "3", "0", "--class", "3", "0", "-4"
        )
        assert code == EXIT_OK
        assert doc["payload"]["index"] == 3
        assert doc["payload"]["c3_generator"] == 4
        assert doc["payload"]["kernel"] == "Z/3"

    def test_index_infinite(self, capsys):
        code, doc = run_json(
            capsys, "rank3", "index", "--base", "3", "0", "--class", "3", "0", "0"
        )
        assert code == EXIT_OK
        assert doc["payload"]["index"] == "infinite"

    def test_iterate(self, capsys):
        code, doc = run_json(
            capsys, "rank3", "iterate", "--base", "3", "0", "--w", "3", "0", "-4", "--n", "5"
        )
        assert code == EXIT_OK
        assert doc["payload"]["class"]["c3"] == -20

    def test_split_huge_classes_answer_within_a_second(self, capsys):
        # the largest shapes argparse reads: every class has at most 4,299 digits
        h, k, j = 10**4299 - 1, 10**2149 - 1, 10**1433 - 1
        classes = [
            (h, 0, 0),
            (-h, -h, h),
            (2 * k + 1, k * (k + 1), 0),  # roots k + 1, k, 0
            (3 * j, 3 * j * j, j**3),  # the triple root j
        ]
        splittable = []
        for c in classes:
            start = time.perf_counter()
            code, doc = run_json(capsys, "rank3", "split", "--class", *map(str, c))
            assert time.perf_counter() - start < 1.0
            assert code == EXIT_OK
            twists = doc["payload"]["twists"]
            assert doc["payload"]["splittable"] is (twists is not None)
            if twists is not None:
                assert oracle.symmetric3(*twists) == c
            splittable.append(twists is not None)
        assert splittable == [True, False, True, True]

    def test_prime_witness(self, capsys):
        code, doc = run_json(
            capsys, "rank3", "prime-witness", "--base", "3", "0", "--w", "3", "0", "-4"
        )
        assert code == EXIT_OK
        assert doc["payload"] == {"p": 13, "verified": True}

    def test_scan_too_small_is_domain_error(self, capsys):
        # the window only caps the spacing: too small a one is bad input
        code, doc = run_json(
            capsys,
            "rank3", "index", "--base", "2", "0", "--scan", "20",
            "--class", "2", "0", "24",
        )
        assert code == EXIT_DOMAIN
        assert doc["status"] == "domain_error"
        assert doc["payload"]["kind"] == "DomainError"


class TestQuadricCommands:
    def test_param1_cli_order(self, capsys):
        # CLI positional order is u l v w
        code, doc = run_json(capsys, "quadric", "param1", "1", "0", "1", "1")
        assert code == EXIT_OK
        sol = doc["payload"]["solution"]
        assert (sol["x"], sol["y"], sol["z"], sol["a"], sol["b"]) == (2, -1, 2, 3, 0)

    def test_cover(self, capsys):
        code, doc = run_json(
            capsys, "quadric", "cover", "3", "0", "--box", "3", "--param-bound", "5"
        )
        assert code == EXIT_OK
        assert doc["payload"]["all_matched"] is True
        assert doc["payload"]["match_rate"] == "2/2"

    def test_solve_large_box(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(capsys, "quadric", "solve", "3", "0", "--box", "1000000")
        assert code == EXIT_OK
        triples = [(s["x"], s["y"], s["z"]) for s in doc["payload"]["solutions"]]
        assert triples == [(2, 2, -1), (3, 0, 0)]
        assert time.perf_counter() - start < 1.0

    def test_cover_empty_box_is_domain_error(self, capsys):
        # no "0/0 matched" report: the box holds no solution over (100, 100)
        code, doc = run_json(capsys, "quadric", "cover", "100", "100", "--box", "1")
        assert code == EXIT_DOMAIN
        assert "no solution" in doc["payload"]["error"]


# Plain output, which every README example prints, byte for byte;
# report's criteria are the list of dicts that _human_lines numbers
HUMAN = {
    "alpha --split 2 -2": """\
status: ok
alpha = 1
c1 = 0
c2 = -4
note: Delta = (c1^2 - 4 c2)/4 = 4; Delta(Delta - 1)/12 = 1 -> alpha = 1
note: normalized twist b = (x - y)/2 = 2: b = 2 (mod 4) holds
""",
    "report --only alpha-case-table": """\
status: ok
all_passed = True
criteria.0.details = both alpha routes agree with the mod-4 case rule for |b| <= 100
criteria.0.key = alpha-case-table
criteria.0.passed = True
note: PASS alpha-case-table
""",
    "quadric solve 3 0 --box 3": """\
status: ok
a = 3
b = 0
box = 3
solutions.0.a = 3
solutions.0.b = 0
solutions.0.provenance.kind = brute_force
solutions.0.provenance.params = []
solutions.0.x = 2
solutions.0.y = 2
solutions.0.z = -1
solutions.1.a = 3
solutions.1.b = 0
solutions.1.provenance.kind = brute_force
solutions.1.provenance.params = []
solutions.1.x = 3
solutions.1.y = 0
solutions.1.z = 0
note: triples are canonical (sorted descending); pass --raw for permutations
""",
}


class TestOutputContract:
    def test_json_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "--json", "rank3", "index", "--base", "3", "0", "--class", "3", "0", "-4"
        )
        doc = json.loads(out)
        assert set(doc) == {"status", "payload", "notes"}
        parsed = CommandResult(**doc)
        assert parsed.to_json() == out.strip()

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "--json", "quadric", "solve", "4", "1", "--box", "6")
        _, second = run_cli(capsys, "--json", "quadric", "solve", "4", "1", "--box", "6")
        assert first == second

    def test_human_mode_mentions_derivation(self, capsys):
        for line, text in HUMAN.items():
            assert run_cli(capsys, *line.split()) == (EXIT_OK, text), line

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out = run_cli(
            capsys, "--json", "--out", str(target), "count-rank2", "0", "0"
        )
        assert code == EXIT_OK
        assert target.read_text().strip() == out.strip()

    def test_unwritable_out_file_is_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out = run_cli(
            capsys, "--json", "--out", str(target), "count-rank2", "1", "2"
        )
        assert code == EXIT_DOMAIN
        doc = json.loads(out)  # exactly one document on stdout
        assert doc["status"] == "domain_error"
        assert str(target) in doc["payload"]["error"]
        assert not target.exists()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as err:
            main(["alpha"])  # missing required mode flag
        assert err.value.code == EXIT_USAGE

    def test_report_is_idempotent(self, capsys):
        _, first = run_json(capsys, "report", "--only", "alpha-case-table")
        _, second = run_json(capsys, "report", "--only", "alpha-case-table")
        assert first["payload"] == second["payload"]

    @pytest.mark.parametrize("module", ["bundle_arith", "bundle_arith.cli"])
    def test_module_entry_point(self, capsys, module):
        argv = ["--json", "feasible", "2", "3", "1", "2"]
        _, expected = run_cli(capsys, *argv)
        src = str(Path(bundle_arith.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == expected

    def test_reader_closing_pipe_early_is_quiet(self):
        # about 200 kB of output, far more than a pipe buffer holds
        argv = ["feasible", "1", "64", str(10**50)]
        src = str(Path(bundle_arith.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "bundle_arith", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert err == b""


# --json output of the README examples and edge cases, byte for byte
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text("utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_golden_json(capsys, case):
    code, out = run_cli(capsys, "--json", *case["argv"].split())
    assert code == case["exit"]
    assert out == case["stdout"]


def test_goldens_cover_every_command():
    # usage errors (exit 64) are golden_help.json's cases
    argvs = [case["argv"] for case in GOLDEN]
    leaves = [path for path, _, handler, _ in COMMANDS if handler is not None]
    uncovered = [path for path in leaves
                 if not any(tuple(argv.split()[:len(path)]) == path for argv in argvs)]
    assert not uncovered, uncovered
    assert len(set(argvs)) == len(argvs)
    assert {case["exit"] for case in GOLDEN} <= {EXIT_OK, EXIT_DOMAIN}


# Chern classes, twists and quadric coefficients for the fuzz test
FUZZ_VALUES = (0, 5, -5, 100, -100, 10**6, -(10**6), 10**18, -(10**18))
# The size caps; the fuzz test crosses each one
SIZE_CAPS = (MAX_SCAN_RADIUS, MAX_PARAM_BOUND, MAX_SEARCH_EXTENT)


def _fuzz_argv(rng, command):
    """Random argv for one subcommand.

    Box and bound sizes are small three times in four; otherwise they
    are drawn from values around or far past the size caps.
    """

    def vals(k):
        return [str(rng.choice(FUZZ_VALUES)) for _ in range(k)]

    def small(lo, hi):
        return str(rng.randint(lo, hi))

    def size(lo, hi, large):
        return str(rng.choice(large)) if rng.random() < 0.25 else small(lo, hi)

    def rank2_class(c1):
        # the trailing alpha token is right for even c1 only half the time
        return [c1, *vals(1), *rng.choice(([], ["0"], ["1"]))]

    def group():
        # mostly infeasible random bases, plus two feasible ones
        base = rng.choice((vals(2), ["3", "0"], ["0", "0"]))
        scan = rng.choice(([], ["--scan", "0"], ["--scan", "1"]))
        return ["--base", *base, *scan], [*base, *vals(1)]

    if command == "feasible":
        rank = rng.randint(0, 4)
        dim = rng.choice((rng.randint(1, 8), rng.randint(1, 3000), 64, 65))
        return [command, str(rank), str(dim), *vals(max(0, rank + rng.randint(-1, 1)))]
    if command == "count-rank2":
        return [command, *vals(2)]
    if command == "alpha":
        return [command, rng.choice(("--split", "--chern")), *vals(2)]
    if command == "add-rank2":
        c1 = vals(1)[0]
        shift = rng.choice(([], ["--shift", *vals(1)]))
        return [command, "--a1", c1, "--v", *rank2_class(c1), "--w",
                *rank2_class(rng.choice((c1, *vals(1)))), *shift]
    if command == "horrocks":
        c1 = vals(1)[0]
        return [command, "--v", *rank2_class(c1), "--w", *rank2_class(c1)]
    if command == "agree":
        return [command, "--c1-min", size(-12, 2, (-(10**6), 10**6)),
                "--c2-bound", size(-3, 8, (-(10**6), 10**6))]
    if command == "tensor":
        return [command, "--v", *rank2_class(vals(1)[0]), "--k", *vals(1)]
    if command == "generate":
        c1_min = int(size(-4, 2, (-(10**6),)))
        box = ["--c1-min", str(c1_min), "--c1-max", str(c1_min + rng.randint(-1, 3)),
               "--c2-bound", size(-1, 6, (10**6,))]
        search = rng.choice(([], ["--search-c1-min", size(-8, 0, (-(10**6),)),
                                  "--search-c2-bound", size(0, 10, (10**6,))]))
        return [command, *box, *search]
    if command.startswith("rank3 "):
        sub = command.split()[1]
        base, cls = group()
        if sub == "add":
            return ["rank3", sub, *base, "--v", *cls, "--w", *group()[1]]
        if sub == "iterate":
            return ["rank3", sub, *base, "--w", *cls, "--n", *vals(1)]
        if sub == "index":
            return ["rank3", sub, *base, "--class", *cls]
        if sub == "split":
            return ["rank3", sub, "--class", *vals(3)]
        return ["rank3", sub, *base, "--w", *cls]
    sub = command.split()[1]
    if sub == "solve":
        raw = rng.choice(([], ["--raw"]))
        return ["quadric", sub, *vals(2), "--box",
                size(-1, 6, (10**5, 10**5 + 1, 10**6, 10**18)), *raw]
    if sub == "param1":
        return ["quadric", sub, *vals(4)]
    if sub == "param2":
        return ["quadric", sub, *vals(2)]
    return ["quadric", sub, *vals(2), "--box", size(-1, 4, (10**5, 10**6, 10**18)),
            "--param-bound", size(-1, 6, (24, 25, 10**18))]


FUZZ_COMMANDS = (
    "feasible", "count-rank2", "alpha", "add-rank2", "horrocks", "agree",
    "tensor", "generate", "rank3 add", "rank3 iterate", "rank3 index",
    "rank3 split", "rank3 prime-witness", "quadric solve", "quadric param1",
    "quadric param2", "quadric cover",
)


def test_fuzz_commands_are_the_table_leaves():
    # report is left out: its cost is its acceptance budget, not 1 s
    leaves = [" ".join(path) for path, _, handler, _ in COMMANDS if handler is not None]
    assert list(FUZZ_COMMANDS) == [c for c in leaves if c != "report"]


def test_cli_fuzz(capsys):
    # every input answers in bounded time with a documented exit code
    rng = random.Random(3)
    errors = []
    for command in FUZZ_COMMANDS:
        for _ in range(20):
            argv = ["--json", *_fuzz_argv(rng, command)]
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE), argv
            if command == "agree":
                # any non-empty sweep answers, however large
                c1_min, c2_bound = int(argv[3]), int(argv[5])
                valid = c1_min <= 0 and c1_min % 2 == 0 and c2_bound >= 0
                assert (code == EXIT_OK) == valid, argv
            if code != EXIT_USAGE:
                doc = json.loads(out)
                if code == EXIT_DOMAIN:
                    errors.append(doc["payload"]["error"])
            assert elapsed < 1.0, (argv, elapsed)
    for cap in SIZE_CAPS:
        assert any(e.endswith(f"exceeds {cap}") for e in errors), cap


def test_cli_fuzz_large_rank(capsys):
    # rank is uncapped and classes above dim are dropped: large ranks with
    # unit classes answer promptly, or exit 2 on a wrong class count
    rng = random.Random(4)
    draws = []
    for _ in range(12):
        rank = rng.choice((rng.randint(65, 2000), rng.randint(2000, 20000), 20000))
        dim = rng.choice((rng.randint(1, 64), 64))
        count = rank + rng.choice((0, 0, 0, -1, 1))
        draws.append((rank, dim, [rng.choice((-1, 0, 1)) for _ in range(count)]))
    draws.append((20000, 64, [0] * 20000))  # the trivial bundle, feasible
    for rank, dim, classes in draws:
        argv = ["--json", "feasible", str(rank), str(dim), *map(str, classes)]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == (EXIT_OK if len(classes) == rank else EXIT_DOMAIN), (rank, dim)
        assert doc["status"] == ("ok" if code == EXIT_OK else "domain_error")
        assert elapsed < 1.0, (rank, dim, elapsed)
    assert doc["payload"]["feasible"]
