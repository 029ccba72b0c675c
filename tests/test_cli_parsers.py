"""The CLI builds only the parser it dispatches to, and reads as before.

``tests/golden_help.json`` holds the help and usage-error output of every
command, captured with ``COLUMNS=80`` from the parser that built all 20
subcommand parsers up front; the lazy build must match it byte for byte.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundle_arith
from bundle_arith.cli import COMMANDS, EXIT_OK, build_parser, main

HERE = Path(__file__).parent
GOLDEN_HELP = json.loads((HERE / "golden_help.json").read_text("utf-8"))
GOLDEN_CLI = {c["argv"]: c for c in json.loads((HERE / "golden_cli.json").read_text("utf-8"))}


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", GOLDEN_HELP, ids=[case["argv"] for case in GOLDEN_HELP])
def test_golden_help_and_usage(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = _run(case["argv"].split())
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


# One invocation per command path, its first exit-0 golden case:
# 9 top-level commands, 5 rank3, 4 quadric
EVERY_COMMAND = [
    next(argv for argv, case in GOLDEN_CLI.items()
         if case["exit"] == EXIT_OK and tuple(argv.split()[:len(path)]) == path)
    for path, _, handler, _ in COMMANDS if handler is not None
]


@pytest.mark.parametrize("line", EVERY_COMMAND)
def test_each_call_builds_only_its_own_parsers(capsys, record_calls, line):
    built = record_calls(argparse.ArgumentParser, "__init__")
    argv = line.split()
    assert main(["--json", *argv]) == EXIT_OK
    capsys.readouterr()
    # the top-level parser, then one per word of the command path
    assert len(built) == (3 if argv[0] in ("rank3", "quadric") else 2), [kw.get("prog") for _, kw in built]


def test_a_built_parser_parses_again():
    parser = build_parser()
    first = parser.parse_args(["rank3", "split", "--class", "3", "0", "-8"])
    assert parser.parse_args(["rank3", "split", "--class", "3", "0", "-8"]) == first
    assert parser.parse_args(["count-rank2", "1", "1"]).c2 == 1


def test_fresh_interpreter_matches_the_goldens():
    src = str(Path(bundle_arith.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "bundle_arith", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    proc = run("--json", "count-rank2", "1", "1")
    assert (proc.returncode, proc.stdout) == (EXIT_OK, GOLDEN_CLI["count-rank2 1 1"]["stdout"])
    proc = run("--help")
    top_help = next(c for c in GOLDEN_HELP if c["argv"] == "--help")
    assert (proc.returncode, proc.stdout) == (EXIT_OK, top_help["stdout"])
