"""Facts the README states that have a single source elsewhere.

The README's CLI examples are also the first golden CLI cases and the
examples ``bench/workloads.py`` runs; the caps and the trial bound its
prose names are constants of the package; the times and rates its
design notes quote come from a committed ``BENCH_<n>.json``.  Each copy
is checked against its source, so an edit to one side fails here
instead of drifting.
"""

import ast
import json
import re
import shlex
from pathlib import Path

from bundle_arith import cli, cohomology, diophantine, rank2, rank3

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = {"cohomology": cohomology, "diophantine": diophantine, "rank2": rank2}
# A time or rate: 0.27 ms, 3.3-3.4 us, 574k/s, 65.8k calls a second, +26%
MEASUREMENT = re.compile(r"(?<![\w^])\d(?:[\d.,k-]|\s)*(?:[mnuµ]?s\b|/s\b|%| calls a second)")


def _readme_examples():
    """The argv of each command in the fenced ``sh`` block under "## CLI examples"."""
    section = README.split("\n## CLI examples\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "bundle-arith" for argv in commands if argv)
    return [" ".join(argv[1:]) for argv in commands if argv]


def _bench_examples():
    """The argv strings of ``README_EXAMPLES`` in bench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["README_EXAMPLES"]:
            return [row.elts[0].value for row in node.value.elts]
    raise AssertionError("bench/workloads.py defines no README_EXAMPLES")


def _exit_codes(text):
    """The (code, label) pairs of the "Exit codes:" sentence in ``text``, asides dropped."""
    sentence = " ".join(text.split()).split("Exit codes: ", 1)[1].split(".", 1)[0]
    pairs = re.sub(r" \([^)]*\)", "", sentence).split(", ")
    return [(int(code), label) for code, label in (pair.split(" ", 1) for pair in pairs)]


def _number(text):
    """The value of a README number such as ``64`` or ``10^5``."""
    base, _, exponent = text.partition("^")
    return int(base) ** int(exponent or 1)


def test_cli_examples_have_one_source():
    examples = _readme_examples()
    golden = [case["argv"] for case in json.loads((ROOT / "tests" / "golden_cli.json").read_text())]
    assert len(examples) == 14
    assert examples == golden[:14]
    assert examples == _bench_examples()


def test_caps_in_prose_match_their_constants():
    prose = " ".join(README.split())
    caps = {
        (module, name): _number(value)
        for module, name, value in re.findall(r"`(\w+)\.(MAX_\w+)` = (\d+(?:\^\d+)?)", prose)
    }
    assert caps == {
        ("cohomology", "MAX_DIM"): 64,
        ("rank2", "MAX_SEARCH_EXTENT"): 66,
        ("diophantine", "MAX_SCAN_RADIUS"): 10**5,
        ("diophantine", "MAX_PARAM_BOUND"): 24,
    }
    for (module, name), value in caps.items():
        assert getattr(MODULES[module], name) == value, name
    [cache] = re.findall(r"LRU cache of (\d+\^\d+) classes", prose)
    assert _number(cache) == cohomology._feasible.cache_info().maxsize == 2**15


def test_trial_bound_in_prose_matches_its_constant():
    prose = " ".join(README.split())
    [bound] = re.findall(r"`rank3\._TRIAL_BOUND` = (\d+(?:\^\d+)?)", prose)
    assert _number(bound) == rank3._TRIAL_BOUND == 1000


def test_exit_codes_match_the_cli():
    expected = [(cli.EXIT_OK, "ok"), (cli.EXIT_DOMAIN, "domain error"),
                (cli.EXIT_CONSISTENCY, "consistency error"), (cli.EXIT_USAGE, "usage error")]
    assert _exit_codes(README) == _exit_codes(cli.__doc__) == expected


def test_design_note_figures_name_their_bench_file():
    notes = README.split("\n## Design notes\n", 1)[1].split("\n## ", 1)[0]
    bullets = [" ".join(b.split()) for b in notes.split("\n- ")[1:]]
    measured = [b for b in bullets if MEASUREMENT.search(b)]
    assert measured  # the detector sees the quoted figures
    for bullet in measured:
        files = re.findall(r"BENCH_\d+\.json", bullet)
        assert files and all((ROOT / f).is_file() for f in files), bullet
