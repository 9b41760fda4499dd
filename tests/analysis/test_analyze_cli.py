"""``python -m repro analyze``: exit codes, JSON artifact, one case per rule."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.checkers import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = textwrap.dedent(
    """
    def f(x):
        return x == 0.5
    """
)


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "detectors"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(BAD, encoding="utf-8")
    return tmp_path


def test_analyze_listed_in_cli_index(capsys):
    assert main(["list"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_clean_tree_exits_zero(capsys, bad_tree):
    clean = bad_tree / "src" / "repro" / "detectors" / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    code = main(["analyze", str(clean), "--root", str(bad_tree)])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_nonzero_with_locations(capsys, bad_tree):
    code = main(["analyze", str(bad_tree), "--root", str(bad_tree)])
    assert code == 1
    out = capsys.readouterr().out
    assert "src/repro/detectors/fixture.py:3" in out
    assert "float-equality" in out


def test_json_report_schema(tmp_path, bad_tree):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            str(bad_tree),
            "--root",
            str(bad_tree),
            "--json",
            str(out_path),
        ]
    )
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["files_scanned"] == 1
    assert payload["counts_by_rule"] == {"float-equality": 1}
    finding = payload["findings"][0]
    assert finding["rule"] == "float-equality"
    assert finding["path"] == "src/repro/detectors/fixture.py"
    assert finding["line"] == 3
    assert finding["severity"] == "error"
    assert finding["hint"]


def test_list_rules_catalogue(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.split("\n\n")[0].splitlines()[1:]}
    assert listed == set(RULES)
    assert len(listed) == 13


def test_gate_run_on_real_tree_is_clean(capsys):
    # The exact invocation the CI analyze job performs.
    code = main(
        [
            "analyze",
            str(REPO_ROOT / "src" / "repro"),
            "--root",
            str(REPO_ROOT),
            "--json",
            "-",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []


# rule id -> (path under --root, minimal known-bad source, flagged line)
KNOWN_BAD = {
    "contiguous-reduction": (
        "src/repro/bench/fixture.py",
        "def f(x):\n    return x.T.sum(axis=0)\n",
        2,
    ),
    "asarray-order": (
        "src/repro/utils/validation.py",
        "import numpy as np\n\nX = np.asarray([1.0])\n",
        3,
    ),
    "unordered-accumulation": (
        "src/repro/bench/fixture.py",
        "total = sum({1.5, 2.5})\n",
        1,
    ),
    "float-equality": (
        "src/repro/detectors/fixture.py",
        "def f(x):\n    return x == 0.5\n",
        2,
    ),
    "shared-state-mutation": (
        "src/repro/parallel/fixture.py",
        "from functools import partial\n\nOUT = {}\n\n\n"
        "def one(i):\n    OUT[i] = i\n\n\ntask = partial(one, 1)\n",
        7,
    ),
    "payload-arg-mutation": (
        "src/repro/parallel/fixture.py",
        "from functools import partial\n\n\n"
        "def one(out):\n    out[0] = 1\n\n\ntask = partial(one, None)\n",
        5,
    ),
    "arena-dispose": (
        "src/repro/pipeline/fixture.py",
        "from repro.parallel.shm import SharedMemoryArena\n\n\n"
        "def leak(X):\n    arena = SharedMemoryArena()\n"
        "    return arena.share(X)\n",
        5,
    ),
    "registry-overwrite": (
        "src/repro/pipeline/fixture.py",
        "from repro.parallel import register_backend\n\n"
        'register_backend("x", object, overwrite=True)\n',
        3,
    ),
    "unseeded-random": (
        "src/repro/pipeline/fixture.py",
        "import numpy as np\n\nX = np.random.rand(3)\n",
        3,
    ),
    "memmap-mode": (
        "src/repro/memory/fixture.py",
        'import numpy as np\n\nX = np.memmap("a.bin", dtype=float)\n',
        3,
    ),
    "frozen-reference": ("src/repro/kernels/reference.py", "x = 1\n", 1),
    "redundant-structure": (
        "src/repro/detectors/fixture.py",
        "from repro.neighbors import NearestNeighbors\n\n\n"
        "def fit(self, X):\n    return NearestNeighbors().fit(X)\n",
        5,
    ),
    "stale-pragma": (
        "src/repro/detectors/fixture.py",
        "x = 1  # repro: allow[float-equality] -- sentinel, since removed\n",
        1,
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_rule_fails_the_gate_at_its_location(rule, tmp_path, capsys):
    rel_path, source, line = KNOWN_BAD[rule]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    assert main(["analyze", str(tmp_path), "--root", str(tmp_path)]) == 1
    heads = [
        row.split()
        for row in capsys.readouterr().out.splitlines()
        if row and not row[0].isspace() and not row.startswith("analyze:")
    ]
    assert heads == [[f"{rel_path}:{line}", f"{RULES[rule][1].severity}[{rule}]"]]


def test_parse_error_fails_the_gate(tmp_path, capsys):
    broken = tmp_path / "src" / "repro" / "broken.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("def f(:\n", encoding="utf-8")
    assert main(["analyze", str(tmp_path), "--root", str(tmp_path)]) == 1
    assert "src/repro/broken.py  parse-error:" in capsys.readouterr().out
