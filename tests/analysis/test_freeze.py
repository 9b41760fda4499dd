"""Frozen-reference pin: the hash in the checker matches the tree.

If this test fails you edited ``src/repro/kernels/reference.py``. That
file *defines* bitwise correctness for every vectorized kernel — the
parity gate compares kernels against it with ``np.array_equal``. Revert
the edit, or (if the change is genuinely intended) update
``REFERENCE_SHA256`` in ``repro/analysis/checkers/freeze.py`` and
re-run the ``tests/kernels/`` parity suites to re-establish parity.
"""

import ast
import hashlib
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.checkers.freeze import REFERENCE_PATH, REFERENCE_SHA256

REPO_ROOT = Path(__file__).resolve().parents[2]
REFERENCE_FILE = REPO_ROOT / "src" / REFERENCE_PATH


def test_pin_matches_tree():
    digest = hashlib.sha256(REFERENCE_FILE.read_bytes()).hexdigest()
    assert digest == REFERENCE_SHA256, (
        "reference.py changed; see this test's docstring before "
        "updating the pin"
    )


def test_reference_is_self_contained():
    # The frozen paths (brute force included) inline what they called:
    # NumPy and the standard library only, nothing from the live package.
    tree = ast.parse(REFERENCE_FILE.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "heapq", "types", "numpy"}


def test_checker_passes_on_real_reference():
    report = analyze_paths([REFERENCE_FILE], root=REPO_ROOT / "src")
    assert report.findings == []


def test_checker_fails_on_drift():
    tampered = REFERENCE_FILE.read_bytes() + b"\n# innocent whitespace\n"
    found = analyze_source(tampered.decode("utf-8"), "repro/kernels/reference.py")
    assert [f.rule for f in found] == ["frozen-reference"]
    assert "REFERENCE_SHA256" in found[0].hint


def test_other_files_not_hashed():
    assert analyze_source("x = 1\n", "repro/kernels/trees.py") == []
