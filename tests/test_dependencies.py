"""The library runs on the standard library and NumPy alone.

``pyproject.toml`` declares ``dependencies = ["numpy"]``. SciPy is a test
oracle only (``requirements-ci.txt``): no module under ``src/repro``
imports it, and nothing the package does at run time loads it.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _absolute_imports(tree: ast.AST):
    """``(line, top-level name)`` of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_numpy_or_repro():
    files = sorted((SRC / "repro").rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in files
        for line, name in _absolute_imports(ast.parse(path.read_text("utf-8")))
        if name not in ALLOWED
    ]
    assert not offenders, "imports outside stdlib + numpy:\n" + "\n".join(offenders)


def test_fit_and_score_load_no_scipy():
    # A fresh interpreter: the test session itself imports SciPy as an
    # oracle elsewhere. LoOP needs erf; RP's default family is toeplitz.
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import repro, repro.__main__
        from repro import SUOD
        from repro.detectors import HBOS, KNN, LoOP

        X = np.random.default_rng(0).standard_normal((80, 8))
        X[:4] += 6.0
        model = SUOD([LoOP(n_neighbors=10), KNN(n_neighbors=5), HBOS()],
                     random_state=0).fit(X)
        assert model.rp_method == "toeplitz" and model.rp_flags_[0]
        assert model.decision_function(X[:10]).shape == (10,)
        model.close()
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
