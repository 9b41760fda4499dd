"""Docs stay true to the code: every Markdown file the source cites
exists, and README's Python examples parse and call ``SUOD`` only with
parameters it has."""

import ast
import inspect
import re
from pathlib import Path

from repro import SUOD

REPO_ROOT = Path(__file__).resolve().parents[1]

# A repo-relative path ending in .md, as docstrings and comments cite it.
MD_PATH = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")
# The body of every ```python fence.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _readme_python_blocks():
    text = (REPO_ROOT / "README.md").read_text("utf-8")
    return [
        (text.count("\n", 0, match.start()) + 2, match.group(1))
        for match in PYTHON_BLOCK.finditer(text)
    ]


def test_cited_markdown_files_exist():
    dangling = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {cited}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        for cited in MD_PATH.findall(line)
        if not (REPO_ROOT / cited).is_file()
    ]
    assert dangling == [], "\n".join(dangling)


def test_readme_python_blocks_parse():
    blocks = _readme_python_blocks()
    assert blocks, "README.md has no ```python block"
    for lineno, source in blocks:
        compile(source, f"README.md:{lineno}", "exec")


def test_readme_suod_calls_use_real_parameters():
    params = set(inspect.signature(SUOD.__init__).parameters) - {"self"}
    unknown, n_calls = [], 0
    for lineno, source in _readme_python_blocks():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and _called_name(node) == "SUOD"):
                continue
            n_calls += 1
            unknown += [
                f"README.md:{lineno + node.lineno - 1}: {kw.arg}="
                for kw in node.keywords
                if kw.arg is not None and kw.arg not in params
            ]
    assert n_calls, "README.md shows no SUOD(...) call"
    assert unknown == [], "\n".join(unknown)


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None
