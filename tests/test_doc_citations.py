"""Every Markdown file the source cites exists in the repo."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# A repo-relative path ending in .md, as docstrings and comments cite it.
MD_PATH = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")


def test_cited_markdown_files_exist():
    dangling = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {cited}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        for cited in MD_PATH.findall(line)
        if not (REPO_ROOT / cited).is_file()
    ]
    assert dangling == [], "\n".join(dangling)
