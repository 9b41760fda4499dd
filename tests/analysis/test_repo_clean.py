"""Whole-repo smoke: the shipped tree carries zero analysis findings."""

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean():
    report = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    locations = [f"{f.location} {f.rule}: {f.message}" for f in report.findings]
    assert report.findings == [], "\n".join(locations)
    assert report.parse_errors == []
    assert report.files_scanned > 90


def test_repo_suppressions_are_all_justified_pragmas():
    # Every deliberate exception in the tree is a pragma with its
    # reason inline: pragmas are the only suppression path.
    report = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert len(report.suppressed) >= 8
