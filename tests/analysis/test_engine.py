"""Engine mechanics: file walking, parse errors, and the rule catalogue."""

import textwrap

import pytest

from repro.analysis import RuleSpec, analyze_paths
from repro.analysis.checkers import CHECKERS, RULES, rule_catalogue
from repro.analysis.engine import iter_python_files

BAD = textwrap.dedent(
    """
    def f(x):
        return x == 0.5
    """
)


def _fixture_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "detectors"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(BAD, encoding="utf-8")
    (pkg / "clean.py").write_text("x = 1\n", encoding="utf-8")
    cache_dir = pkg / "__pycache__"
    cache_dir.mkdir()
    (cache_dir / "skipme.py").write_text("syntax error here(", encoding="utf-8")
    (pkg / "notes.txt").write_text("not python", encoding="utf-8")
    return tmp_path


def test_walker_skips_caches_and_non_python(tmp_path):
    root = _fixture_tree(tmp_path)
    names = [p.name for p in iter_python_files([root])]
    assert names == ["clean.py", "fixture.py"]


def test_walker_deduplicates_overlapping_roots(tmp_path):
    root = _fixture_tree(tmp_path)
    pkg = root / "src" / "repro" / "detectors"
    names = [p.name for p in iter_python_files([root, pkg / "fixture.py"])]
    assert names.count("fixture.py") == 1


def test_parse_errors_reported_and_fail_the_gate(tmp_path):
    root = _fixture_tree(tmp_path)
    broken = root / "src" / "repro" / "detectors" / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    report = analyze_paths([root], root=root)
    assert len(report.parse_errors) == 1
    assert report.parse_errors[0][0] == "src/repro/detectors/broken.py"
    assert report.exit_code == 1


def test_catalogue_maps_every_rule_to_its_checker():
    assert len(RULES) == 12
    # Closed registries leave nothing to overwrite: the rule is gone.
    assert "registry-overwrite" not in RULES
    assert RULES["contiguous-reduction"][0] == "parity"
    assert RULES["arena-dispose"][0] == "lifecycle"
    assert RULES["frozen-reference"][0] == "reference-freeze"
    assert RULES["stale-pragma"][0] == "pragmas"
    for rule_id, (_, spec) in RULES.items():
        assert spec.id == rule_id
    assert all(checker.rules for checker in CHECKERS)


def test_duplicate_rule_id_rejected():
    class Clash:
        name = "clash"
        rules = (RuleSpec("contiguous-reduction", "mine now"),)

    with pytest.raises(ValueError, match="claimed by both"):
        rule_catalogue(CHECKERS + (Clash(),))
