"""Pragma parsing, suppression, and the stale-pragma post-check."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.pragmas import parse_pragmas

SCORING = "src/repro/detectors/fixture.py"


def run(source, rules=None):
    found = analyze_source(textwrap.dedent(source), SCORING)
    return [f for f in found if rules is None or f.rule in rules]


def test_end_of_line_pragma_suppresses():
    source = """
    def f(x):
        return x == 0.5  # repro: allow[float-equality] -- exact sentinel by construction
    """
    assert run(source) == []


def test_own_line_pragma_covers_next_code_line():
    source = """
    def f(x):
        # repro: allow[float-equality] -- exact sentinel by construction
        return x == 0.5
    """
    assert run(source) == []


def test_pragma_without_justification_does_not_suppress():
    source = """
    def f(x):
        return x == 0.5  # repro: allow[float-equality]
    """
    found = run(source)
    assert [f.rule for f in found] == ["float-equality"]


def test_pragma_for_other_rule_does_not_suppress():
    source = """
    def f(x):
        return x == 0.5  # repro: allow[arena-dispose] -- wrong rule entirely
    """
    rules = [f.rule for f in run(source)]
    assert "float-equality" in rules
    # ... and the useless pragma itself is reported as stale.
    assert "stale-pragma" in rules


def test_multi_rule_pragma():
    source = """
    def f(x):
        return x == 0.5  # repro: allow[float-equality, contiguous-reduction] -- sentinel; layout pinned upstream
    """
    found = run(source, rules=["float-equality"])
    assert found == []


def test_stale_pragma_reported():
    source = """
    def f(x):
        # repro: allow[float-equality] -- left behind after a refactor
        return x > 0.5
    """
    found = run(source)
    assert [f.rule for f in found] == ["stale-pragma"]
    assert "left behind" in found[0].hint


def test_pragma_for_unknown_rule_is_stale():
    source = """
    def f(x):
        return x > 0.5  # repro: allow[no-such-rule] -- names no rule at all
    """
    found = run(source)
    assert [f.rule for f in found] == ["stale-pragma"]
    assert "no-such-rule" in found[0].message


def test_parse_pragmas_targets():
    source = textwrap.dedent(
        """
        x = 1  # repro: allow[a-rule] -- inline
        # repro: allow[b-rule] -- own line
        y = 2
        """
    )
    pragmas = {next(iter(p.rules)): p for p in parse_pragmas(source)}
    assert pragmas["a-rule"].target_line == pragmas["a-rule"].line
    assert pragmas["b-rule"].target_line == pragmas["b-rule"].line + 1
    assert pragmas["b-rule"].justification == "own line"
