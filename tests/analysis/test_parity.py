"""Parity checker: each rule fires on its bad fixture, not on the twin."""

import textwrap

from repro.analysis import analyze_source

KERNEL = "src/repro/kernels/fixture.py"
SCORING = "src/repro/detectors/fixture.py"
BOUNDARY = "src/repro/utils/validation.py"
NEUTRAL = "src/repro/bench/fixture.py"


def run(source, rel_path, rule=None):
    found = analyze_source(textwrap.dedent(source), rel_path)
    return [f for f in found if rule is None or f.rule == rule]


# -- contiguous-reduction ---------------------------------------------


def test_einsum_reduction_flagged_everywhere():
    bad = """
    import numpy as np

    def score(a, b):
        weighted = np.einsum("ij,kj->ik", a, b)
        return weighted.var(axis=1)
    """
    found = run(bad, NEUTRAL, "contiguous-reduction")
    assert [f.rule for f in found] == ["contiguous-reduction"]
    assert found[0].severity == "error"
    assert "ascontiguousarray" in found[0].hint


def test_ascontiguousarray_fix_is_clean():
    good = """
    import numpy as np

    def score(a, b):
        weighted = np.einsum("ij,kj->ik", a, b)
        return np.ascontiguousarray(weighted).var(axis=1)
    """
    assert run(good, KERNEL, "contiguous-reduction") == []


def test_transpose_reduction_flagged():
    bad = """
    import numpy as np

    def f(x):
        return x.T.sum(axis=0)
    """
    found = run(bad, NEUTRAL, "contiguous-reduction")
    assert len(found) == 1


def test_order_f_constructor_flagged():
    bad = """
    import numpy as np

    def f(n):
        x = np.zeros((n, n), order="F")
        return np.mean(x, axis=1)
    """
    found = run(bad, NEUTRAL, "contiguous-reduction")
    assert len(found) == 1


def test_kernel_strictness_warns_on_unproven():
    bad = """
    import numpy as np

    def f(x):
        return x.sum(axis=0)
    """
    found = run(bad, KERNEL, "contiguous-reduction")
    assert len(found) == 1
    assert found[0].severity == "warning"
    # The same unproven reduction outside kernels/ is not flagged.
    assert run(bad, NEUTRAL, "contiguous-reduction") == []


def test_kernel_proven_constructions_are_clean():
    good = """
    import numpy as np

    def f(x, idx):
        a = np.zeros((4, 4))
        b = a * 2.0 + 1.0
        c = x[idx]
        d = x.copy()
        return b.sum(axis=0) + c.var(axis=1) + np.mean(d, axis=0)
    """
    assert run(good, KERNEL, "contiguous-reduction") == []


def test_reference_file_is_exempt():
    bad = """
    import numpy as np

    def f(a, b):
        return np.einsum("ij,kj->ik", a, b).var(axis=1)
    """
    assert run(bad, "src/repro/kernels/reference.py", "contiguous-reduction") == []


# -- asarray-order ----------------------------------------------------


def test_boundary_asarray_without_order_flagged():
    bad = """
    import numpy as np

    def check_array(X):
        return np.asarray(X, dtype=float)
    """
    found = run(bad, BOUNDARY, "asarray-order")
    assert [f.rule for f in found] == ["asarray-order"]


def test_boundary_asarray_with_order_c_clean():
    good = """
    import numpy as np

    def check_array(X):
        return np.asarray(X, dtype=float, order="C")
    """
    assert run(good, BOUNDARY, "asarray-order") == []


def test_asarray_rule_only_applies_at_the_boundary():
    source = """
    import numpy as np

    def f(X):
        return np.asarray(X)
    """
    assert run(source, NEUTRAL, "asarray-order") == []


# -- unordered-accumulation -------------------------------------------


def test_sum_over_set_literal_flagged():
    bad = """
    def f():
        return sum({1.5, 2.5, 3.5})
    """
    found = run(bad, NEUTRAL, "unordered-accumulation")
    assert len(found) == 1


def test_sum_over_dict_values_flagged():
    bad = """
    def f(d):
        return sum(d.values())
    """
    assert len(run(bad, NEUTRAL, "unordered-accumulation")) == 1


def test_loop_accumulation_over_set_flagged():
    bad = """
    def f(xs):
        items = set(xs)
        total = 0.0
        for x in items:
            total += x
        return total
    """
    assert len(run(bad, NEUTRAL, "unordered-accumulation")) == 1


def test_sorted_iteration_is_clean():
    good = """
    def f(d, xs):
        items = set(xs)
        total = 0.0
        for x in sorted(items):
            total += x
        return total + sum(sorted(d.values()))
    """
    assert run(good, NEUTRAL, "unordered-accumulation") == []


def test_nested_function_not_double_reported():
    bad = """
    def outer(d):
        def inner():
            return sum(d.values())
        return inner()
    """
    assert len(run(bad, NEUTRAL, "unordered-accumulation")) == 1


# -- float-equality ---------------------------------------------------


def test_float_equality_flagged_in_scoring_paths():
    bad = """
    def f(x):
        return x == 0.5
    """
    found = run(bad, SCORING, "float-equality")
    assert len(found) == 1
    # Outside the scoring paths the rule stays quiet.
    assert run(bad, "src/repro/bench/timing.py", "float-equality") == []


def test_nan_equality_flagged():
    bad = """
    import numpy as np

    def f(x):
        return x == np.nan
    """
    found = run(bad, SCORING, "float-equality")
    assert "isnan" in found[0].message


def test_tolerance_comparison_is_clean():
    good = """
    import numpy as np

    def f(x):
        return np.isclose(x, 0.5) | (x > 1.0)
    """
    assert run(good, SCORING, "float-equality") == []
