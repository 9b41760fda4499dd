"""Concurrency checker: payload mutations vs the result channel."""

import textwrap

from repro.analysis import analyze_source

PATH = "src/repro/parallel/fixture.py"


def run(source, rule=None):
    rules = [rule] if rule else ["shared-state-mutation", "payload-arg-mutation"]
    found = analyze_source(textwrap.dedent(source), PATH)
    return [f for f in found if f.rule in rules]


def test_payload_mutating_module_state_flagged():
    bad = """
    from functools import partial

    RESULTS = {}

    def _fit_one(idx, est):
        RESULTS[idx] = est
        return est

    def dispatch(pool, ests):
        return [pool.submit(partial(_fit_one, i, e)) for i, e in enumerate(ests)]
    """
    found = run(bad, "shared-state-mutation")
    assert [f.rule for f in found] == ["shared-state-mutation"]
    assert "RESULTS" in found[0].message


def test_payload_returning_results_is_clean():
    good = """
    from functools import partial

    def _fit_one(idx, est):
        return idx, est

    def dispatch(pool, ests):
        return [pool.submit(partial(_fit_one, i, e)) for i, e in enumerate(ests)]
    """
    assert run(good) == []


def test_global_statement_in_payload_flagged():
    bad = """
    from functools import partial

    COUNTER = 0

    def _score_one(x):
        global COUNTER
        COUNTER += 1
        return x

    task = partial(_score_one, 1)
    """
    found = run(bad, "shared-state-mutation")
    assert any("global" in f.message for f in found)


def test_payload_arg_mutation_flagged():
    bad = """
    from functools import partial

    def _score_slice(out, sl, scores):
        out[sl] = scores
        return None

    task = partial(_score_slice, None, None, None)
    """
    found = run(bad, "payload-arg-mutation")
    assert [f.rule for f in found] == ["payload-arg-mutation"]
    assert "out" in found[0].message


def test_mutator_method_on_payload_arg_flagged():
    bad = """
    import threading

    def worker(bucket):
        bucket.append(1)

    t = threading.Thread(target=worker)
    """
    found = run(bad, "payload-arg-mutation")
    assert len(found) == 1


def test_local_mutation_inside_payload_is_clean():
    good = """
    from functools import partial

    def _fit_one(n):
        acc = []
        acc.append(n)
        local = {}
        local["x"] = n
        return acc, local

    task = partial(_fit_one, 3)
    """
    assert run(good) == []


def test_non_payload_functions_are_not_checked():
    source = """
    STATE = {}

    def mutate_freely(k, v):
        STATE[k] = v
    """
    assert run(source) == []
