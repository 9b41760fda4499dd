"""Lifecycle checker: every arena creation must reach dispose()."""

import textwrap

from repro.analysis import analyze_source

PATH = "src/repro/pipeline/fixture.py"


def run(source):
    found = analyze_source(textwrap.dedent(source), PATH)
    return [f for f in found if f.rule == "arena-dispose"]


def test_never_disposed_flagged():
    bad = """
    from repro.parallel.shm import SharedMemoryArena

    def leak(X):
        arena = SharedMemoryArena()
        return arena.share(X)
    """
    found = run(bad)
    assert [f.rule for f in found] == ["arena-dispose"]
    assert "never" in found[0].message


def test_inline_dispose_still_flagged_as_not_finally():
    bad = """
    from repro.parallel.shm import SharedMemoryArena

    def risky(X):
        arena = SharedMemoryArena()
        handle = arena.share(X)
        arena.dispose()
        return handle
    """
    found = run(bad)
    assert len(found) == 1
    assert "finally" in found[0].message


def test_try_finally_is_clean():
    good = """
    from repro.parallel.shm import SharedMemoryArena

    def safe(X):
        arena = SharedMemoryArena()
        try:
            return arena.share(X)
        finally:
            arena.dispose()
    """
    assert run(good) == []


def test_with_statement_is_clean():
    good = """
    from repro.parallel.shm import SharedMemoryArena

    def safe(X):
        with SharedMemoryArena() as arena:
            return arena.share(X)
    """
    assert run(good) == []


def test_ownership_transfer_shapes_are_clean():
    good = """
    from repro.parallel.shm import SharedMemoryArena

    def make():
        return SharedMemoryArena()

    def attach(ctx):
        arena = ctx.arena = SharedMemoryArena()
        return arena

    def hand_off(runner):
        runner.adopt(SharedMemoryArena())
    """
    assert run(good) == []


def test_bare_expression_arena_flagged():
    bad = """
    from repro.parallel.shm import SharedMemoryArena

    def oops():
        SharedMemoryArena()
    """
    found = run(bad)
    assert len(found) == 1
    assert "dropped" in found[0].message
