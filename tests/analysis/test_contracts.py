"""Contracts checker: registry overwrites, determinism, memmap modes."""

import textwrap

import pytest

from repro.analysis import analyze_source

PATH = "src/repro/pipeline/fixture.py"
KERNEL = "src/repro/kernels/fixture.py"


def run(source, rel_path=PATH, rule=None):
    found = analyze_source(textwrap.dedent(source), rel_path)
    return [f for f in found if rule is None or f.rule == rule]


@pytest.mark.parametrize(
    "module, register",
    [
        ("repro.parallel.execution", "register_backend"),
        ("repro.scheduling", "register_scheduler"),
    ],
)
def test_registry_overwrite_flagged(module, register):
    bad = f"""
    from {module} import {register}

    {register}("serial", object, overwrite=True)
    """
    found = run(bad, rule="registry-overwrite")
    assert [f.rule for f in found] == ["registry-overwrite"]


def test_registry_without_overwrite_clean():
    good = """
    from repro.parallel.execution import register_backend

    register_backend("mine", object)
    """
    assert run(good, rule="registry-overwrite") == []


def test_global_numpy_rng_flagged():
    bad = """
    import numpy as np

    def f(n):
        return np.random.rand(n)
    """
    found = run(bad, rule="unseeded-random")
    assert [f.rule for f in found] == ["unseeded-random"]
    assert "check_random_state" in found[0].hint


def test_unseeded_default_rng_flagged_seeded_clean():
    bad = "import numpy as np\nrng = np.random.default_rng()\n"
    good = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert len(run(bad, rule="unseeded-random")) == 1
    assert run(good, rule="unseeded-random") == []


def test_clock_reads_flagged_only_in_kernels():
    source = """
    import time

    def f():
        return time.perf_counter()
    """
    assert len(run(source, KERNEL, "unseeded-random")) == 1
    assert run(source, PATH, "unseeded-random") == []


def test_memmap_without_mode_flagged():
    # Bad fixture: the numpy default mode is the *writable* 'r+'.
    bad = """
    import numpy as np

    def attach(path):
        return np.memmap(path, dtype=np.uint8)
    """
    found = run(bad, rule="memmap-mode")
    assert [f.rule for f in found] == ["memmap-mode"]
    assert "mode='r'" in found[0].hint
    # Corrected twin: the same mapping with mode='r' spelled out.
    good = """
    import numpy as np

    def attach(path):
        return np.memmap(path, dtype=np.uint8, mode="r")
    """
    assert run(good, rule="memmap-mode") == []


def test_memmap_writable_mode_flagged():
    for mode in ("r+", "w+", "c"):
        bad = f"""
        import numpy as np

        raw = np.memmap("artifact.bin", np.float64, {mode!r})
        """
        found = run(bad, rule="memmap-mode")
        assert [f.rule for f in found] == ["memmap-mode"], mode
        assert repr(mode) in found[0].message


def test_memmap_runtime_mode_not_flagged():
    # A mode computed at runtime is not statically checkable; the rule
    # must stay silent rather than false-positive.
    source = """
    import numpy as np

    def attach(path, mode):
        return np.memmap(path, dtype=np.uint8, mode=mode)
    """
    assert run(source, rule="memmap-mode") == []


def test_open_memmap_and_np_load_mmap_mode():
    bad = """
    import numpy as np
    from numpy.lib.format import open_memmap

    a = open_memmap("x.npy")
    b = np.load("y.npy", mmap_mode="r+")
    """
    found = run(bad, rule="memmap-mode")
    assert [f.rule for f in found] == ["memmap-mode", "memmap-mode"]
    good = """
    import numpy as np
    from numpy.lib.format import open_memmap

    a = open_memmap("x.npy", mode="r")
    b = np.load("y.npy", mmap_mode="r")
    c = np.load("z.npy")
    """
    assert run(good, rule="memmap-mode") == []


def test_memory_plane_sources_pass_memmap_rule():
    # The memory plane itself must satisfy its own rule.
    from pathlib import Path

    for rel in ("src/repro/memory/arena.py", "src/repro/memory/outofcore.py"):
        source = Path(rel).read_text()
        found = analyze_source(source, rel)
        assert [f for f in found if f.rule == "memmap-mode"] == [], rel
