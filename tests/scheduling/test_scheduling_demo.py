"""``examples/scheduling_demo.py`` draws the same pool in every interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import repro

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

_PRINT_POOL = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from scheduling_demo import build_pool; "
    "print('\\n'.join(repr(m) for m in build_pool()))"
)


def _pool_under_hash_seed(seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PRINT_POOL, str(EXAMPLES)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return out.splitlines()


def test_pool_does_not_depend_on_the_string_hash_seed():
    first = _pool_under_hash_seed("1")
    assert len(first) == 100
    assert first == _pool_under_hash_seed("2")
