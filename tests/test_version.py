"""The package has one version string: ``repro.__version__``."""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_package_version_comes_from_repro_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text("utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
