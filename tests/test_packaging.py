from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_version_is_read_from_the_module():
    # one declaration, which the manifest's artifact_version also reports
    project = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ddpm1d.__version__"}


def test_kernel_source_ships_as_package_data():
    # the kernel is compiled from this file on first use, also after an install
    project = tomllib.loads(PYPROJECT.read_text())
    assert project["tool"]["setuptools"]["package-data"]["ddpm1d"] == ["_kernel.c"]
    assert (PYPROJECT.parent / "src" / "ddpm1d" / "_kernel.c").is_file()
