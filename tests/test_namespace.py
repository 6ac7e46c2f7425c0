"""The package root holds only its version; public names live in their modules."""

import importlib
import pkgutil
import types

import pytest

import prtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(prtrack.__path__))


def test_package_root_exposes_its_version_and_no_function():
    assert isinstance(prtrack.__version__, str)
    exported = [
        name
        for name, value in vars(prtrack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert exported == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves_in_its_module(name):
    module = importlib.import_module(f"prtrack.{name}")
    assert module.__all__, f"prtrack.{name} lists no public names"
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == []


def test_tracker_lists_its_run_type():
    from prtrack import tracker

    assert "TrackRun" in tracker.__all__
