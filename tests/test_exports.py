"""The public surface: every exported name exists, and the packages re-export their modules."""

from __future__ import annotations

import importlib
import pkgutil

import snowsim
import snowsim.analysis
from snowsim.analysis import chains, design


def _modules() -> list[str]:
    return [snowsim.__name__] + [
        info.name for info in pkgutil.walk_packages(snowsim.__path__, f"{snowsim.__name__}.")
    ]


def test_every_exported_name_resolves():
    missing = []
    for name in _modules():
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_analysis_reexports_exactly_its_modules():
    exported = snowsim.analysis.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == set(chains.__all__) | set(design.__all__)
