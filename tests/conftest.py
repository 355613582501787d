import sys
from contextlib import contextmanager
from unittest.mock import patch

import pytest

import coxtoric  # noqa: F401  (loads every coxtoric module, linprog too)
from coxtoric import monomials


@contextmanager
def fresh_class_cache():
    """monomials' per-class cache (S(w), the member periods and every
    radical of each class), emptied as in a fresh process and restored on
    exit; a hypothesis test enters it once per example."""
    with patch.dict(monomials._CLASSES, clear=True):
        yield monomials._CLASSES


@pytest.fixture
def class_cache():
    """The per-class cache of fresh_class_cache, empty for one test."""
    with fresh_class_cache() as cache:
        yield cache


@pytest.fixture
def counted_lp_calls(monkeypatch):
    """Route lp_feasible and simplex_nonneg through a counter in every
    coxtoric module that binds them, linprog itself included, and return
    the list of (name, args) of their calls."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "coxtoric":
            continue
        for name in ("lp_feasible", "simplex_nonneg"):
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, _real=real, _name=name):
                    calls.append((_name, args))
                    return _real(*args)
                monkeypatch.setattr(module, name, counted)
    return calls
