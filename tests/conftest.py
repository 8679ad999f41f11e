"""Fixtures shared by the test modules."""

import sys

import pytest

from heckealg.subgroups import DEFAULT_BUDGET, _type_census

# each module that binds enumerate_subgroups owns one memo of sweeps: the
# type census, the i_count table and the Hall table
SWEEPING_MODULES = ("heckealg.subgroups", "heckealg.omega", "heckealg.hecke")


@pytest.fixture
def sweeps(monkeypatch):
    """Every subgroup sweep made during the test, from a cold type census.

    Each entry is (module, (p, n, r, order_exp, col_val_min, budget)), with
    col_val_min None read as all zeros and budget None as DEFAULT_BUDGET,
    so that two entries are equal exactly when they sweep the same subgroups.
    """
    real = sys.modules["heckealg.subgroups"].enumerate_subgroups
    made = []

    def recorder(module):
        def sweep(ambient, *, order_exp=None, col_val_min=None, budget=None):
            floors = (0,) * ambient.n if col_val_min is None else tuple(col_val_min)
            cap = DEFAULT_BUDGET if budget is None else budget
            made.append((module, (ambient.p, ambient.n, ambient.r, order_exp, floors, cap)))
            return real(ambient, order_exp=order_exp, col_val_min=col_val_min, budget=budget)

        return sweep

    _type_census.cache_clear()
    for module in SWEEPING_MODULES:
        monkeypatch.setattr(sys.modules[module], "enumerate_subgroups", recorder(module))
    yield made
    _type_census.cache_clear()
