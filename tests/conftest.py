"""Fixtures shared by the test modules."""

import sys

import pytest

from heckealg.subgroups import DEFAULT_BUDGET, _hall_census, _meet_census, _type_census

# every sweep goes through subgroups._sweep into one of these memoised
# tables (j_count's fiber loop aside), and they outlive the contexts that read them
TABLES = (_type_census, _hall_census, _meet_census)


@pytest.fixture
def cold_tables():
    """Forget every memoised sweep before and after the test, as a fresh process would."""
    for table in TABLES:
        table.cache_clear()
    yield
    for table in TABLES:
        table.cache_clear()


@pytest.fixture
def sweeps(monkeypatch, cold_tables):
    """Every subgroup sweep made during the test, from cold tables.

    Each entry is (table, (p, n, r, order_exp, col_val_min, budget)), table
    the name of the function that called subgroups._sweep, with col_val_min
    None read as all zeros and budget None as DEFAULT_BUDGET, so that two
    entries are equal exactly when they sweep the same subgroups.
    """
    subgroups = sys.modules["heckealg.subgroups"]
    real = subgroups.enumerate_subgroups
    made = []

    def sweep(ambient, *, order_exp=None, col_val_min=None, budget=None):
        caller = sys._getframe(1).f_code.co_name
        assert caller == "_sweep", f"{caller} enumerated subgroups outside _sweep"
        floors = (0,) * ambient.n if col_val_min is None else tuple(col_val_min)
        cap = DEFAULT_BUDGET if budget is None else budget
        table = sys._getframe(2).f_code.co_name
        made.append((table, (ambient.p, ambient.n, ambient.r, order_exp, floors, cap)))
        return real(ambient, order_exp=order_exp, col_val_min=col_val_min, budget=budget)

    monkeypatch.setattr(subgroups, "enumerate_subgroups", sweep)
    yield made
