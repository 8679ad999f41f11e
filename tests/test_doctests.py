"""Keep the examples embedded in docstrings true."""

import doctest

import heckealg.cache
import heckealg.hall
import heckealg.hecke
import heckealg.modmat
import heckealg.partitions
import heckealg.subgroups
import pytest


@pytest.mark.parametrize(
    "module",
    [
        heckealg.partitions,
        heckealg.modmat,
        heckealg.subgroups,
        heckealg.hall,
        heckealg.hecke,
        heckealg.cache,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0
