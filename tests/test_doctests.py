import doctest
import importlib

import pytest


@pytest.mark.parametrize("module", ["chain", "exactalg", "flowdata",
                                    "multicomplex", "simplicial"])
def test_docstring_examples(module):
    result = doctest.testmod(importlib.import_module(f"mbhomology.{module}"))
    assert result.attempted > 0
    assert result.failed == 0
