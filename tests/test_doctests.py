import doctest
import os

import pytest

import bnhecke._symfunc
import bnhecke.cosets
import bnhecke.group_algebra
import bnhecke.hecke
import bnhecke.partitions
import bnhecke.permutations
import bnhecke.universal


@pytest.mark.parametrize(
    "module",
    [
        bnhecke.partitions,
        bnhecke.permutations,
        bnhecke.cosets,
        bnhecke._symfunc,
        bnhecke.group_algebra,
        bnhecke.hecke,
        bnhecke.universal,
    ],
    ids=lambda m: m.__name__,
)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_examples():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    result = doctest.testfile(readme, module_relative=False)
    assert result.attempted and result.failed == 0
