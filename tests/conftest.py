import random

import pytest

from bnhecke.partitions import clear_caches
from bnhecke.permutations import Permutation

# S_16 regression triple with coset types (3,2,1,1,1), (4,1,1,1,1), (6,2).
# XY16 differs from X16 * Y16 by a swap at positions 7 and 8; the two
# agree in coset type, which is all the regression checks rely on.
X16 = Permutation((7, 8, 2, 9, 6, 5, 12, 13, 4, 1, 15, 16, 14, 11, 10, 3))
Y16 = Permutation((3, 4, 12, 1, 7, 8, 10, 9, 15, 11, 16, 6, 13, 14, 5, 2))
XY16 = Permutation((2, 9, 16, 7, 12, 13, 4, 1, 10, 15, 3, 5, 14, 11, 6, 8))


@pytest.fixture
def fresh_memos():
    """Empty memos before and after the test, so a damaged or spied-on
    build is neither served to it nor left to the tests after it."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def random_perm(rng):
    def sample(m: int) -> Permutation:
        images = list(range(1, m + 1))
        rng.shuffle(images)
        return Permutation(tuple(images))

    return sample
