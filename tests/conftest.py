import itertools
from fractions import Fraction

import pytest
from hypothesis import settings

from pelltrib import spectral as sp

# mpmath-heavy cases have slow cold caches; wall-clock deadlines only add noise.
settings.register_profile("pelltrib", deadline=None)
settings.load_profile("pelltrib")


@pytest.fixture(scope="session")
def criterion_05_closed():
    """(k, n, r, eigenvalues_closed(k, n, r, 256)) for each of acceptance
    criterion 05's 1550 cells, k 1..5, n 3..64 and five values of r,
    computed once for the tests that read them."""
    return [(k, n, r, sp.eigenvalues_closed(k, n, r, 256))
            for k, n, r in itertools.product(range(1, 6), range(3, 65), (1, -1, 2, Fraction(-3, 2), 1j))]
