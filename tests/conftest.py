import itertools

from fractions import Fraction

import pytest

from dpseries import InducedRepParams, oracle


def dominant_window(n, radius):
    """All weakly decreasing integer n-tuples with entries in [-radius, radius]."""
    values = range(radius, -radius - 1, -1)
    return list(itertools.combinations_with_replacement(values, n))


def params_from_sigma_tilde(n, alpha, sigma_tilde):
    """Parameter point with the given shifted parameter."""
    sigma = Fraction(sigma_tilde) - Fraction(n + 1 + alpha, 2)
    return InducedRepParams(n=n, alpha=alpha, sigma=sigma)


@pytest.fixture
def fresh_prefixes():
    """An empty prefix memo before and after the test, so that a patched
    ``oracle._window_points`` is reached whatever ran before, and its
    prefixes are not kept for what runs after."""
    oracle._prefix_memo.clear()
    yield
    oracle._prefix_memo.clear()
