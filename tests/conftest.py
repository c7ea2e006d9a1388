import itertools

from fractions import Fraction

from dpseries import InducedRepParams


def dominant_window(n, radius):
    """All weakly decreasing integer n-tuples with entries in [-radius, radius]."""
    values = range(radius, -radius - 1, -1)
    return list(itertools.combinations_with_replacement(values, n))


def params_from_sigma_tilde(n, alpha, sigma_tilde):
    """Parameter point with the given shifted parameter."""
    sigma = Fraction(sigma_tilde) - Fraction(n + 1 + alpha, 2)
    return InducedRepParams(n=n, alpha=alpha, sigma=sigma)

