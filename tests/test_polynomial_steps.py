"""The Gauss rules and Chebyshev steps of the run path against numpy.polynomial.

The run path does not import numpy.polynomial: the Gauss rules are float
literals and the energy oracle's Chebyshev steps are private helpers that
repeat numpy's arithmetic. numpy.polynomial stays the reference here, and
every comparison is for exact equality, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev, legendre

from dfnflow.energy import (
    _CHEB_FIT,
    _CHEB_NODES,
    _GAUSS3,
    _cheb_roots,
    _cheb_value,
)
from dfnflow.meshing import _GAUSS5


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def test_gauss_rules_are_leggauss():
    for rule, points in ((_GAUSS3, 3), (_GAUSS5, 5)):
        for actual, expected in zip(rule, legendre.leggauss(points), strict=True):
            assert_bits_equal(actual, expected)


def test_cheb_fit_is_the_scaled_chebvander():
    assert_bits_equal(_CHEB_FIT, chebyshev.chebvander(_CHEB_NODES, 3) * [0.25, 0.5, 0.5, 0.5])


# a coefficient is a mantissa in [-1, 1] times a power of ten from 1e-30 to 1e30
coefficient = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-30, 30),
)


@st.composite
def cubics(draw):
    """Four Chebyshev coefficients whose 1e-13 trim leaves degree 0 to 3.

    The terms above the drawn degree are zero or at most 1e-14 of the sum of
    the others in size, so the trim drops them; the leading kept term may
    still be small enough to be trimmed too.
    """
    degree = draw(st.integers(0, 3))
    head = np.array(draw(st.lists(coefficient, min_size=degree + 1, max_size=degree + 1)))
    tail = draw(st.lists(st.floats(-1.0, 1.0), min_size=3 - degree, max_size=3 - degree))
    return np.concatenate([head, 1e-14 * np.abs(head).sum() * np.array(tail)])


points = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=6).map(np.array)


@settings(max_examples=300, deadline=None)
@given(c=cubics())
def test_roots_are_chebroots_of_the_trimmed_series(c):
    tol = 1e-13 * np.abs(c).sum()
    assert_bits_equal(_cheb_roots(c, tol), chebyshev.chebroots(chebyshev.chebtrim(c, tol)))


@settings(max_examples=300, deadline=None)
@given(c=cubics(), x=points)
def test_clenshaw_is_chebval(c, x):
    assert_bits_equal(_cheb_value(x, c), chebyshev.chebval(x, c))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(cubics(), min_size=0, max_size=5))
def test_batched_end_values_are_chebval_at_both_ends(rows):
    coeffs = np.array(rows).reshape(-1, 4)
    expected = chebyshev.chebval([-1.0, 1.0], coeffs.T).T
    assert_bits_equal(_cheb_value(np.array([[-1.0], [1.0]]), coeffs.T), expected)

