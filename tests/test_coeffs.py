"""Coefficient-function evaluation and differentiation."""

import numpy as np
import pytest

from cohstab.coeffs import (
    complex_pair,
    const_fn,
    cos_fn,
    poly_fn,
    sin_fn,
    zero_fn,
)


def test_constant_evaluation():
    fn = const_fn(1.5 - 0.5j)
    assert fn(0.0) == 1.5 - 0.5j
    assert fn(3.2) == 1.5 - 0.5j


def test_polynomial_and_trig_evaluation():
    fn = poly_fn(2.0, 2) + cos_fn(0.5, 3.0, 0.1)
    t = 0.7
    assert abs(fn(t) - (2 * t**2 + 0.5 * np.cos(3 * t + 0.1))) < 1e-15


def test_vectorized_evaluation():
    fn = const_fn(1.0) + sin_fn(0.5, 1.0)
    t = np.linspace(0, 2, 11)
    assert np.max(np.abs(fn(t) - (1 + 0.5 * np.sin(t)))) < 1e-15


def test_derivative_closure():
    fn = const_fn(2.0) + poly_fn(1.0, 3) + cos_fn(2.0, 0.5, 0.2)
    d = fn.derivative()
    t = 1.3
    want = 3 * t**2 - 2.0 * 0.5 * np.sin(0.5 * t + 0.2)
    assert abs(d(t) - want) < 1e-14
    dd = d.derivative()  # stays in the family
    want2 = 6 * t - 2.0 * 0.25 * np.cos(0.5 * t + 0.2)
    assert abs(dd(t) - want2) < 1e-14


def test_poly_power_range():
    with pytest.raises(ValueError):
        poly_fn(1.0, 4)
    with pytest.raises(ValueError):
        poly_fn(1.0, 0)


def test_scale_and_complex_pair():
    re = const_fn(1.0)
    im = sin_fn(0.5, 2.0)
    fn = complex_pair(re, im)
    t = 0.9
    assert abs(fn(t) - (1.0 + 0.5j * np.sin(2 * t))) < 1e-15
    assert abs(fn.scale(2.0)(t) - 2 * fn(t)) < 1e-15


def test_structural_zero():
    assert zero_fn().is_structurally_zero()
    assert const_fn(0.0).is_structurally_zero()
    assert not const_fn(1e-30).is_structurally_zero()
    assert zero_fn()(1.7) == 0.0


def test_equality_is_structural():
    assert const_fn(1.0) + sin_fn(0.5, 1.0) == const_fn(1.0) + sin_fn(0.5, 1.0)
    assert const_fn(1.0) != const_fn(2.0)


@pytest.mark.parametrize("fn", [
    const_fn(complex(0.3, -0.0)),                 # imaginary part -0.0
    complex_pair(zero_fn(), const_fn(-0.3)),      # real part -0.0, as f_im = -0.3 alone
    const_fn(complex(-0.0, -0.0)),
    const_fn(-0.3) + const_fn(complex(0.3, -0.0)),
], ids=["imag_minus_zero", "real_minus_zero", "both_minus_zero", "sum"])
def test_array_evaluation_is_bit_exact_with_scalar(fn):
    ts = np.array([0.0, 0.5, 2.0])
    got = np.asarray(fn(ts), dtype=complex)
    want = np.array([complex(fn(t)) for t in ts])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_f_im_alone_has_minus_zero_real_part():
    (term,) = complex_pair(zero_fn(), const_fn(-0.3)).terms
    assert np.signbit(term.value.real)
