"""Graded dimensions, rational series claims, and growth estimation."""

import math

import pytest
from hypothesis import given

from ncgraded.exactla import F32003, F46337, QQ
from ncgraded.groebner import complete
from ncgraded.hilbert import (ClaimSyntaxError, GradedDims, gk_estimate,
                              hilbert_function, series_coefficients,
                              verify_rational)
from ncgraded.presentation import (FilteredPresentation, builtin,
                                   builtin_names, enveloping, homogenize)

from support import over_field, random_presentations


def dims_of(name, dmax=8):
    return hilbert_function(complete(builtin(name), dmax), dmax)


def test_corpus_dimensions():
    assert list(dims_of("free-2").dims) == [2 ** d for d in range(9)]
    assert list(dims_of("quantum-plane-2").dims) == list(range(1, 10))
    assert list(dims_of("polynomial-3").dims) == [
        math.comb(d + 2, 2) for d in range(9)]
    assert list(dims_of("smith-zhang").dims) == [
        math.comb(d + 3, 3) for d in range(9)]


@pytest.mark.parametrize("name", builtin_names())
def test_dimensions_agree_across_fields(name):
    seen = set()
    for f in (F32003, F46337, QQ):
        p = builtin(name, field=f)
        if isinstance(p, FilteredPresentation):
            p = homogenize(p)
        seen.add(hilbert_function(complete(p, 6), 6).dims)
    assert len(seen) == 1


@given(case=random_presentations(fields=(QQ,)))
def test_prime_dimensions_bound_the_rational_ones(case):
    # the relations have integer coefficients, so the relation matrices of
    # each degree can only lose rank mod p, and A_d only grow
    p, bound = case
    over_q = hilbert_function(complete(p, bound), bound)
    for f in (F32003, F46337):
        over_p = hilbert_function(complete(over_field(p, f), bound), bound)
        through = min(over_p.certified_to, over_q.certified_to)
        assert all(over_p.dims[d] >= over_q.dims[d] for d in range(through + 1))


def test_certified_to_tracks_completion():
    rs = complete(enveloping(builtin("smith-zhang")), 4)
    gd = hilbert_function(rs, 8)
    assert not rs.globally_complete
    assert gd.certified_to == 4
    # no uncertified entries are produced at all
    assert len(gd.dims) == gd.certified_to + 1


def test_dim_accessor_out_of_range():
    gd = GradedDims((1, 2), 1)
    assert gd.dim(-1) == 0 and gd.dim(5) == 0 and gd.dim(1) == 2


# -- rational claims ----------------------------------------------------------

@pytest.mark.parametrize("claim,coeffs", [
    ("1/(1-t)^2", [1, 2, 3, 4, 5]),
    ("(1+t)/(1-t)", [1, 2, 2, 2, 2]),
    ("1/(1-t^2)", [1, 0, 1, 0, 1]),
    ("1/(1-2*t)", [1, 2, 4, 8, 16]),
    ("2", [2, 0, 0, 0, 0]),
    ("1 + t^3", [1, 0, 0, 1, 0]),
    pytest.param("1/(1-t)^256", [math.comb(255 + k, k) for k in range(5)],
                 id="exponent-256"),
    pytest.param("9" * 600 + "*t", [0, 10 ** 600 - 1, 0, 0, 0],
                 id="600-digits"),
])
def test_series_coefficients(claim, coeffs):
    assert series_coefficients(claim, 4) == coeffs


@pytest.mark.parametrize("bad", ["1/(1-t", "t^^2", "", "1/t", "x+1", "1/0",
                                 "t^1000000", "1/(1-t)^3000", "1^1000000",
                                 "t^257", "t^" + "9" * 5000,
                                 "(1-t)^200*(1+t)^100",
                                 "1/((1-t)^200*(1+t)^100)",
                                 pytest.param("9" * 5000, id="5000-digits"),
                                 pytest.param("1/(1-" + "9" * 601 + "*t)",
                                              id="601-digits"),
                                 pytest.param("t^" + "0" * 600 + "2",
                                              id="601-digit-exponent")])
def test_claim_syntax_errors(bad):
    with pytest.raises(ClaimSyntaxError):
        series_coefficients(bad, 4)


def test_verify_rational_accepts_and_refuses():
    gd = dims_of("smith-zhang")
    ok = verify_rational(gd, "1/(1-t)^4")
    assert ok.ok and ok.compared_to == 8 and ok.first_mismatch is None
    bad = verify_rational(gd, "1/(1-t)^3")
    assert not bad.ok and bad.first_mismatch == 1
    assert "4" in bad.detail or "expected" in bad.detail


# -- growth -------------------------------------------------------------------

def test_gk_polynomial_growth_is_exact_on_binomials():
    est = gk_estimate(dims_of("polynomial-2"))
    assert est.value == pytest.approx(2.0, abs=1e-9)
    assert not est.exponential
    est4 = gk_estimate(dims_of("smith-zhang"))
    assert est4.value == pytest.approx(4.0, abs=0.3)


def test_gk_flags_exponential_growth():
    for name in ("free-2", "free-3"):
        est = gk_estimate(dims_of(name))
        assert est.exponential
        assert est.value is None
        assert "ratios" in est.detail


def test_gk_window_override():
    gd = dims_of("polynomial-2")
    est = gk_estimate(gd, window=(2, 6))
    assert est.window == (2, 6)
    assert est.value == pytest.approx(2.0, abs=1e-9)
