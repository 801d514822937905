"""Minimal graded resolutions: Betti tables, certificates, Koszulity."""

import math

import pytest

from hypothesis import given

from support import dd_composites_vanish, euler_defects, random_presentations

from ncgraded.duality import diagonal_bimodule_resolution
from ncgraded.groebner import complete
from ncgraded.hilbert import hilbert_function
from ncgraded.presentation import builtin, enveloping, opposite, parse
from ncgraded.resolution import (ResolutionError, betti, gldim_upto,
                                 koszul_check, minimal_resolution,
                                 resolve_cyclic)


def build(name, hbound=5, dbound=8):
    rs = complete(builtin(name), dbound)
    res = minimal_resolution(rs, hbound, dbound)
    return rs, res, betti(res)


def test_polynomial_2_koszul_complex(poly2_rs):
    res = minimal_resolution(poly2_rs, 5, 8)
    tab = betti(res)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    gl = gldim_upto(res, tab)
    assert (gl.value, gl.certified) == (2, True)


def test_quantum_plane_matches_commutative_shape(qp_res):
    tab = betti(qp_res)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_smith_zhang_betti_and_gldim(sz_res):
    tab = betti(sz_res)
    assert [tab.total(i) for i in range(5)] == [1, 4, 6, 4, 1]
    for i in range(5):
        assert tab.graded_dims(i) == {i: tab.total(i)}
    assert len(sz_res.stages[5].gens) == 0
    gl = gldim_upto(sz_res, tab)
    assert gl.value == 4 and gl.certified
    assert all(tab.stage_complete.values())
    assert tab.certified_internal == 8


def test_free_algebra_has_global_dimension_one():
    _, res, tab = build("free-2")
    assert tab.entries == {(0, 0): 1, (1, 1): 2}
    gl = gldim_upto(res, tab)
    assert gl.value == 1 and gl.certified


def test_homogenized_weyl_pdim_three():
    _, res, tab = build("weyl-homogenized")
    assert [tab.total(i) for i in range(4)] == [1, 3, 3, 1]
    gl = gldim_upto(res, tab)
    assert gl.value == 3 and gl.certified


def test_gldim_uncertified_at_window_edge():
    rs = complete(builtin("polynomial-3"), 8)
    res = minimal_resolution(rs, 3, 8)
    gl = gldim_upto(res)
    assert gl.value is None and not gl.certified
    assert "-h" in gl.reason or "bound" in gl.reason


def test_resolution_refuses_uncertified_degrees():
    rs = complete(enveloping(builtin("smith-zhang")), 4)
    with pytest.raises(ResolutionError):
        minimal_resolution(rs, 3, 5)


def test_cyclic_module_resolution(poly2_rs):
    # A/(x1) over the commutative plane is a polynomial ring in x2
    res = resolve_cyclic(poly2_rs, [poly2_rs.monomial((0,))], 4, 8)
    tab = betti(res)
    assert tab.entries == {(0, 0): 1, (1, 1): 1}
    assert res.top_nonzero_stage() == 1


def test_unit_module_relation_is_refused(poly2_rs):
    with pytest.raises(ResolutionError, match="unit module relation"):
        resolve_cyclic(poly2_rs, [poly2_rs.monomial(())], 3, 4)


def test_minimal_resolution_is_resolve_cyclic_of_augmentation(poly2_rs):
    res = minimal_resolution(poly2_rs, 4, 8)
    gens = [poly2_rs.monomial((0,)), poly2_rs.monomial((1,))]
    res2 = resolve_cyclic(poly2_rs, gens, 4, 8)
    assert betti(res).entries == betti(res2).entries


@pytest.mark.parametrize("name", ["polynomial-2", "quantum-plane-2",
                                  "smith-zhang", "weyl-homogenized"])
def test_differentials_compose_to_zero(name):
    _, res, _ = build(name)
    assert dd_composites_vanish(res)


@pytest.mark.parametrize("name", ["free-2", "polynomial-2", "quantum-plane-2",
                                  "smith-zhang", "weyl-homogenized"])
def test_euler_identity_every_degree(name):
    rs, res, tab = build(name)
    dims = hilbert_function(rs, 8)
    assert euler_defects(tab, dims) == []


@given(case=random_presentations())
def test_euler_identity_on_random_presentations(case):
    # generators sit in degree 1, so a stage i > 3 lies in degrees > 3 and
    # the table of a resolution to stage 3 is exact through degree 3
    p, bound = case
    rs = complete(p, bound)
    tab = betti(minimal_resolution(rs, 3, bound))
    dims = hilbert_function(rs, bound)
    assert euler_defects(tab, dims, through=min(3, bound)) == []


# -- Koszul pattern -----------------------------------------------------------

def test_koszul_verdicts_on_corpus(sz_res, sz_rs):
    tab = betti(sz_res)
    ko = koszul_check(sz_res, tab, hilbert_function(sz_rs, 8))
    assert ko.applicable and ko.verdict
    assert ko.diagonal_in_window
    assert ko.identity_to == 5


def test_koszul_fails_on_cubic_relations():
    p = parse("""
algebra cubic over F32003
deg x = 1, y = 1
rel y*x*x - x*x*y
""")
    rs = complete(p, 8)
    res = minimal_resolution(rs, 4, 8)
    tab = betti(res)
    ko = koszul_check(res, tab, hilbert_function(rs, 8))
    assert ko.applicable
    assert ko.verdict is False
    assert ko.diagonal_in_window is False
    # the cubic relation enters the resolution one stage above the generators
    assert (2, 3) in tab.entries


def test_koszul_inapplicable_with_heavy_generators():
    p = parse("""
algebra weighted over F32003
deg x = 1, y = 2
rel y*x - x*y
""")
    rs = complete(p, 8)
    res = minimal_resolution(rs, 4, 8)
    ko = koszul_check(res, betti(res), hilbert_function(rs, 8))
    assert not ko.applicable
    assert ko.verdict is None


def test_stage_bases_and_kernel_bookkeeping(sz_res):
    # stage generators live in the recorded degrees
    for st_ in sz_res.stages[1:5]:
        for g in st_.gens:
            assert g.degree == st_.index


# -- resolutions guided by the one-sided Betti table -------------------------

def stage_columns(res) -> list:
    """Every stage as (degree, column) pairs, a column as the terms dict of
    each of its entries."""
    return [[(g.degree, {k: e.terms for k, e in g.column.items()})
             for g in st_.gens] for st_ in res.stages]


def assert_guided_paths_agree(p, hbound, dbound):
    """The opposite side and the diagonal bimodule, each resolved with and
    without the one-sided table, give the same stages column for column.
    Returns the table."""
    tab = betti(minimal_resolution(complete(p, dbound), hbound, dbound))
    rs_o = complete(opposite(p), dbound)
    full = minimal_resolution(rs_o, hbound, dbound)
    guided = minimal_resolution(rs_o, hbound, dbound, tab)
    assert stage_columns(guided) == stage_columns(full)
    full, _ = diagonal_bimodule_resolution(p, hbound, dbound)
    guided, _ = diagonal_bimodule_resolution(p, hbound, dbound, tab)
    assert stage_columns(guided) == stage_columns(full)
    return tab


@pytest.mark.parametrize("name", ["polynomial-1", "polynomial-2",
                                  "quantum-plane-2", "smith-zhang"])
def test_guided_resolutions_match_full_sieve(name):
    assert_guided_paths_agree(builtin(name), 5, 5)


# beta_2 sits in degrees 2 and 4 only, so the guided sieve skips the kernel
# at degree 3 and must still span K_3 for degree 4 to read
GAP_INPUTS = ["""
algebra gap over F32003
deg x = 1, y = 1
rel y*x - x*y
rel x^4
""", """
algebra gap over Q
deg x = 1, y = 1
rel y*x - 2*x*y
rel y^4
"""]


@pytest.mark.parametrize("text", GAP_INPUTS)
def test_guided_resolutions_match_full_sieve_across_a_gap(text):
    tab = assert_guided_paths_agree(parse(text), 4, 7)
    assert sorted(j for i, j in tab.entries if i == 2) == [2, 4]


@given(case=random_presentations())
def test_guided_resolutions_match_full_sieve_on_random_presentations(case):
    p, bound = case
    assert_guided_paths_agree(p, 3, min(bound, 4))


def test_table_with_a_narrower_window_is_refused(poly2_rs):
    narrow_h = betti(minimal_resolution(poly2_rs, 3, 8))
    with pytest.raises(ResolutionError, match="Betti table"):
        minimal_resolution(poly2_rs, 4, 8, narrow_h)
    narrow_d = betti(minimal_resolution(poly2_rs, 4, 6))
    with pytest.raises(ResolutionError, match="Betti table"):
        minimal_resolution(poly2_rs, 4, 8, narrow_d)
