"""Minimal graded resolutions: Betti tables, certificates, Koszulity."""

import math

import pytest

from support import dd_composites_vanish, euler_defects

from ncgraded.groebner import complete
from ncgraded.hilbert import hilbert_function
from ncgraded.presentation import builtin, enveloping, parse
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
