"""Minimal graded resolutions: Betti tables, certificates, Koszulity."""

from unittest import mock

import pytest

from hypothesis import given, strategies as st

from support import (anick_chain_counts, bimodule_resolution,
                     dd_composites_vanish, euler_defects,
                     random_monomial_presentations, random_presentations,
                     stage_columns)

from ncgraded import resolution
from ncgraded.freealg import FreeElement
from ncgraded.groebner import complete
from ncgraded.hilbert import hilbert_function
from ncgraded.presentation import (FilteredPresentation, builtin,
                                   builtin_names, enveloping, homogenize,
                                   opposite, parse)
from ncgraded.resolution import (ResolutionError, betti, chain_counts,
                                 gldim_upto, koszul_check, minimal_resolution,
                                 resolve_cyclic)


def build(name, hbound=5, dbound=8):
    rs = complete(builtin(name), dbound)
    res = minimal_resolution(rs, hbound, dbound)
    return rs, res, betti(res)


def test_polynomial_2_koszul_complex(poly2_rs):
    res = minimal_resolution(poly2_rs, 5, 8)
    tab = betti(res)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    gl = gldim_upto(res)
    assert (gl.value, gl.certified) == (2, True)


def test_quantum_plane_matches_commutative_shape(qp_res):
    tab = betti(qp_res)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_smith_zhang_betti_and_gldim(sz_res):
    tab = betti(sz_res)
    assert [tab.total(i) for i in range(5)] == [1, 4, 6, 4, 1]
    for i in range(5):
        assert {j: n for (ii, j), n in tab.entries.items() if ii == i} == {
            i: tab.total(i)}
    assert len(sz_res.stages[5].gens) == 0
    gl = gldim_upto(sz_res)
    assert gl.value == 4 and gl.certified
    assert all(tab.stage_complete.values())
    assert tab.certified_internal == 8


def test_free_algebra_has_global_dimension_one():
    _, res, tab = build("free-2")
    assert tab.entries == {(0, 0): 1, (1, 1): 2}
    gl = gldim_upto(res)
    assert gl.value == 1 and gl.certified


def test_homogenized_weyl_pdim_three():
    _, res, tab = build("weyl-homogenized")
    assert [tab.total(i) for i in range(4)] == [1, 3, 3, 1]
    gl = gldim_upto(res)
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


def test_betti_of_a_relation_that_reduces_to_zero():
    # y*x - x*y + y*x*y - x*y*y is not homogeneous, but it is 0 in the
    # commutative plane, so the module is A/(x) and the relation is dropped
    rs = complete(builtin("polynomial-2"), 6)
    f = rs.field
    rel = FreeElement(f, rs.degrees, {(1, 0): f.one(), (0, 1): f.from_int(-1),
                                      (1, 0, 1): f.one(),
                                      (0, 1, 1): f.from_int(-1)})
    res = resolve_cyclic(rs, [rs.monomial((0,)), rel], 3, 6)
    assert res.relations == (rs.monomial((0,)),)
    tab = betti(res)
    assert tab.entries == {(0, 0): 1, (1, 1): 1}
    assert tab.stage_complete[1]


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

def augmentation(rs) -> list:
    """The algebra generators, which generate the augmentation ideal."""
    return [rs.monomial((g,)) for g in range(len(rs.degrees))]


def assert_guided_paths_agree(p, hbound, dbound):
    """The opposite side and the diagonal bimodule, each resolved with and
    without the one-sided table, give the same stages column for column.
    Returns the table."""
    tab = betti(minimal_resolution(complete(p, dbound), hbound, dbound))
    rs_o = complete(opposite(p), dbound)
    full = resolve_cyclic(rs_o, augmentation(rs_o), hbound, dbound)
    guided = minimal_resolution(rs_o, hbound, dbound, tab)
    assert stage_columns(guided) == stage_columns(full)
    full, _ = bimodule_resolution(p, hbound, dbound)
    guided, _ = bimodule_resolution(p, hbound, dbound, tab)
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


# -- resolutions guided by the chains ----------------------------------------

def graded(name):
    """A builtin as the CLI resolves it: a filtered one homogenized."""
    p = builtin(name)
    return homogenize(p) if isinstance(p, FilteredPresentation) else p


def kernel_calls(resolve) -> int:
    """The number of kernels `resolve()` builds."""
    with mock.patch.object(resolution, "kernel_basis",
                           wraps=resolution.kernel_basis) as kb:
        resolve()
    return kb.call_count


def assert_chain_guided_matches_full_sieve(p, hbound, dbound):
    """`minimal_resolution` finds the full sieve's stages column for column;
    a system that is not globally complete takes the full sieve itself."""
    rs = complete(p, dbound)
    full = resolve_cyclic(rs, augmentation(rs), hbound, dbound)
    guided = minimal_resolution(rs, hbound, dbound)
    assert stage_columns(guided) == stage_columns(full)
    if not rs.globally_complete:
        assert (kernel_calls(lambda: minimal_resolution(rs, hbound, dbound))
                == kernel_calls(lambda: resolve_cyclic(
                    rs, augmentation(rs), hbound, dbound)))
    return rs


@pytest.mark.parametrize("name", builtin_names())
def test_chain_guided_resolution_matches_full_sieve(name):
    assert_chain_guided_matches_full_sieve(graded(name), 5, 8)


@pytest.mark.parametrize("text", GAP_INPUTS)
def test_chain_guided_resolution_matches_full_sieve_across_a_gap(text):
    rs = assert_chain_guided_matches_full_sieve(parse(text), 4, 7)
    assert rs.globally_complete


@given(case=random_presentations())
def test_chain_guided_resolution_matches_full_sieve_on_random_presentations(
        case):
    p, bound = case
    assert_chain_guided_matches_full_sieve(p, 3, bound)


def test_truncated_system_takes_the_full_sieve():
    # the completion of the braid relation still has overlaps past degree 6
    rs = assert_chain_guided_matches_full_sieve(parse("""
algebra braid over F32003
deg x = 1, y = 1
rel y*x*y - x*y*x
"""), 4, 6)
    assert not rs.globally_complete
    with pytest.raises(ResolutionError, match="truncated"):
        resolution.chain_guide(rs, 4, 6)


def test_chains_skip_the_kernels_of_a_free_algebra():
    # no rules, so no chain past stage 1 and no kernel to build
    rs = complete(builtin("free-3"), 8)
    assert kernel_calls(lambda: minimal_resolution(rs, 5, 8)) == 0
    assert kernel_calls(
        lambda: resolve_cyclic(rs, augmentation(rs), 5, 8)) > 0


def test_chain_guide_with_a_narrower_window_is_refused(poly2_rs):
    guide = resolution.chain_guide(poly2_rs, 3, 6)
    rels = augmentation(poly2_rs)
    for h, d in ((4, 6), (3, 7)):
        with pytest.raises(ResolutionError, match="chain set"):
            resolve_cyclic(poly2_rs, rels, h, d, guide)


# -- chain counts as an oracle -------------------------------------------------

def walk_counts(rs, hbound, dbound) -> dict:
    """{(stage, degree): chains} of the trivial module, stages 1..hbound."""
    levels = chain_counts(rs.leads(), [(g,) for g in range(len(rs.degrees))],
                          rs.degrees, hbound, dbound)
    return {(i, j): n for i in range(1, hbound + 1)
            for j, n in levels[i][0].items()}


def full_betti(rs, hbound, dbound) -> dict:
    """{(stage, degree): beta} of the full sieve, stages 1..hbound."""
    tab = betti(resolve_cyclic(rs, augmentation(rs), hbound, dbound))
    return {k: n for k, n in tab.entries.items() if k[0] >= 1}


def assert_betti_within_chain_counts(rs, hbound, dbound):
    counts = walk_counts(rs, hbound, dbound)
    for k, n in full_betti(rs, hbound, dbound).items():
        assert n <= counts.get(k, 0), k


@pytest.mark.parametrize("name", builtin_names())
def test_betti_numbers_within_chain_counts(name):
    rs = complete(graded(name), 8)
    assert rs.globally_complete
    assert_betti_within_chain_counts(rs, 5, 8)


@given(case=random_presentations())
def test_betti_numbers_within_chain_counts_on_random_presentations(case):
    # the chains of a truncated system miss the leads above its bound
    p, bound = case
    rs = complete(p, bound)
    if rs.globally_complete:
        assert_betti_within_chain_counts(rs, 3, bound)


@given(case=random_monomial_presentations())
def test_chain_counts_are_betti_numbers_of_monomial_algebras(case):
    # Anick's resolution of a monomial algebra is minimal, and the walk
    # counts Anick's chains
    p, bound = case
    rs = complete(p, bound)
    anick = anick_chain_counts(rs.leads(), rs.degrees, 4, bound)
    assert full_betti(rs, 4, bound) == anick
    assert walk_counts(rs, 4, bound) == anick


@given(case=random_monomial_presentations(), levels=st.integers(2, 6))
def test_chain_counts_are_anick_chains(case, levels):
    # no resolution is built, so the walk goes further than above
    p, bound = case
    rs = complete(p, bound)
    assert (walk_counts(rs, levels, bound + 2)
            == anick_chain_counts(rs.leads(), rs.degrees, levels, bound + 2))


def test_chain_counts_bound_a_self_overlapping_lead():
    # over x^3 = 0 the Betti numbers sit in degrees 0, 1, 3, 4, 6, ...: one
    # Anick chain per stage.  The walk leaves out x^2 * x^3 at (3, 5), whose
    # extended head x^4 holds the lead twice
    rs = complete(parse("""
algebra cube over F32003
deg x = 1
rel x^3
"""), 8)
    anick = anick_chain_counts(rs.leads(), rs.degrees, 5, 8)
    assert anick == {(1, 1): 1, (2, 3): 1, (3, 4): 1, (4, 6): 1, (5, 7): 1}
    assert full_betti(rs, 5, 8) == anick
    assert walk_counts(rs, 5, 8) == anick
