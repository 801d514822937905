"""Overlap completion, normal forms, and normal-word counting."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ncgraded.exactla import F32003, QQ, field_from_name
from ncgraded.freealg import FreeElement, deglex_key
from ncgraded.groebner import (ProductEngine, RewriteRule, RewriteSystem,
                               complete, count_avoiding_words, normal_form,
                               normal_word_counts, normal_words)
from ncgraded.presentation import (FilteredPresentation, builtin,
                                   builtin_names, enveloping, homogenize)
from ncgraded.cli import confluence_probe


def test_polynomial_2_single_rule(poly2_rs):
    assert poly2_rs.leads() == [(1, 0)]
    assert poly2_rs.globally_complete


def test_quantum_plane_single_rule(qp_rs):
    assert qp_rs.leads() == [(1, 0)]
    (rule,) = [r for r in qp_rs.rules if r.alive]
    assert rule.tail.terms == {(0, 1): qp_rs.field.from_int(2)}


def test_free_algebra_no_rules():
    rs = complete(builtin("free-2"), 8)
    assert rs.leads() == []
    assert rs.globally_complete


def test_smith_zhang_staircase(sz_rs):
    # generators listed x < z < t < y; all six leads form the full
    # descending staircase, so completion adds nothing
    assert sorted(sz_rs.leads()) == [(1, 0), (2, 0), (2, 1),
                                     (3, 0), (3, 1), (3, 2)]
    assert sz_rs.globally_complete


def test_homogenized_weyl_completes():
    rs = complete(builtin("weyl-homogenized"), 8)
    assert rs.globally_complete
    assert len(rs.leads()) == 5


def test_truncated_completion_is_honest():
    rs = complete(enveloping(builtin("smith-zhang")), 5)
    assert not rs.globally_complete
    assert rs.complete_below == 5
    assert len(rs.leads()) > 6 * 2


def test_normal_form_kills_relations(sz_rs, qp_rs, poly2_rs):
    for rs, name in [(sz_rs, "smith-zhang"), (qp_rs, "quantum-plane-2"),
                     (poly2_rs, "polynomial-2")]:
        for r in builtin(name).relations:
            assert normal_form(rs, r).is_zero()


def test_normal_form_fixes_normal_words(sz_rs):
    for d in range(4):
        for w in normal_words(sz_rs, d):
            e = sz_rs.monomial(w)
            assert normal_form(sz_rs, e) == e


words_qp = st.lists(st.integers(0, 1), max_size=6).map(tuple)


@given(ws=st.lists(words_qp, min_size=1, max_size=4),
       cs=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_normal_form_idempotent_and_multiplicative(qp_rs, ws, cs):
    rs = qp_rs
    f = rs.field
    terms = {}
    for w, c in zip(ws, cs):
        terms[w] = f.add(terms.get(w, f.zero()), f.from_int(c))
    a = FreeElement(f, rs.degrees, {w: c for w, c in terms.items()
                                    if not f.is_zero(c)})
    na = normal_form(rs, a)
    assert normal_form(rs, na) == na
    b = rs.monomial((0, 1))
    assert normal_form(rs, a * b) == normal_form(rs, na * b)


def test_normal_words_well_formed(sz_rs):
    for d in range(6):
        ws = normal_words(sz_rs, d)
        assert len(ws) == len(set(ws))
        assert ws == sorted(ws, key=lambda w: deglex_key(w, sz_rs.degrees))
        for w in ws:
            assert sz_rs.is_normal_word(w)


@pytest.mark.parametrize("name", ["polynomial-3", "quantum-plane-2",
                                  "smith-zhang", "weyl-homogenized"])
def test_counting_matches_enumeration(name):
    rs = complete(builtin(name), 6)
    counts = normal_word_counts(rs, 6)
    assert counts == [len(normal_words(rs, d)) for d in range(7)]
    assert counts == count_avoiding_words(rs.leads(), rs.degrees, 6)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["polynomial-2", "smith-zhang"])
def test_confluence_under_randomized_input(name, seed):
    probe = confluence_probe(builtin(name), 5, seed)
    assert probe["agrees"]


# ---------------------------------------------------------------------------
# the product engine's lead index against the rule scan of `normal_form`

# (name, field, degree bound).  weyl-homogenized completed at degree 2 stops
# below its overlaps, so there the normal forms of longer words depend on
# which rewrite is applied first, and the engine must apply the same one.
ENGINE_SYSTEMS = ([(name, fname, 6) for name in builtin_names()
                   for fname in ("F32003", "Q")]
                  + [("smith-zhang-enveloping", "F32003", 6),
                     ("weyl-homogenized", "F32003", 2),
                     ("weyl-homogenized", "Q", 2)])
ENGINE_IDS = [f"{name}-{fname}-d{dbound}" for name, fname, dbound in ENGINE_SYSTEMS]


@functools.lru_cache(maxsize=None)
def engine_system(name, fname, dbound):
    """Completed system and its engine.  The enveloping system is completed
    at the bimodule workload's degree bound, where it is still truncated."""
    field = {"F32003": F32003, "Q": QQ}[fname]
    if name == "smith-zhang-enveloping":
        p = enveloping(builtin("smith-zhang", field))
    else:
        p = builtin(name, field)
        if isinstance(p, FilteredPresentation):
            p = homogenize(p)
    rs = complete(p, dbound)
    return rs, ProductEngine(rs)


def assert_engine_matches_scan(rs, engine, w):
    got = engine.nf(w)
    want = normal_form(rs, rs.monomial(w)).terms
    assert list(got.items()) == list(want.items()), w


@pytest.mark.parametrize("system", ENGINE_SYSTEMS, ids=ENGINE_IDS)
def test_engine_leads_are_an_antichain(system):
    rs, engine = engine_system(*system)       # the constructor checks
    leads = rs.leads()
    assert len(set(leads)) == len(leads)
    for a in leads:
        for b in leads:
            assert a == b or not any(b[i:i + len(a)] == a
                                     for i in range(len(b)))


def _system_with_leads(leads):
    f = F32003
    rs = RewriteSystem(f, (1, 1), ("x", "y"), 4)
    rs.rules = [RewriteRule(L, FreeElement.zero(f, (1, 1)), len(L))
                for L in leads]
    return rs


@pytest.mark.parametrize("leads", [[(1, 0), (1, 0)], [(1, 0), (0, 1, 0)],
                                   [(1, 1, 0), (1, 1)]])
def test_engine_refuses_leads_that_are_not_an_antichain(leads):
    with pytest.raises(ValueError):
        ProductEngine(_system_with_leads(leads))
    rs = _system_with_leads(leads)
    rs.rules[0].alive = False     # retired rules are not indexed
    ProductEngine(rs)


@pytest.mark.parametrize("system", ENGINE_SYSTEMS, ids=ENGINE_IDS)
def test_engine_nf_matches_rule_scan_to_degree_5(system):
    rs, engine = engine_system(*system)
    assert all(d == 1 for d in rs.degrees)
    for n in range(6):
        for w in itertools.product(range(len(rs.degrees)), repeat=n):
            assert_engine_matches_scan(rs, engine, w)


@settings(max_examples=200)
@given(data=st.data())
def test_engine_nf_matches_rule_scan_on_random_words(data):
    rs, engine = engine_system(*data.draw(st.sampled_from(ENGINE_SYSTEMS)))
    gens = st.integers(0, len(rs.degrees) - 1)
    w = tuple(data.draw(st.lists(gens, max_size=8)))
    assert_engine_matches_scan(rs, engine, w)
