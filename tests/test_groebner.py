"""Overlap completion, normal forms, and normal-word counting."""

import functools
import inspect
import itertools
import random
import signal
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ncgraded import groebner
from ncgraded.exactla import F32003, QQ, reduce_vector
from ncgraded.freealg import FreeElement, deglex_key, word_degree
from ncgraded.duality import diagonal_bimodule_resolution, hochschild_ext
from ncgraded.groebner import (EnvelopingSystem, RewriteSystem, complete,
                               find_subword, normal_form)
from ncgraded.hilbert import hilbert_function
from ncgraded.presentation import (FilteredPresentation, builtin,
                                   builtin_names, enveloping, homogenize,
                                   opposite, parse)
from ncgraded.cli import confluence_probe

from support import (REDUNDANT_GENERATORS, REDUNDANT_IDS,
                     dual_composites_vanish, freeelement_spoly, is_normal_word,
                     random_monomial_presentations, random_presentations,
                     rule_scan_normal_form)


def test_polynomial_2_single_rule(poly2_rs):
    assert poly2_rs.leads() == [(1, 0)]
    assert poly2_rs.globally_complete


def test_quantum_plane_single_rule(qp_rs):
    assert qp_rs.rules == {(1, 0): {(0, 1): qp_rs.field.from_int(2)}}


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


def test_a_relation_above_the_bound_is_skipped():
    # the cubic relation lies above bound 2 and is skipped: no rule, and
    # the system is certified through degree 2 only
    rs = complete(parse("algebra c over F32003\ndeg x = 1, y = 1\n"
                        "rel y*x*x - x*x*y\n"), 2)
    assert rs.rules == {}
    assert rs.complete_below == 2
    assert rs.globally_complete is False


def test_normal_form_kills_relations(sz_rs, qp_rs, poly2_rs):
    for rs, name in [(sz_rs, "smith-zhang"), (qp_rs, "quantum-plane-2"),
                     (poly2_rs, "polynomial-2")]:
        for r in builtin(name).relations:
            assert normal_form(rs, r).is_zero()


def test_normal_form_fixes_normal_words(sz_rs):
    for d in range(4):
        for w in sz_rs.normal_words(d):
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
        ws = sz_rs.normal_words(d)
        assert len(ws) == len(set(ws))
        assert ws == sorted(ws, key=lambda w: deglex_key(w, sz_rs.degrees))
        for w in ws:
            assert is_normal_word(sz_rs, w)


def assert_lists_and_counts_the_lead_free_words(rs, bound):
    """For d up to bound, `normal_words(d)` is the words of degree d that
    contain no lead, in tuple order, found by testing every word
    (every generator has degree 1), and `dim(d)` is their number."""
    assert set(rs.degrees) == {1}
    for d in range(bound + 1):
        words = [w for w in itertools.product(range(len(rs.degrees)), repeat=d)
                 if is_normal_word(rs, w)]
        assert rs.normal_words(d) == words
        assert rs.dim(d) == len(words)


@pytest.mark.parametrize("name", ["polynomial-3", "quantum-plane-2",
                                  "smith-zhang", "weyl-homogenized"])
def test_counting_matches_enumeration(name):
    assert_lists_and_counts_the_lead_free_words(complete(builtin(name), 6), 6)


@settings(max_examples=100)
@given(case=st.one_of(random_presentations(),
                      random_monomial_presentations()))
def test_automaton_lists_and_counts_the_lead_free_words(case):
    p, bound = case
    rs = complete(p, bound)
    rs.dim(bound)   # one counting pass; the lower degrees are read from it
    assert rs.dim(-1) == 0 and rs.normal_words(-1) == []
    assert_lists_and_counts_the_lead_free_words(rs, bound)


def test_free_normal_words_with_unit_degrees():
    rs = RewriteSystem(F32003, (1, 1), ("x", "y"), 6)
    for d in range(6):
        ws = rs.normal_words(d)
        assert len(ws) == rs.dim(d) == 2 ** d
        assert len(set(ws)) == len(ws)
        assert ws == sorted(ws, key=lambda w: deglex_key(w, (1, 1)))


def test_free_normal_words_with_mixed_degrees():
    # letters of degree 1 and 2: counts obey a(d) = a(d-1) + a(d-2)
    rs = RewriteSystem(F32003, (1, 2), ("x", "y"), 8)
    counts = [rs.dim(d) for d in range(8)]
    assert counts == [len(rs.normal_words(d)) for d in range(8)]
    assert counts[:2] == [1, 1]
    for d in range(2, 8):
        assert counts[d] == counts[d - 1] + counts[d - 2]


def test_a_new_rule_rebuilds_the_automaton():
    rs = RewriteSystem(F32003, (1, 1), ("x", "y"), 4)
    assert [rs.dim(d) for d in range(4)] == [1, 2, 4, 8]
    assert rs.normal_words(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    rs.add_rule((1, 0), {(0, 1): 1})
    assert [rs.dim(d) for d in range(4)] == [1, 2, 3, 4]
    assert rs.normal_words(2) == [(0, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["polynomial-2", "smith-zhang"])
def test_confluence_under_randomized_input(name, seed):
    # the system is completed above the probe bound, so the probe reads its
    # leads and dimensions through the bound only
    p = builtin(name)
    probe = confluence_probe(p, complete(p, 7), 5, seed)
    assert probe["agrees"]


def test_confluence_probe_reads_a_truncated_system_through_its_bound():
    # 11 of the 21 leads of this system lie above the probe bound
    p = parse("algebra cyclic over F32003\ndeg x = 1, y = 1, z = 1\n"
              "rel x*y - y*x - z*z\nrel y*z - z*y - x*x\n"
              "rel z*x - x*z - y*y\n")
    rs = complete(p, 9)
    assert len(rs.leads()) == 21 and not rs.globally_complete
    assert confluence_probe(p, rs, 5, 0)["agrees"]


@settings(max_examples=40)
@given(case=random_presentations())
def test_completion_through_a_degree_does_not_depend_on_the_bound(case):
    # the seed probe compares a completion at its bound with the leads and
    # dimensions through that bound of a completion at a higher one
    p, bound = case
    low, high = complete(p, bound), complete(p, bound + 2)
    assert sorted(low.leads()) == sorted(
        w for w in high.leads() if word_degree(w, high.degrees) <= bound)
    assert (hilbert_function(low, bound).dims
            == hilbert_function(high, bound).dims)


# ---------------------------------------------------------------------------
# `nf` against the rule scan

# (name, field, degree bound).  weyl-homogenized completed at degree 2 stops
# below its overlaps, so there the normal forms of longer words depend on
# which rewrite is applied first.  The cyclic algebra is not globally
# complete at any bound; at 8 its completion processes 83 pairs.
SYSTEMS = ([(name, fname, 6) for name in builtin_names()
            for fname in ("F32003", "Q")]
           + [("smith-zhang-enveloping", "F32003", 6),
              ("weyl-homogenized", "F32003", 2),
              ("weyl-homogenized", "Q", 2),
              ("cyclic", "F32003", 8)])
SYSTEM_IDS = [f"{name}-{fname}-d{dbound}" for name, fname, dbound in SYSTEMS]

CYCLIC = """
algebra cyclic over F32003
deg x = 1, y = 1, z = 1
rel x*y - y*x - z*z
rel y*z - z*y - x*x
rel z*x - x*z - y*y
"""


def system_presentation(name, fname):
    field = {"F32003": F32003, "Q": QQ}[fname]
    if name == "smith-zhang-enveloping":
        return enveloping(builtin("smith-zhang", field))
    if name == "cyclic":
        return parse(CYCLIC)
    p = builtin(name, field)
    return homogenize(p) if isinstance(p, FilteredPresentation) else p


@functools.lru_cache(maxsize=None)
def completed_system(name, fname, dbound):
    """The enveloping system is completed at the bimodule workload's degree
    bound, where it is still truncated."""
    return complete(system_presentation(name, fname), dbound)


def rule_scan_reduce(rs, terms):
    """`groebner._reduce` by the rule scan."""
    elem = FreeElement(rs.field, rs.degrees, terms)
    return rule_scan_normal_form(rs, elem).terms


def rule_scan_completion(p, dbound):
    """Completion whose normal forms scan the rules."""
    with mock.patch.object(groebner, "_reduce", rule_scan_reduce):
        return complete(p, dbound)


def assert_nf_matches_scan(rs, w):
    """Where the system is confluent, `nf` lists the rule scan's terms in
    the scan's order.  Above `complete_below` of a truncated system a
    word's normal form depends on the order of the rewrites, and `nf`'s is
    irreducible."""
    got = rs.nf(w)
    if rs.globally_complete or word_degree(w, rs.degrees) <= rs.complete_below:
        want = rule_scan_normal_form(rs, rs.monomial(w)).terms
        assert list(got.items()) == list(want.items()), w
    else:
        assert all(is_normal_word(rs, u) for u in got), w


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_engine_leads_are_an_antichain(system):
    rs = completed_system(*system)
    RewriteSystem(rs.field, rs.degrees, rs.names, rs.degree_bound,
                  rules=rs.rules)                 # the constructor checks
    leads = rs.leads()
    assert len(set(leads)) == len(leads)
    for a in leads:
        for b in leads:
            assert a == b or not any(b[i:i + len(a)] == a
                                     for i in range(len(b)))


def assert_same_completion(rs, ref):
    """The same rules, tails in the same order, statistics and
    certificate.  The order in which the rules were added may differ: while
    a degree is open the rules are not confluent there, and two reductions
    may retire and requeue in another order."""
    def rules(rs):
        return sorted((lead, list(tail.items()))
                      for lead, tail in rs.rules.items())

    assert rules(rs) == rules(ref)
    assert rs.stats == ref.stats
    assert (rs.complete_below, rs.globally_complete) == \
        (ref.complete_below, ref.globally_complete)


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_completion_writes_the_rules_of_the_rule_scan(system):
    ref = rule_scan_completion(system_presentation(*system[:2]), system[2])
    assert_same_completion(completed_system(*system), ref)


def _system_with_leads(leads):
    return RewriteSystem(F32003, (1, 1), ("x", "y"), 4,
                         rules={L: {} for L in leads})


# a lead at the end, inside and at the start of a longer one
@pytest.mark.parametrize("leads", [[(0, 1), (1, 0, 1)], [(1, 0), (0, 1, 0)],
                                   [(1, 1, 0), (1, 1)]])
def test_engine_refuses_leads_that_are_not_an_antichain(leads):
    with pytest.raises(ValueError):
        _system_with_leads(leads)


def test_add_rule_and_retire_update_the_index():
    f = F32003
    rs = _system_with_leads([(1, 0)])
    assert rs.nf((1, 1, 0)) == {}
    assert rs.nf((1, 1, 1)) == {(1, 1, 1): f.one()}
    words = rs.normal_words(3)
    assert words == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert rs.normal_words(3) is words      # listed once, then memoized
    rs.add_rule((1, 1, 1), {(0, 0, 0): f.one()})
    assert rs.nf((1, 1, 1)) == {(0, 0, 0): f.one()}
    assert rs.nf((0, 1, 1, 1)) == {(0, 0, 0, 0): f.one()}
    assert rs.normal_words(3) == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
    assert rs.retire((1, 0)) == {}
    assert rs.rules == {(1, 1, 1): {(0, 0, 0): f.one()}}
    assert rs.nf((1, 1, 0)) == {(1, 1, 0): f.one()}
    assert rs.leads() == [(1, 1, 1)]
    # every word but the lead (1, 1, 1), the last in tuple order
    words = list(itertools.product((0, 1), repeat=3))
    assert rs.normal_words(3) == words[:-1]


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_engine_nf_matches_rule_scan_to_degree_5(system):
    rs = completed_system(*system)
    assert all(d == 1 for d in rs.degrees)
    for n in range(6):
        for w in itertools.product(range(len(rs.degrees)), repeat=n):
            assert_nf_matches_scan(rs, w)


@settings(max_examples=200)
@given(data=st.data())
def test_engine_nf_matches_rule_scan_on_random_words(data):
    rs = completed_system(*data.draw(st.sampled_from(SYSTEMS)))
    gens = st.integers(0, len(rs.degrees) - 1)
    w = tuple(data.draw(st.lists(gens, max_size=8)))
    assert_nf_matches_scan(rs, w)


@settings(max_examples=100)
@given(data=st.data())
def test_rule_changes_read_as_a_fresh_system(data):
    """After each of a random sequence of `add_rule` and `retire`, whose
    leads stay an antichain, the system's normal forms, normal words,
    counts and tables are those of a system built fresh from its rules.
    They are read after every change, so each change must clear what the
    last reads filled."""
    f = F32003
    rs = RewriteSystem(f, (1, 1), ("x", "y"), 4)
    leads = [w for n in (1, 2, 3) for w in itertools.product((0, 1), repeat=n)]
    words = [w for n in range(5) for w in itertools.product((0, 1), repeat=n)]

    def reads(rs):
        return ([rs.nf(w) for w in words],
                [rs.normal_words(d) for d in range(5)],
                [rs.dim(d) for d in range(5)],
                [rs.table((g,), d) for g in (0, 1) for d in range(4)])

    for _ in range(data.draw(st.integers(1, 8))):
        if rs.rules and data.draw(st.booleans()):
            rs.retire(data.draw(st.sampled_from(list(rs.rules))))
        else:
            free = [L for L in leads if not any(
                find_subword(L, M) >= 0 or find_subword(M, L) >= 0
                for M in rs.rules)]
            if not free:
                continue
            lead = data.draw(st.sampled_from(free))
            smaller = [w for w in itertools.product((0, 1), repeat=len(lead))
                       if w < lead]
            tail = (data.draw(st.dictionaries(st.sampled_from(smaller),
                                              st.integers(1, 3), max_size=2))
                    if smaller else {})
            rs.add_rule(lead, tail)
        fresh = RewriteSystem(f, (1, 1), ("x", "y"), 4, rules=dict(rs.rules))
        assert reads(rs) == reads(fresh)


def test_a_rule_change_keeps_the_normal_forms_below_its_degree():
    """A word's normal form reads only rules of degree up to its own, so
    `add_rule` and `retire` drop the memoized normal forms from the rule's
    degree up and keep those below it as they are."""
    f = F32003
    rs = _system_with_leads([(1, 0)])           # y*x -> 0, degree bound 4

    def memo():
        """The memoized normal forms by degree (every letter has degree 1)."""
        out = {}
        for w, terms in rs._nf.items():
            out.setdefault(len(w), {})[w] = dict(terms)
        return out

    for n in range(5):
        for w in itertools.product((0, 1), repeat=n):
            rs.nf(w)
    before = memo()
    assert sorted(before) == [0, 1, 2, 3, 4]
    rs.add_rule((1, 1, 1), {(0, 0, 0): f.one()})
    assert memo() == {d: before[d] for d in (0, 1, 2)}
    assert rs.nf((0, 1, 1, 1)) == {(0, 0, 0, 0): f.one()}
    before = memo()
    rs.retire((1, 0))
    assert memo() == {d: before[d] for d in (0, 1)}
    assert rs.nf((1, 0)) == {(1, 0): f.one()}
    assert rs.nf((1, 1, 1, 0)) == {(0, 0, 0, 0): f.one()}


# at bound 4 completion skips the self-overlap y*x*y*x*y while the rule
# y*x*y -> x*x*y stands, and x*x*y becomes a lead with tail 0 later: every
# overlap of the final leads above the bound has zero tails
CERT = ("algebra cert over F32003\ndeg x = 1, y = 1\n"
        "rel y*y + x*y\nrel y*y*y + x*x*y\n")


@settings(max_examples=100)
@given(case=random_presentations(),
       extra=st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=7),
                      max_size=8))
@example(case=(parse(CERT), 4), extra=[])
def test_random_presentations_rewrite_as_the_rule_scan(case, extra):
    """Completion through `nf` ends as completion whose normal forms scan
    the rules, and `nf` then rewrites words as the scan does where the
    system is confluent.  About half of these systems are truncated at
    their bound.

    The scan's completion and its words are checked first: a fault in `nf`
    can keep its own completion from terminating."""
    p, bound = case
    ref = rule_scan_completion(p, bound)
    gens = range(len(ref.degrees))
    words = [w for n in range(4) for w in itertools.product(gens, repeat=n)]
    # letters 0-5 stay uniform taken mod 2 or 3 generators
    words += [tuple(g % len(gens) for g in w) for w in extra]
    for w in words:
        assert_nf_matches_scan(ref, w)
    rs = complete(p, bound)
    assert_same_completion(rs, ref)
    for w in words:
        assert_nf_matches_scan(rs, w)


def test_the_certificate_reads_the_final_rules():
    """The same rules at every bound from 4 get the same certificate,
    whatever tails the skipped overlaps met while completion ran."""
    minus_one = F32003.neg(1)
    want = {(0, 0, 1): {}, (1, 0, 1): {}, (1, 1): {(0, 1): minus_one}}
    for bound in (4, 5, 6):
        rs = complete(parse(CERT), bound)
        assert rs.rules == want
        assert (rs.complete_below, rs.globally_complete) == (bound, True)


def assert_spolys_are_the_freeelement_spolys(rs):
    """For every overlap of two leads, at any degree, completion's
    S-polynomial has the terms of the FreeElement products, and its
    reduction is `normal_form` of them."""
    comp = groebner._Completion(rs)
    for u in rs.rules:
        for v in rs.rules:
            for k, _ in groebner._overlaps(u, v):
                ref = freeelement_spoly(rs, u, v, k)
                raw = comp.spoly(u, v, k)
                assert reduce_vector(raw, rs.field.p) == ref.terms
                assert list(groebner._reduce(rs, raw).items()) == \
                    list(normal_form(rs, ref).terms.items())


@settings(max_examples=50)
@given(case=random_presentations())
def test_spolys_of_random_presentations_are_the_freeelement_spolys(case):
    assert_spolys_are_the_freeelement_spolys(complete(*case))


def test_spolys_of_the_cyclic_input_are_the_freeelement_spolys():
    assert_spolys_are_the_freeelement_spolys(
        completed_system("cyclic", "F32003", 8))


RETIRED = """
algebra retired over F32003
deg x = 1, y = 1
rel y*y*x - x*x*x
rel y*x - x*y
"""


def test_a_dividing_lead_retires_a_rule_and_requeues_it():
    """Inserted first, y*y*x - x*x*x becomes the rule y*y*x -> x*x*x, and
    y*x - x*y then retires it and requeues its content, which reduces to
    x*y*y - x*x*x.  After `drain` and `verify` the rules are `complete`'s:
    the reduced Groebner basis is unique."""
    p = parse(RETIRED)
    rs = RewriteSystem(p.field, p.degree_vector(), p.names(), 5)
    comp = groebner._Completion(rs)
    cubic, quadratic = p.relations
    comp.insert(cubic.terms)
    assert rs.leads() == [(1, 1, 0)]
    comp.insert(quadratic.terms)
    assert rs.leads() == [(1, 0)]
    assert [payload for _, _, kind, payload in comp.heap if kind == "poly"] \
        == [{(1, 1, 0): 1, (0, 0, 0): -1}]
    comp.drain()
    comp.verify()
    ref = complete(p, 5)
    assert (1, 1, 0) not in ref.rules and (0, 1, 1) in ref.rules
    assert sorted((lead, list(tail.items())) for lead, tail in rs.rules.items()) \
        == sorted((lead, list(tail.items())) for lead, tail in ref.rules.items())
    assert comp.skipped == (not ref.globally_complete)


def test_a_stale_memo_makes_completion_fail_instead_of_looping(monkeypatch):
    """A memo that keeps the normal forms of a new rule's own degree
    reduces with rules that no longer stand, so completion meets a lead
    that an alive lead divides.  It raises instead of inserting forever."""
    reindexed = RewriteSystem._reindexed
    monkeypatch.setattr(RewriteSystem, "_reindexed",
                        lambda self, degree: reindexed(self, degree + 1))

    def timeout(signum, frame):
        raise TimeoutError("completion did not stop within 10 s")

    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="alive lead"):
            complete(builtin("polynomial-3"), 6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


# ---------------------------------------------------------------------------
# the enveloping system built from A and A^op against the completed
# enveloping presentation

WEIGHTED = """
algebra weighted over F32003
deg x = 2, y = 1
rel x*y - y*x - y^3
"""


def enveloping_words(env, d) -> list:
    """The normal words of degree d of the view, read by `word_at`."""
    return [env.word_at(d, k) for k in range(env.dim(d))]


def assert_leads_are_the_completions(env, ref):
    """The view's leads are an antichain under the subword relation and,
    in some order, the leads of the completed enveloping presentation."""
    leads = env.leads()
    assert not [(a, b) for i, a in enumerate(leads)
                for j, b in enumerate(leads)
                if i != j and find_subword(b, a) >= 0]
    assert sorted(leads) == sorted(ref.leads())


def assert_enveloping_system_matches_completion(p, bound, words):
    """The view has the completion's leads, each rewriting to the
    completion's tail, and its certificate (or a stronger one); it lists
    the completion's normal words, and its split normal form is the rule
    scan of the completion on `words`, in the degrees where that is
    confluent."""
    rs, rs_op = complete(p, bound), complete(opposite(p), bound)
    env = EnvelopingSystem(rs, rs_op)
    ref = complete(enveloping(p), bound)
    assert_leads_are_the_completions(env, ref)
    for lead, tail in ref.rules.items():
        assert env.nf(lead) == tail, lead
    assert env.complete_below == ref.complete_below
    # Overlaps of zero-tail rules resolve above the bound, but the
    # completion still skips those of a zero-tail rule and a commutator, and
    # those of a commutator and a lead within a letter of the bound
    assert env.globally_complete >= ref.globally_complete
    rules = list(rs.rules.items()) + list(rs_op.rules.items())
    if not any(not tail or word_degree(lead, rs.degrees) + max(rs.degrees)
               > bound for lead, tail in rules):
        assert env.globally_complete == ref.globally_complete
    for d in range(bound + 1):
        # words and positions from the runs of A's words
        listed = enveloping_words(env, d)
        assert listed == ref.normal_words(d), d
        assert [env.position(w) for w in listed] == list(range(len(listed)))
    for w in words:
        if (ref.globally_complete
                or word_degree(w, env.degrees) <= ref.complete_below):
            assert env.nf(w) == \
                rule_scan_normal_form(ref, ref.monomial(w)).terms, w
    # a word times the normal words of a degree, on either side, as
    # `products` reads it from a row of A's table and one of A^op's
    for t in words:
        for m in range(min(2, bound - word_degree(t, env.degrees)) + 1):
            basis = enveloping_words(env, m + word_degree(t, env.degrees))
            for left in (True, False):
                cols = env.products([(0, t, 1)], m, left)
                assert len(cols) == env.dim(m)
                for u, col in zip(enveloping_words(env, m), cols):
                    assert {basis[k]: c for k, c in col.items()} == \
                        env.nf(t + u if left else u + t), (t, u, left)
    dres, _ = diagonal_bimodule_resolution(rs, rs_op, 3, bound)
    assert dual_composites_vanish(dres, hochschild_ext(dres).window)


@settings(max_examples=25)
@given(case=random_presentations(), data=st.data())
def test_enveloping_system_matches_completed_enveloping(case, data):
    p, bound = case
    letters = st.integers(0, 2 * len(p.generators) - 1)
    words = data.draw(st.lists(st.lists(letters, max_size=bound).map(tuple),
                               min_size=1, max_size=12))
    assert_enveloping_system_matches_completion(p, bound, words)


def test_enveloping_system_with_a_degree_2_generator():
    # x has degree 2 and comes first, so the normal words of one degree
    # interleave the pairs of different splits a + b in tuple order
    p = parse(WEIGHTED)
    words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
    assert_enveloping_system_matches_completion(p, 6, words)


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize("name,text", REDUNDANT_GENERATORS,
                         ids=REDUNDANT_IDS)
def test_enveloping_system_of_an_algebra_with_a_letter_lead(name, text,
                                                           bound):
    # no commutator of the letter y, which is a lead
    p = parse(text)
    n = 2 * len(p.generators)
    words = [w for k in range(4)
             for w in itertools.product(range(n), repeat=k)]
    assert_enveloping_system_matches_completion(p, bound, words)


@pytest.mark.parametrize("name", builtin_names())
def test_enveloping_listing_is_the_search_over_all_letters(name):
    """The enveloping normal words, read by `word_at` from the runs of
    one-sided normal words, are those the completed enveloping
    presentation lists by its search over all 2n letters, for every degree
    asked for in any order; and the leads are the completion's."""
    p = builtin(name)
    if isinstance(p, FilteredPresentation):
        p = homogenize(p)
    env = EnvelopingSystem(complete(p, 5), complete(opposite(p), 5))
    ref = complete(enveloping(p), 5)
    assert_leads_are_the_completions(env, ref)
    for d in (5, 2, 0, 4, 1, 3):
        assert enveloping_words(env, d) == ref.normal_words(d), d


# ---------------------------------------------------------------------------
# products through `nf` and the multiplication tables: normal forms
# multiplied from the left

def _fresh(rs):
    """rs with empty memos and tables, so that every product is computed."""
    return RewriteSystem(rs.field, rs.degrees, rs.names, rs.degree_bound,
                         rules=rs.rules, complete_below=rs.complete_below,
                         globally_complete=rs.globally_complete)


def assert_products_match_scan(rs, pairs):
    """`nf` reduces left * right as `assert_nf_matches_scan` asks, and
    where one factor is a normal word the multiplication table of the
    other, on its side, has that normal form in the row of the normal
    word."""
    degs = rs.degrees
    for left, right in pairs:
        w = left + right
        assert_nf_matches_scan(rs, w)
        want = rs.nf(w)
        basis = rs.normal_words(word_degree(w, degs))
        for t, u, on_left in ((left, right, True), (right, left, False)):
            if is_normal_word(rs, u):
                row = rs.table(t, word_degree(u, degs), on_left)[rs.position(u)]
                assert {basis[k]: c for k, c in row} == want, (left, right)


def _words(rs, top):
    """Every word of degree at most top."""
    gens = range(len(rs.degrees))
    return [w for k in range(top + 1) for w in itertools.product(gens, repeat=k)
            if word_degree(w, rs.degrees) <= top]


COMPLETE_SYSTEMS = [s for s in SYSTEMS if s[2] == 6 and "enveloping" not in s[0]]


@pytest.mark.parametrize("system", COMPLETE_SYSTEMS,
                         ids=[f"{n}-{f}-d{d}" for n, f, d in COMPLETE_SYSTEMS])
def test_products_on_complete_systems_match_the_rule_scan(system):
    rs = _fresh(completed_system(*system))
    assert rs.globally_complete
    pairs = [(left, right) for left in _words(rs, 2) for right in _words(rs, 3)]
    assert_products_match_scan(rs, pairs)


@pytest.mark.parametrize("system", [("weyl-homogenized", "F32003", 2),
                                    ("weyl-homogenized", "Q", 2),
                                    ("smith-zhang-enveloping", "F32003", 6)],
                         ids=lambda s: f"{s[0]}-{s[1]}-d{s[2]}")
def test_products_above_complete_below_match_the_rule_scan(system):
    """Up to `complete_below` `nf` and the tables rewrite as the rule scan
    does.  Above it a word's normal form depends on the order of the
    rewrites, and theirs are irreducible."""
    rs = completed_system(*system)
    assert not rs.globally_complete
    top = rs.complete_below + 3
    if len(rs.degrees) <= 3:
        pairs = [(left, right) for left in _words(rs, 2)
                 for right in _words(rs, top) if len(left + right) <= top]
    else:                       # 8 letters: a sample across complete_below
        rng = random.Random(0)
        letters = range(len(rs.degrees))
        pairs = [(tuple(rng.choices(letters, k=rng.randint(1, 2))),
                  tuple(rng.choices(letters, k=rng.randint(3, top - 2))))
                 for _ in range(400)]
    fresh = _fresh(rs)
    assert_products_match_scan(fresh, pairs)
    # there the rule scan rewrites in another order and ends elsewhere
    if system[0] == "weyl-homogenized":
        assert any(fresh.nf(left + right) !=
                   rule_scan_normal_form(rs, rs.monomial(left + right)).terms
                   for left, right in pairs)


def _system(name, field, bound, env):
    p = builtin(name, field)
    if isinstance(p, FilteredPresentation):
        p = homogenize(p)
    rs = complete(p, bound)
    return EnvelopingSystem(rs, complete(opposite(p), bound)) if env else rs


@pytest.mark.parametrize("name,field,env", [
    ("smith-zhang", F32003, False), ("weyl-homogenized", QQ, False),
    ("quantum-plane-2", F32003, True), ("smith-zhang", QQ, True)],
    ids=["smith-zhang-F32003", "weyl-homogenized-Q",
         "quantum-plane-2-F32003-enveloping", "smith-zhang-Q-enveloping"])
def test_products_are_the_shifted_sum_of_one_term_products(name, field, env):
    """`products` of several terms, with overlapping offsets and scalars
    other than 1, is the sum of its one-term calls, each scaled by its
    scalar and shifted by its offset."""
    rs = _system(name, field, 5, env)
    f, n = rs.field, len(rs.degrees)
    c = [f.from_int(1), f.from_int(-1), f.inv(f.from_int(3)), f.from_int(7)]
    terms = [(0, (0,), c[2]), (3, (n - 1, 0), c[1]), (0, (1,), c[3]),
             (2, (0, n - 1), c[0]), (3, (n - 1, 0), c[2])]
    for degree in (0, 2, 3):
        for left in (True, False):
            want = [{} for _ in range(rs.dim(degree))]
            for off, t, s in terms:
                cols = rs.products([(0, t, f.one())], degree, left)
                for acc, col in zip(want, cols):
                    for r, v in col.items():
                        acc[off + r] = f.add(acc.get(off + r, f.zero()),
                                             f.mul(s, v))
            assert rs.products(terms, degree, left) == [
                {r: v for r, v in acc.items() if not f.is_zero(v)}
                for acc in want], (degree, left)


def test_nf_of_a_long_word_takes_no_recursion_per_letter():
    # the words a normal form waits on are kept on a stack, not in the
    # recursion: y^100 * x^100 folds within 50 frames of this test's depth
    rs = complete(builtin("polynomial-2"), 6)
    assert rs.globally_complete
    w = (1,) * 100 + (0,) * 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        terms = rs.nf(w)
    finally:
        sys.setrecursionlimit(limit)
    assert terms == {(0,) * 100 + (1,) * 100: 1}


def test_nf_memoizes_no_word_above_the_degree_bound():
    # the 3n^2 intermediate words of y^n * x^n lie above the bound, so they
    # live only as long as the call
    rs = complete(builtin("polynomial-2"), 6)
    w = (1,) * 100 + (0,) * 100
    assert rs.nf(w) == {(0,) * 100 + (1,) * 100: 1}
    assert rs.nf((1, 0)) == {(0, 1): 1}
    assert max(word_degree(u, rs.degrees) for u in rs._nf) <= rs.degree_bound


def assert_tables_match_scan(rs, top):
    """Every row of the left and right tables of the words t of degree at
    most 2, the empty word included, is the rule scan's normal form of its
    product through degree top, with its entries in descending position;
    over Q its scalars are ints wherever they are integral."""
    for t in _words(rs, 2):
        e = word_degree(t, rs.degrees)
        for m in range(top - e + 1):
            basis = rs.normal_words(m + e)
            for left in (True, False):
                rows = rs.table(t, m, left)
                assert len(rows) == rs.dim(m)
                for w, row in zip(rs.normal_words(m), rows):
                    want = rule_scan_normal_form(
                        rs, rs.monomial(t + w if left else w + t)).terms
                    assert {basis[k]: c for k, c in row} == want, (t, w)
                    assert [k for k, _ in row] == sorted(
                        [k for k, _ in row], reverse=True), (t, w)
                    assert not [c for _, c in row if isinstance(c, Fraction)
                                and c.denominator == 1], (t, w)


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("field", [F32003, QQ], ids=["F32003", "Q"])
def test_multiplication_tables_match_normal_form(name, field):
    p = builtin(name, field)
    if isinstance(p, FilteredPresentation):
        p = homogenize(p)
    assert_tables_match_scan(complete(p, 5), 5)


def test_multiplication_tables_of_a_truncated_opposite_match_normal_form():
    # smith-zhang's opposite has no finite Groebner basis: at 7 it is
    # truncated, with leads of up to 7 letters
    rs = complete(opposite(builtin("smith-zhang")), 7)
    assert not rs.globally_complete
    assert max(map(len, rs.leads())) == 7
    assert_tables_match_scan(rs, 7)


@settings(max_examples=40)
@given(case=random_presentations(), op=st.booleans())
def test_multiplication_tables_of_random_presentations_match_normal_form(
        case, op):
    """Through the completion bound, on both sides of a random presentation;
    about half of these systems are truncated."""
    p, bound = case
    rs = complete(opposite(p) if op else p, bound)
    assert_tables_match_scan(rs, bound)


def test_one_reduction_steps_a_shared_suffix_above_the_bound_once():
    # x * s and y * s share the suffix s = y^20 x^20, far above the bound:
    # reducing both steps each suffix of s as often as reducing x * s alone
    s = (1,) * 20 + (0,) * 20
    steps = []
    step = RewriteSystem._left_step

    def counted(self, w, *args):
        steps.append(w)
        return step(self, w, *args)

    counts = []
    for words in ([(0,) + s], [(0,) + s, (1,) + s]):
        rs = complete(builtin("polynomial-2"), 6)
        steps.clear()
        with mock.patch.object(RewriteSystem, "_left_step", counted):
            normal_form(rs, FreeElement(rs.field, rs.degrees,
                                        {w: 1 for w in words}))
        counts.append([steps.count(s[k:]) for k in range(len(s) - 6)])
    assert counts[0] == counts[1]
    assert min(counts[0]) >= 1


def test_normal_words_of_a_long_degree_take_no_recursion_per_letter():
    # the listing keeps its partial words on a stack: x^1200 is well past
    # the default recursion limit of 1000
    rs = complete(builtin("polynomial-1"), 4)
    assert rs.normal_words(1200) == [(0,) * 1200]


def _normal_words_by_recursion(rs, degree):
    """The normal words of a degree as a recursive search lists them: extend
    each normal word by every letter in turn, smallest first, and keep the
    extensions that end in no lead."""
    out = []

    def extend(word, deg):
        if deg == degree:
            out.append(word)
            return
        for g, k in enumerate(rs.degrees):
            w = word + (g,)
            if deg + k <= degree and not any(w[-len(lead):] == lead
                                             for lead in rs.leads()):
                extend(w, deg + k)

    extend((), 0)
    return out


@pytest.mark.parametrize("name", builtin_names())
def test_normal_words_keep_the_order_of_the_recursive_listing(name):
    p = builtin(name)
    if isinstance(p, FilteredPresentation):
        p = homogenize(p)
    rs = complete(p, 7)
    for d in range(8):
        assert rs.normal_words(d) == _normal_words_by_recursion(rs, d), d


LETTER_LEAD = """
algebra lettered over F32003
deg x = 1, y = 2, z = 1
rel y - x*z
rel z*x - x*z
"""

# the normal forms of z*x*x's two rewrites interleave, so the terms of a
# product come in the order of `normal_form` only once they are sorted
INTERLEAVED = """
algebra interleaved over F32003
deg x = 1, y = 1, z = 1
rel z*x - 2*x*z + x*y
"""


@pytest.mark.parametrize("text", [WEIGHTED, LETTER_LEAD, INTERLEAVED],
                         ids=["degree-2-x", "lead-letter-y", "interleaved"])
def test_products_on_small_presentations_match_the_rule_scan(text):
    # in lettered the degree-2 letter y is itself a lead, so a right factor
    # need not be normal
    rs = complete(parse(text), 6)
    assert rs.complete_below == 6
    pairs = [(left, right) for left in _words(rs, 3) for right in _words(rs, 3)]
    assert_products_match_scan(rs, pairs)


@settings(max_examples=60)
@given(case=random_presentations(), data=st.data())
def test_products_on_random_presentations_match_the_rule_scan(case, data):
    """About half of these systems are truncated, so products on both sides
    of `complete_below` occur."""
    p, bound = case
    rs = complete(p, bound)
    letters = st.sampled_from(range(len(rs.degrees)))
    words = data.draw(st.lists(st.lists(letters, max_size=bound + 1)
                               .map(tuple), min_size=1, max_size=12))
    pairs = [(w[:k], w[k:]) for w in words
             for k in (data.draw(st.integers(0, len(w))),)]
    assert_products_match_scan(rs, pairs)
