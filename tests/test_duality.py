"""Dualized resolutions: one-sided Ext tables, the regularity verdict,
bimodule cohomology, and twist extraction."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ncgraded import cli, duality, exactla
from ncgraded.exactla import F32003, QQ, FieldSpec, field_from_name
from ncgraded.groebner import EnvelopingSystem, complete
from ncgraded.hilbert import hilbert_function
from ncgraded.presentation import (builtin, enveloping, homogenize, opposite,
                                   parse, skew_polynomial)
from ncgraded.resolution import betti, gldim_upto, minimal_resolution
from ncgraded.duality import (ExtTable, _dual_matrix, as_check, ext_k_A,
                              diagonal_bimodule_resolution, hochschild_ext,
                              invariant_report, rigidity_check)

from support import (anick_chain_counts, bimodule_resolution,
                     dual_composites_vanish, over_field, random_presentations,
                     rule_scan_normal_form, stage_columns)


def two_sided(p, hbound, dbound):
    rs = complete(p, dbound)
    res = minimal_resolution(rs, hbound, dbound)
    t_left = ext_k_A(res)
    rs_r = complete(opposite(p), dbound)
    t_right = ext_k_A(minimal_resolution(rs_r, hbound, dbound))
    return t_left, t_right, gldim_upto(res)


def test_line_algebra_ext():
    p = builtin("polynomial-1")
    rs = complete(p, 8)
    res = minimal_resolution(rs, 3, 8)
    t = ext_k_A(res)
    assert t.entries == {(1, -1): 1}
    assert t.certified[(1, -1)]
    assert all(t.zero_certified.values())
    v = as_check(*two_sided(p, 3, 8))
    assert v.status == "regular" and (v.n, v.l) == (1, 1)


@pytest.mark.parametrize("name", ["polynomial-2", "quantum-plane-2"])
def test_plane_algebras_are_regular(name):
    v = as_check(*two_sided(builtin(name), 3, 8))
    assert v.status == "regular"
    assert (v.n, v.l) == (2, 2)
    assert v.witness is None
    assert "regular" in v.describe()


def test_skew_three_is_regular():
    p = skew_polynomial(3, {(0, 1): 5, (0, 2): 7, (1, 2): 11})
    v = as_check(*two_sided(p, 4, 8))
    assert v.status == "regular" and (v.n, v.l) == (3, 3)


def test_reference_algebra_fails_with_witness(sz_rs, sz_res):
    p = builtin("smith-zhang")
    t_left = ext_k_A(sz_res)
    assert sorted(t_left.nonzero_levels()) == [2, 3, 4]
    rs_r = complete(opposite(p), 8)
    t_right = ext_k_A(minimal_resolution(rs_r, 5, 8))
    v = as_check(t_left, t_right, gldim=gldim_upto(sz_res))
    assert v.status == "fails"
    assert v.witness is not None
    side, level, degree, dim, reason = v.witness
    assert side in ("left", "right") and level == 2
    assert "concentration" in reason or "level" in reason


def test_free_algebra_fails_on_fat_level_one():
    v = as_check(*two_sided(builtin("free-2"), 3, 8))
    assert v.status == "fails"
    assert v.witness[1] == 1
    assert "one-dimensional" in v.witness[4]


def test_complete_intersection_with_l_zero_is_gorenstein():
    # k[x,y]/(x^2) is AS-Gorenstein with n = 1 and l = 0; no sign rule on
    # n or l belongs to the conditions
    p = parse("algebra ci over F32003\ndeg x = 1, y = 1\n"
              "rel x*x\nrel y*x - x*y")
    t_left, t_right, gl = two_sided(p, 4, 8)
    assert t_left.entries == t_right.entries == {(1, 0): 1}
    assert t_left.certified[(1, 0)] and t_right.certified[(1, 0)]
    v = as_check(t_left, t_right, gldim=gl)
    assert v.describe() == "gorenstein_conditions_hold(1,0)"
    assert v.witness is None


def test_level_zero_entries_are_certified():
    # k[x]/(x^2) is Frobenius: Ext^0(k, A) is its socle x, in degree 1.
    # The stages below 0 are empty, so complete, and the entry is exact
    p = parse("algebra dual over F32003\ndeg x = 1\nrel x*x")
    t_left, t_right, gl = two_sided(p, 4, 6)
    assert t_left.entries == {(0, 1): 1}
    assert t_left.certified[(0, 1)] and t_right.certified[(0, 1)]
    v = as_check(t_left, t_right, gldim=gl)
    assert v.describe() == "gorenstein_conditions_hold(0,-1)"


def test_narrow_window_is_inconclusive():
    # window stops below the socle level and everything in sight is zero
    v = as_check(*two_sided(builtin("weyl-homogenized"), 3, 8))
    assert v.status == "inconclusive"
    assert v.notes == ("no certified concentration pattern in the window",)


def test_each_side_is_read_against_its_own_certificates():
    # a certified left entry must not hide an uncertified right entry at
    # the same level and degree
    def table(certified):
        return ExtTable("overA", {(2, -2): 1}, {(2, -2): certified},
                        {i: certified for i in range(4)}, (-2, 6), (0, 3),
                        {i: 0 for i in range(4)})

    v = as_check(table(True), table(False))
    assert v.status == "inconclusive"
    assert v.notes == ("uncertified nonzero entries present: "
                       "right at levels [2]",)
    v = as_check(table(False), table(False))
    assert v.notes == ("uncertified nonzero entries present: "
                       "left at levels [2], right at levels [2]",)


def certified_table(entries, zero_levels=range(4)):
    """A one-sided table over levels 0..3 whose entries are all certified
    and whose levels in `zero_levels` are certified zero elsewhere."""
    return ExtTable("overA", entries, dict.fromkeys(entries, True),
                    {i: i in zero_levels for i in range(4)}, (-3, 5), (0, 3),
                    dict.fromkeys(range(4), 0))


def test_sides_concentrated_apart_fail():
    v = as_check(certified_table({(2, -2): 1}), certified_table({(3, -3): 1}))
    assert v.status == "fails"
    assert v.witness == ("right", 3, -3, 1, "left side concentrated at "
                         "(2, -2), right at (3, -3)")


def test_a_certified_entry_of_dimension_two_fails():
    t = certified_table({(2, -2): 2})
    v = as_check(t, t)
    assert v.status == "fails"
    assert v.witness == ("left", 2, -2, 2, "level 2 entry has dimension 2")


def test_a_lone_entry_at_a_level_not_certified_zero_is_inconclusive():
    # the entry is exact, but other degrees of its level may hold more
    t = certified_table({(2, -2): 1}, zero_levels=(0, 1, 3))
    v = as_check(t, certified_table({(2, -2): 1}))
    assert v.status == "inconclusive"
    assert v.notes == ("no certified concentration pattern in the window",)


# -- bimodule side ------------------------------------------------------------

def test_line_algebra_bimodule_ext_is_shifted_line():
    dres, dtab = bimodule_resolution(builtin("polynomial-1"), 5, 8)
    assert dtab.entries == {(0, 0): 1, (1, 1): 1}
    h = hochschild_ext(dres)
    assert h.nonzero_levels() == [1]
    assert {j: n for (i, j), n in h.entries.items() if i == 1} == {
        j: 1 for j in range(1, 10)}
    assert all(h.zero_certified.values())
    assert h.level_shift[1] == 2


def test_quantum_plane_bimodule_concentration(qp_rs):
    p = builtin("quantum-plane-2")
    dres, dtab = bimodule_resolution(p, 5, 8)
    assert dtab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    h = hochschild_ext(dres)
    assert h.nonzero_levels() == [2]
    dims = hilbert_function(qp_rs, 8)
    lv = {j: n for (i, j), n in h.entries.items() if i == 2}
    assert min(lv) == 2
    for j, n in lv.items():
        assert n == dims.dim(j - 2)


def test_quantum_plane_twist(qp_rs):
    p = builtin("quantum-plane-2")
    dres, _ = bimodule_resolution(p, 5, 8)
    h = hochschild_ext(dres)
    rig = rigidity_check(p, dres, h, hilbert_function(qp_rs, 8))
    assert rig.concentrated_at == 2
    assert rig.graded_match
    twist = {k: v.format(p.names()) for k, v in rig.twist_on_generators.items()}
    assert twist == {"x": "(2)*x", "y": "(16002)*y"}


def test_quantum_plane_twist_small_field():
    f3 = field_from_name("F3")
    p = builtin("quantum-plane-2", field=f3)
    dres, _ = bimodule_resolution(p, 5, 8)
    rs = complete(p, 8)
    rig = rigidity_check(p, dres, hochschild_ext(dres),
                         hilbert_function(rs, 8))
    twist = {k: v.format(p.names()) for k, v in rig.twist_on_generators.items()}
    assert twist == {"x": "(2)*x", "y": "(2)*y"}


def test_commutative_plane_twist_is_identity(poly2_rs):
    p = builtin("polynomial-2")
    dres, _ = bimodule_resolution(p, 5, 8)
    rig = rigidity_check(p, dres, hochschild_ext(dres),
                         hilbert_function(poly2_rs, 8))
    twist = {k: v.format(p.names()) for k, v in rig.twist_on_generators.items()}
    assert twist == {"x1": "(1)*x1", "x2": "(1)*x2"}


def test_twist_that_breaks_a_relation_is_reported(qp_rs):
    # the swap x -> y, y -> x takes y*x - 2*x*y to x*y - 2*y*x, which
    # reduces to -3*x*y
    p = builtin("quantum-plane-2")
    dres, _ = bimodule_resolution(p, 5, 8)
    swap = iter([{1: 1}, {0: 1}])
    with mock.patch.object(duality, "solve_columns",
                           side_effect=lambda *args: next(swap)):
        rig = rigidity_check(p, dres, hochschild_ext(dres),
                             hilbert_function(qp_rs, 8))
    twist = {k: v.format(p.names()) for k, v in rig.twist_on_generators.items()}
    assert twist == {"x": "(1)*y", "y": "(1)*x"}
    assert rig.notes == ("twist fails on a defining relation",)


def test_twist_builds_only_the_dual_differentials_it_reads(qp_rs):
    # a representative at (i0, mu0) needs d* out of i0 - 1 and out of i0
    # there; solving for the twist at mu0 + 1 needs only the image of d*
    # out of i0 - 1
    p = builtin("quantum-plane-2")
    dres, _ = bimodule_resolution(p, 5, 8)
    h = hochschild_ext(dres)
    with mock.patch.object(duality, "_dual_matrix",
                           side_effect=_dual_matrix) as built:
        rig = rigidity_check(p, dres, h, hilbert_function(qp_rs, 8))
    assert rig.twist_on_generators is not None
    assert sorted(c.args[1:] for c in built.call_args_list) == \
        [(1, -2), (1, -1), (2, -2)]


def test_ext_tables_take_ranks_without_rref(qp_res):
    # an Ext entry is a nullity minus a rank, so ext_k_A brings no d* to
    # its reduced row echelon form; hochschild_ext echelonizes the
    # one-sided d0 only, never a matrix wider than a piece G^i_nu of the
    # one-sided complex
    with mock.patch.object(exactla, "rref",
                           side_effect=AssertionError("rref called")), \
            mock.patch.object(duality, "rref",
                              side_effect=AssertionError("rref called")), \
            mock.patch.object(duality, "rank",
                              side_effect=exactla.rank) as ranked:
        left = ext_k_A(qp_res)
    assert ranked.call_count
    assert left.entries == {(2, -2): 1}
    dres, _ = bimodule_resolution(builtin("smith-zhang"), 4, 6)
    widths = []

    def record(m):
        widths.append(m.cols)
        return exactla.rref(m)

    with mock.patch.object(duality, "rref", side_effect=record):
        both = hochschild_ext(dres)
    assert both.nonzero_levels() == [3]
    a = dres.rs.algebra
    lo, hi = both.window
    widest = max(sum(a.dim(g.degree + nu) for g in stage.gens)
                 for stage in dres.stages for nu in range(lo, hi + 1))
    assert widths and max(widths) <= widest
    # the d* at the same cells are wider
    assert widest < max(len(_dual_matrix(dres, i, mu).columns)
                        for i in range(4) for mu in range(lo, hi + 1))


def rational_scalars():
    """Nonzero rationals a/b, built through QQ so that integral ones are
    ints."""
    return st.builds(lambda a, b: QQ.mul(QQ.from_int(a),
                                         QQ.inv(QQ.from_int(b))),
                     st.integers(-5, 5).filter(bool), st.integers(1, 5))


@st.composite
def skew_rings(draw):
    """(skew polynomial ring on n = 2 or 3 generators, its q_ij for i < j),
    over Q or F32003."""
    f = draw(st.sampled_from((QQ, F32003)))
    n = draw(st.integers(2, 3))
    scalar = rational_scalars() if f is QQ else st.integers(1, f.p - 1)
    q = {(i, j): draw(scalar) for i in range(n) for j in range(i + 1, n)}
    return skew_polynomial(n, q, f), q


@given(case=skew_rings())
def test_skew_polynomial_twist_matches_the_oracle(case):
    # over xj*xi = q_ij * xi*xj the twist is xi -> (prod_j q_ij) * xi, with
    # q_ji = 1 / q_ij.  Coefficients are compared by value, as a Fraction of
    # denominator 1 may stand for an integral one
    p, q = case
    f, n = p.field, len(p.generators)
    dres, _ = bimodule_resolution(p, n + 1, n + 1)
    rig = rigidity_check(p, dres, hochschild_ext(dres),
                         hilbert_function(complete(p, n + 1), n + 1))
    assert rig.concentrated_at == n and rig.graded_match
    assert "twist respects the defining relations" in rig.notes
    for i, name in enumerate(p.names()):
        scale = f.one()
        for j in range(n):
            if j != i:
                scale = f.mul(scale, q[(i, j)] if i < j else f.inv(q[(j, i)]))
        assert rig.twist_on_generators[name].terms == {(i,): scale}, name


def test_reference_bimodule_window_is_honest(sz_res):
    p = builtin("smith-zhang")
    dres, dtab = bimodule_resolution(p, 5, 5)
    assert not dres.rs.globally_complete
    assert dtab.entries == {k: v for k, v in betti(sz_res).entries.items()
                            if k[1] <= 5}
    assert not any(dtab.stage_complete.values())


def test_dual_differential_squares_to_zero():
    rs = complete(builtin("polynomial-3"), 8)
    res = minimal_resolution(rs, 4, 8)
    dres, _ = bimodule_resolution(builtin("quantum-plane-2"), 4, 6)
    # the rule scan of the completed enveloping presentation is the
    # reference of the view of A (x) A^op
    ref = complete(enveloping(builtin("quantum-plane-2")), 6)
    for r, t, scanned in ((res, ext_k_A(res), rs),
                          (dres, hochschild_ext(dres), ref)):
        assert dual_composites_vanish(r, t.window)
        # the maps are not all zero, so the check above has content
        assert any(any(_dual_matrix(r, i, mu).columns)
                   for i in range(len(r.stages) - 1)
                   for mu in range(t.window[0], t.window[1] + 1))
        # every generator has degree 1
        for d in range(5):
            for w in itertools.product(range(len(r.rs.degrees)), repeat=d):
                assert (r.rs.nf(w) == rule_scan_normal_form(
                    scanned, scanned.monomial(w)).terms)


# -- the transferred complex against the computed d* ------------------------

def derived_and_computed(p, hbound, dbound):
    """The Hochschild table of p through the transferred complex, which
    must build no d* over the enveloping system, and the one computed from
    those d*, with the same shifts and notes."""
    rs, rs_r = complete(p, dbound), complete(opposite(p), dbound)
    tab = betti(minimal_resolution(rs, hbound, dbound))
    dres, _ = diagonal_bimodule_resolution(rs, rs_r, hbound, dbound, tab)
    with mock.patch.object(duality, "_dual_matrix",
                           side_effect=AssertionError("d* built")):
        derived = hochschild_ext(dres)
    shifts, notes = duality._level_shifts(dres)
    return derived, duality._ext_table(dres, "overAe", shifts, notes)


def assert_derived_is_computed(derived, computed):
    for name in ("side", "entries", "certified", "zero_certified", "window",
                 "levels", "level_shift", "notes"):
        assert getattr(derived, name) == getattr(computed, name), name
    assert derived == computed


@pytest.mark.parametrize("name", ["free-2", "free-3", "polynomial-1",
                                  "polynomial-2", "polynomial-3",
                                  "quantum-plane-2", "smith-zhang",
                                  "weyl-filtered", "weyl-homogenized"])
def test_derived_levels_give_the_computed_table(name):
    for f in (F32003, QQ, field_from_name("F3")):
        p = builtin(name, field=f)
        if name == "weyl-filtered":
            p = homogenize(p)
        derived, computed = derived_and_computed(p, 4, 5)
        assert_derived_is_computed(derived, computed)
        if name == "smith-zhang":
            # E sits at levels 2 to 4 and the table at level 3 alone, so
            # the transferred D is built and is not zero
            assert computed.nonzero_levels() == [3]


@given(case=random_presentations())
@settings(max_examples=25)
def test_derived_levels_give_the_computed_table_on_random_presentations(case):
    p, bound = case
    assert_derived_is_computed(*derived_and_computed(p, 3, bound))


def test_hochschild_ext_builds_no_dual_differential():
    dres, _ = bimodule_resolution(builtin("smith-zhang"), 4, 6)
    with mock.patch.object(duality, "_dual_matrix",
                           side_effect=_dual_matrix) as spy:
        t = hochschild_ext(dres)
    assert spy.call_count == 0
    assert t.nonzero_levels() == [3]


CUBE = """
algebra cube over F32003
deg x = 1
rel x^3
"""


# x*y = y*x = 0 and y^2 = -x^2: A_2 is spanned by x^2, and A_3 = 0
ZERO_PRODUCTS = """
algebra zero_products over F32003
deg x = 1, y = 1
rel x*y
rel y*x
rel y*y + x*x
"""


LEFT_RIGHT = """
algebra left_right over F32003
deg x = 1, y = 1
rel x*x
rel x*y
"""


# not globally complete at any bound: no stage is certified complete
CYCLIC = """
algebra cyclic over F32003
deg x = 1, y = 1, z = 1
rel x*y - y*x - z*z
rel y*z - z*y - x*x
rel z*x - x*z - y*y
"""


# its transferred differential needs the terms p delta (-h delta)^k i with
# k >= 1, and their sign: without them, or with h negated, the table is
# wrong, while every builtin above still reads right at -d 5
CHAINS = """
algebra chains over F32003
deg x = 1, y = 1
rel 2*x*y*y - 3*x*x*x - 2*x*y*x
rel y*x + x*x
"""


@pytest.mark.parametrize("text, dbound, hbound", [
    # truncated: no stage is certified complete, and E is zero at levels
    # 0, 1 and 2
    (None, 3, 3),
    # x^3 = 0: stage 3's one Anick chain lies in degree 4
    (CUBE, 4, 4),
    # stage 4 has Anick chains in degrees 5 and 6, above the window
    (ZERO_PRODUCTS, 4, 4),
    (LEFT_RIGHT, 5, 4),
    (CYCLIC, 5, 4),
    (CHAINS, 5, 4),
], ids=["weyl-homogenized", "cube", "zero-products", "left-right", "cyclic",
        "chains"])
def test_levels_the_one_sided_table_does_not_certify_are_computed(
        text, dbound, hbound):
    p = builtin("weyl-homogenized") if text is None else parse(text)
    derived, computed = derived_and_computed(p, hbound, dbound)
    assert_derived_is_computed(derived, computed)
    if text is CYCLIC:
        assert not any(computed.certified.values())


def test_zero_products_have_anick_chains_above_the_window():
    # the chains that leave stage 4 of the zero-products case above
    # uncertified
    rs = complete(parse(ZERO_PRODUCTS), 4)
    assert rs.globally_complete
    anick = anick_chain_counts(rs.leads(), rs.degrees, 4, 8)
    assert sorted(j for i, j in anick if i == 4) == [4, 5, 6]


def test_derived_levels_come_from_the_left_table():
    """Over x^2 = xy = 0 the left table is zero at level 0 and the right
    one is not.  The one-sided complex G of the transfer, the opposite
    letters killed, has the left table as its cohomology, and the
    transferred table is the computed one."""
    p = parse(LEFT_RIGHT)
    rs = complete(p, 5)
    tab = betti(minimal_resolution(rs, 4, 5))
    left = ext_k_A(minimal_resolution(rs, 4, 5))
    right = ext_k_A(minimal_resolution(complete(opposite(p), 5), 4, 5, tab))
    assert left.nonzero_levels() == [1, 2, 3]
    assert right.nonzero_levels() == [0, 1, 2, 3]
    derived, computed = derived_and_computed(p, 4, 5)
    assert_derived_is_computed(derived, computed)
    assert computed.nonzero_levels() == [1, 2, 3]
    dres, _ = diagonal_bimodule_resolution(rs, complete(opposite(p), 5), 4,
                                           5, tab)
    transfer = duality._Transfer(dres)
    lo, hi = left.window
    assert {(i, nu): transfer.dim_e(i, nu) for i in range(4)
            for nu in range(lo, hi + 1) if transfer.dim_e(i, nu)} \
        == left.entries


def test_bimodule_report_builds_no_one_sided_table(tmp_path):
    # the transferred complex needs no left table: without asregular the
    # report builds none, with it only the one it prints
    path = tmp_path / "left_right.alg"
    path.write_text(LEFT_RIGHT)
    for checks, tables in ((("hochschild",), 0), (("rigidity",), 0),
                           (("hochschild", "rigidity"), 0),
                           (("asregular", "hochschild"), 2)):
        with mock.patch.object(cli, "ext_k_A", side_effect=ext_k_A) as spy:
            report, _ = cli.run(cli.RunConfig(
                str(path), is_path=True, degree_bound=5, homological_bound=4,
                checks=checks))
        assert spy.call_count == tables, checks
        assert "hochschild" in report or "rigidity" in report


def test_concentrated_report_builds_only_the_twist_cells():
    # polynomial-3 FULL: its Hochschild table comes from the transferred
    # complex, so the only d* over the enveloping system are rigidity's
    # three cells
    built = []

    def record(res, i, mu):
        if isinstance(res.rs, EnvelopingSystem):
            built.append((i, mu))
        return _dual_matrix(res, i, mu)

    with mock.patch.object(duality, "_dual_matrix", side_effect=record):
        report, code = cli.run(cli.RunConfig(
            "polynomial-3", degree_bound=7, homological_bound=5,
            checks=("hilbert", "betti", "koszul", "asregular", "hochschild",
                    "rigidity")))
    assert code == 0
    assert report["rigidity"]["concentrated_at"] == 3
    assert sorted(built) == [(2, -3), (2, -2), (3, -3)]


def test_rational_dual_differentials_hold_no_integral_fraction():
    # quantum-plane-2 divides by q = 2, so Fractions occur; a d* entry that
    # is integral is an int, the one representation the elimination skips
    # the gcd for
    entries = []

    def record(*args):
        m = _dual_matrix(*args)
        entries.extend(v for col in m.columns for v in col.values())
        return m

    with mock.patch.object(duality, "_dual_matrix", side_effect=record):
        _, code = cli.run(cli.RunConfig(
            "quantum-plane-2", field=QQ, degree_bound=8, homological_bound=4,
            checks=("hilbert", "betti", "koszul", "asregular", "hochschild",
                    "rigidity")))
    assert code == 0
    fractions = [v for v in entries if isinstance(v, Fraction)]
    assert fractions
    assert not [v for v in fractions if v.denominator == 1]


# -- derived invariants -------------------------------------------------------

def test_invariants_on_regular_algebra():
    t_l, t_r, gl = two_sided(skew_polynomial(3, 5), 4, 8)
    v = as_check(t_l, t_r, gldim=gl)
    inv = invariant_report(v, None)
    assert inv["fhtr"]["value"] == 3
    assert inv["hammerhead"]["value"] == 3
    assert inv["htr_QA_conditional"]["value"] == 3
    assert inv["unchecked_hypotheses"]


def test_invariants_on_failing_algebra(sz_rs, sz_res):
    p = builtin("smith-zhang")
    t_left = ext_k_A(sz_res)
    rs_r = complete(opposite(p), 8)
    t_right = ext_k_A(minimal_resolution(rs_r, 5, 8))
    from ncgraded.hilbert import gk_estimate
    v = as_check(t_left, t_right, gldim=gldim_upto(sz_res))
    inv = invariant_report(v, None,
                           gk=gk_estimate(hilbert_function(sz_rs, 8)))
    assert inv["fhtr"] is None
    assert inv["hammerhead"] is None
    # no conditional claim is made, so no hypothesis needs declaring
    assert inv["unchecked_hypotheses"] == []
    assert any("growth estimate" in n for n in inv["notes"])
    assert any("fails" in n for n in inv["notes"])


# -- rational scalars stay ints while they are integral ------------------------

def rule_scalars(rs):
    return [c for tail in rs.rules.values() for c in tail.values()]


def column_scalars(res):
    return [c for st_ in res.stages for g in st_.gens
            for e in g.column.values() for c in e.values()]


def test_integral_rational_run_holds_no_fraction():
    # every coefficient of smith-zhang is +-1, and so is every pivot, so no
    # scalar of a FULL run over Q needs a denominator.  A Fraction here
    # means an int was coerced somewhere, which slows Q down 2-4x.  The
    # bimodule side builds no d*: its scalars are those of the matrices it
    # ranks and echelonizes (d0 and the transferred D) and the rows of its
    # splittings (the coboundary rows, residues and tags)
    p = builtin("smith-zhang", field=QQ)
    rs, rs_r = complete(p, 6), complete(opposite(p), 6)
    res = minimal_resolution(rs, 5, 6)
    tab = betti(res)
    res_r = minimal_resolution(rs_r, 5, 6, tab)
    built, ranked, split = [], [], []

    def record(*args):
        built.append(_dual_matrix(*args))
        return built[-1]

    def record_rank(m):
        ranked.append(m)
        return exactla.rank(m)

    def record_rref(m):
        ranked.append(m)
        r = exactla.rref(m)
        split.extend(r.rows)
        return r

    image = duality._Transfer._image

    def record_image(transfer, i, nu):
        images = image(transfer, i, nu)
        split.extend(images)
        return images

    class RecordingSpan(exactla.RowSpan):
        def reduce(self, vec):
            split.append(dict(vec))
            split.append(super().reduce(vec))
            return split[-1]

    with mock.patch.object(duality, "_dual_matrix", side_effect=record):
        ext_k_A(res)
        ext_k_A(res_r)
    dres, _ = diagonal_bimodule_resolution(rs, rs_r, 5, 6, tab)
    with mock.patch.object(duality, "rank", side_effect=record_rank), \
            mock.patch.object(duality, "rref", side_effect=record_rref), \
            mock.patch.object(duality, "RowSpan", RecordingSpan), \
            mock.patch.object(duality._Transfer, "_image", autospec=True,
                              side_effect=record_image) as imaged:
        t = hochschild_ext(dres)
    assert t == duality._ext_table(dres, "overAe",
                                   *duality._level_shifts(dres))
    assert imaged.call_count      # the transferred D is built
    scalars = {
        "tails": rule_scalars(rs) + rule_scalars(rs_r),
        "left": column_scalars(res),
        "right": column_scalars(res_r),
        "bimodule": column_scalars(dres),
        "d*": [v for m in built for col in m.columns for v in col.values()],
        "d0 and D": [v for m in ranked for col in m.columns
                     for v in col.values()],
        "splitting and D(e (x) 1)": [v for row in split
                                     for v in row.values()],
    }
    for where, values in scalars.items():
        assert values, where
        assert not [c for c in values if isinstance(c, Fraction)], where


class FractionQ(FieldSpec):
    """Q with every scalar a Fraction, integral or not: the representation
    before integral scalars were kept as ints."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return Fraction(a + b)

    def sub(self, a, b):
        return Fraction(a - b)

    def mul(self, a, b):
        return Fraction(a * b)

    def neg(self, a):
        return Fraction(-a)

    def inv(self, a):
        return 1 / Fraction(a)


def rational_pipeline(p, hbound, dbound):
    rs, rs_r = complete(p, dbound), complete(opposite(p), dbound)
    res = minimal_resolution(rs, hbound, dbound)
    tab = betti(res)
    return (rs.rules,
            rs.complete_below, stage_columns(res), tab,
            ext_k_A(res),
            ext_k_A(minimal_resolution(rs_r, hbound, dbound, tab)))


@given(case=random_presentations(fields=(QQ,)))
def test_integral_scalars_match_the_fraction_reference(case):
    # coefficients in -3..3 divide by non-units, so ints and Fractions mix
    p, bound = case
    assert (rational_pipeline(p, 3, bound)
            == rational_pipeline(over_field(p, FractionQ("Q")), 3, bound))
