"""End-to-end acceptance gate.

One test per shipped criterion.  Each test performs the full pipeline from
the presentation onward, asserts the stated tolerances and time budgets, and
prints a single summary line; the terminal summary repeats one PASS/FAIL
line per criterion (see conftest.py).
"""

import json
import math
import pathlib
import random
import time

import ncgraded
from ncgraded.exactla import F32003, QQ, SparseMatrix, field_from_name, kernel_basis, rref
from ncgraded.groebner import complete
from ncgraded.hilbert import gk_estimate, hilbert_function
from ncgraded.presentation import (builtin, enveloping, group_algebra_oracle,
                                   group_algebra_relations, homogenize,
                                   opposite, skew_polynomial)
from ncgraded.resolution import betti, gldim_upto, minimal_resolution
from ncgraded.duality import as_check, ext_k_A, hochschild_ext, invariant_report
from ncgraded.cli import confluence_probe, normal_element_scan

from support import (bimodule_resolution, convolution, dd_composites_vanish,
                     euler_defects)

GOLDEN = pathlib.Path(ncgraded.__file__).parent / "golden"


def full_verdict(p, hbound, dbound):
    rs = complete(p, dbound)
    res = minimal_resolution(rs, hbound, dbound)
    tab = betti(res)
    gl = gldim_upto(res)
    t_left = ext_k_A(res)
    rs_r = complete(opposite(p), dbound)
    t_right = ext_k_A(minimal_resolution(rs_r, hbound, dbound))
    return as_check(t_left, t_right, gldim=gl), tab, gl


def test_criterion_1_reference_algebra_certificates():
    t0 = time.monotonic()
    p = builtin("smith-zhang")  # F_32003
    rs = complete(p, 8)
    dims = hilbert_function(rs, 8)
    assert list(dims.dims) == [math.comb(d + 3, 3) for d in range(9)]
    res = minimal_resolution(rs, 5, 8)
    tab = betti(res)
    assert [tab.total(i) for i in range(5)] == [1, 4, 6, 4, 1]
    assert all({j: n for (ii, j), n in tab.entries.items() if ii == i}
               == {i: tab.total(i)} for i in range(5))
    assert len(res.stages[5].gens) == 0
    gl = gldim_upto(res)
    assert gl.value == 4 and gl.certified
    t_left = ext_k_A(res)
    rs_r = complete(opposite(p), 8)
    t_right = ext_k_A(minimal_resolution(rs_r, 5, 8))
    verdict = as_check(t_left, t_right, gldim=gl)
    assert verdict.status == "fails"
    assert verdict.witness is not None
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"criterion 1 PASS: dims binom(d+3,3) for d<=8, betti (1,4,6,4,1), "
          f"stage 5 empty, gldim 4 certified, pattern fails at "
          f"{verdict.witness}, {elapsed:.1f}s <= 120s")


def test_criterion_2_oracle_cross_check():
    oracle = group_algebra_oracle(8)
    rs = complete(builtin("smith-zhang"), 8)
    counts = [rs.dim(d) for d in range(9)]
    assert counts == list(oracle.image_dims)
    golden = json.loads((GOLDEN / "smith_zhang_relations.json").read_text())
    for f in (QQ, F32003):
        rels = group_algebra_relations(f, degree=2)
        assert len(rels) == len(golden["relations"]) == 6
        assert list(builtin("smith-zhang", field=f).relations) == rels
        for r, gr in zip(rels, golden["relations"]):
            got = [(list(w), c) for w, c in r.sorted_terms()]
            want = [(t["word"], f.from_int(t["coeff"])) for t in gr["terms"]]
            assert got == want
    print(f"criterion 2 PASS: normal-word counts equal oracle image "
          f"dimensions exactly for d<=8 ({counts}); 6 shipped relations "
          f"match the golden derivation over Q and F_32003")


def test_criterion_3_skew_polynomial_regularity():
    rng = random.Random(2026)
    msgs = []
    for n in (2, 3):
        t0 = time.monotonic()
        params = {(i, j): rng.randrange(1, 32003)
                  for i in range(n) for j in range(i + 1, n)}
        verdict, tab, _ = full_verdict(skew_polynomial(n, params), n + 1, 8)
        assert verdict.status == "regular"
        assert (verdict.n, verdict.l) == (n, n)
        inv = invariant_report(verdict, None)
        assert inv["fhtr"]["value"] == n
        elapsed = time.monotonic() - t0
        assert elapsed <= 30.0
        msgs.append(f"n={n}: regular({n},{n}), fhtr={n}, {elapsed:.1f}s")
    print("criterion 3 PASS: " + "; ".join(msgs) + " (<= 30s each)")


def test_criterion_4_bimodule_betti_matches_one_sided():
    msgs = []
    for name, dbound in [("polynomial-2", 8), ("quantum-plane-2", 8),
                         ("smith-zhang", 5)]:
        p = builtin(name)
        rs = complete(p, dbound)
        one_sided = betti(minimal_resolution(rs, 5, dbound))
        _, two_sided = bimodule_resolution(p, 5, dbound)
        window = min(one_sided.certified_internal, two_sided.certified_internal)
        left = {k: v for k, v in one_sided.entries.items() if k[1] <= window}
        right = {k: v for k, v in two_sided.entries.items() if k[1] <= window}
        assert left == right
        msgs.append(f"{name} (degrees <= {window})")
    print("criterion 4 PASS: bimodule Betti equals one-sided Betti for "
          + ", ".join(msgs))


def test_criterion_5_enveloping_algebra_and_bimodule_ext():
    t0 = time.monotonic()
    p = builtin("quantum-plane-2")
    verdict, _, _ = full_verdict(enveloping(p), 5, 8)
    assert verdict.status == "regular"
    assert (verdict.n, verdict.l) == (4, 4)
    dres, _ = bimodule_resolution(p, 5, 8)
    h = hochschild_ext(dres)
    assert h.nonzero_levels() == [2]
    assert all(h.zero_certified[i] for i in range(5) if i != 2)
    dims = hilbert_function(complete(p, 8), 8)
    lv = {j: n for (i, j), n in h.entries.items() if i == 2}
    assert lv and min(lv) == 2
    for j, n in lv.items():
        assert n == dims.dim(j - 2)
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    print(f"criterion 5 PASS: enveloping algebra regular(4,4); bimodule Ext "
          f"zero at levels 0,1,3,4 and equal to the shifted algebra at "
          f"level 2 on {len(lv)} degrees, {elapsed:.1f}s <= 300s")


def test_criterion_6_homogenized_weyl_pdim():
    h = homogenize(builtin("weyl-filtered"))
    rs = complete(h, 8)
    gl = gldim_upto(minimal_resolution(rs, 5, 8))
    assert gl.value == 3 and gl.certified
    rs2 = complete(builtin("polynomial-2"), 8)
    gl2 = gldim_upto(minimal_resolution(rs2, 5, 8))
    assert gl2.value == 2 and gl2.certified
    assert gl.value == gl2.value + 1
    print(f"criterion 6 PASS: homogenized first Weyl algebra has pdim k = "
          f"{gl.value} = {gl2.value} + 1, both certified")


def test_criterion_7_property_suites_three_seeds():
    names = ["free-2", "polynomial-2", "quantum-plane-2", "smith-zhang",
              "weyl-homogenized"]
    failures = []
    checks = 0
    for seed in (0, 1, 2):
        for name in names:
            p = builtin(name)
            if not confluence_probe(p, complete(p, 7), 5, seed)["agrees"]:
                failures.append(("confluence", name, seed))
            checks += 1
        rng = random.Random(seed)
        for _ in range(12):
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            m = SparseMatrix(r, [{} for _ in range(c)], F32003)
            for i in range(r):
                for j in range(c):
                    v = rng.randrange(-4, 5)
                    if v:
                        m.columns[j][i] = F32003.from_int(v)
            if rref(m).rank + len(kernel_basis(m)) != c:
                failures.append(("rank-nullity", seed, r, c))
            checks += 1
    for name in names:
        p = builtin(name)
        rs = complete(p, 8)
        res = minimal_resolution(rs, 5, 8)
        tab = betti(res)
        dims = hilbert_function(rs, 8)
        if not dd_composites_vanish(res):
            failures.append(("d^2", name))
        bad = euler_defects(tab, dims)
        if bad:
            failures.append(("euler", name, bad))
        rs_o = complete(opposite(p), 8)
        tab_o = betti(minimal_resolution(rs_o, 5, 8))
        window = min(tab.certified_internal, tab_o.certified_internal)
        if ({k: v for k, v in tab.entries.items() if k[1] <= window}
                != {k: v for k, v in tab_o.entries.items() if k[1] <= window}):
            failures.append(("opposite-betti", name))
        checks += 3
    for name in ("polynomial-2", "quantum-plane-2"):
        p = builtin(name)
        a = hilbert_function(complete(p, 6), 6).dims
        e = hilbert_function(complete(enveloping(p), 6), 6).dims
        if list(e) != convolution(a, a, 6):
            failures.append(("kunneth", name))
        checks += 1
    assert failures == []
    print(f"criterion 7 PASS: {checks} property checks over seeds 0,1,2 "
          f"(confluence, rank-nullity, d^2=0, Euler identity, opposite "
          f"Betti, enveloping Kunneth), zero failures")


def test_criterion_8_growth_estimates():
    sz = gk_estimate(hilbert_function(complete(builtin("smith-zhang"), 8), 8))
    assert not sz.exponential
    assert abs(sz.value - 4.0) <= 0.3
    flags = []
    for name in ("free-2", "free-3"):
        est = gk_estimate(hilbert_function(complete(builtin(name), 8), 8))
        assert est.exponential and est.value is None
        flags.append(name)
    print(f"criterion 8 PASS: growth estimate {sz.value:.2f} within 4 +- 0.3; "
          f"{' and '.join(flags)} flagged exponential")


def test_criterion_9_normal_element_scan():
    rs3 = complete(builtin("quantum-plane-2", field=field_from_name("F3")), 8)
    found = normal_element_scan(rs3, 1)
    assert found["heuristic"] is True
    assert found["degrees"][1]["normal"] == ["(1)*x", "(1)*y"]
    rs2 = complete(builtin("smith-zhang", field=field_from_name("F2")), 5)
    none_found = normal_element_scan(rs2, 3)
    assert none_found["heuristic"] is True
    assert none_found["skipped"] == []
    assert all(none_found["degrees"][d]["found"] == 0 for d in (1, 2, 3))
    tested = sum(none_found["degrees"][d]["tested"] for d in (1, 2, 3))
    print(f"criterion 9 PASS: scan finds exactly x and y in degree 1 over "
          f"F_3; no normal element among {tested} candidates of degree <= 3 "
          f"over F_2, reported as heuristic evidence")
