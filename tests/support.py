"""Shared oracles for structural properties of resolutions and series."""

import functools
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from ncgraded import complete, normal_form, opposite
from ncgraded.duality import _dual_matrix, diagonal_bimodule_resolution
from ncgraded.exactla import F32003, QQ, RowSpan
from ncgraded.freealg import EMPTY_WORD, FreeElement, deglex_key
from ncgraded.groebner import find_subword
from ncgraded.presentation import Presentation


# algebras with a redundant generator y, each with the builtin it
# presents: y is a lead of the algebra, and y = x*x of its opposite too,
# while y = x*z reverses to y = z*x, whose lead is z*x
REDUNDANT_GENERATORS = [
    ("polynomial-1", "algebra redundant over F32003\n"
                     "deg x = 1, y = 2\nrel y - x*x\n"),
    ("free-2", "algebra redundant over F32003\n"
               "deg x = 1, y = 2, z = 1\nrel y - x*z\n"),
]
REDUNDANT_IDS = ["y-x2", "y-xz"]


def dd_composites_vanish(res) -> bool:
    """Every composite of consecutive differentials reduces to zero."""
    rs = res.rs
    for i in range(2, len(res.stages)):
        for g in res.stages[i].gens:
            acc: dict = {}
            for h, a in g.column.items():
                for f_idx, b in res.stages[i - 1].gens[h].column.items():
                    prod = (FreeElement(rs.field, rs.degrees, a)
                            * FreeElement(rs.field, rs.degrees, b))
                    acc[f_idx] = acc[f_idx] + prod if f_idx in acc else prod
            for elem in acc.values():
                if not normal_form(rs, elem).is_zero():
                    return False
    return True


def bimodule_resolution(p, hbound, dbound, table=None):
    """`diagonal_bimodule_resolution` of p over its enveloping system, built
    from p and its opposite completed at dbound."""
    return diagonal_bimodule_resolution(
        complete(p, dbound), complete(opposite(p), dbound), hbound, dbound,
        table)


def dual_composites_vanish(res, window) -> bool:
    """Every composite of consecutive dual differentials d* o d* is zero, at
    each functional degree of the window."""
    f = res.rs.field
    lo, hi = window
    for mu in range(lo, hi + 1):
        for i in range(len(res.stages) - 2):
            first = _dual_matrix(res, i, mu).columns
            second = _dual_matrix(res, i + 1, mu).columns
            for col in first:
                acc: dict = {}
                for r, c in col.items():
                    for s, v in second[r].items():
                        acc[s] = f.add(acc.get(s, f.zero()), f.mul(c, v))
                if any(not f.is_zero(v) for v in acc.values()):
                    return False
    return True


def stage_columns(res) -> list:
    """Every stage as (degree, column) pairs, a column mapping each
    previous-stage generator to the terms dict of its entry."""
    return [[(g.degree, g.column) for g in st_.gens] for st_ in res.stages]


def euler_defects(table, dims, through: int | None = None) -> list:
    """Internal degrees where the alternating Betti convolution with the
    graded dimensions misses the trivial module, checked through degree
    `through` (default: the certified window).  Valid only when no stage
    beyond the homological window reaches those degrees."""
    n = min(table.certified_internal, dims.certified_to)
    if through is not None:
        n = min(n, through)
    bad = []
    for d in range(n + 1):
        s = 0
        for (i, j), c in table.entries.items():
            s += (-1) ** i * c * dims.dim(d - j)
        if s != (1 if d == 0 else 0):
            bad.append(d)
    return bad


def convolution(a, b, n: int) -> list:
    return [sum(a[k] * b[d - k] for k in range(d + 1)
                if k < len(a) and d - k < len(b))
            for d in range(n + 1)]


def normal_elements_one_by_one(rs, d) -> list:
    """The normal-element scan of degree d, one candidate at a time: each
    v = (0, .., 0, 1, *) over the degree-d normal words, in order, is kept
    when, over the generators g of each degree, every x_g*v lies in the span
    of the v*x_g and every v*x_g in the span of the x_g*v.  Formatted as the
    scan reports them."""
    f, degs = rs.field, rs.degrees
    basis = rs.normal_words(d)
    gens_of: dict = {}          # target degree -> generators
    for g, dg in enumerate(degs):
        gens_of.setdefault(d + dg, []).append(g)
    index = {u: i for e in gens_of for i, u in enumerate(rs.normal_words(e))}
    nf = functools.lru_cache(None)(
        lambda w: normal_form(rs, rs.monomial(w)).terms)

    def product(v, word) -> dict:
        acc: dict = {}
        for w, c in v.items():
            for u, x in nf(word(w)).items():
                acc[index[u]] = f.add(acc.get(index[u], 0), f.mul(c, x))
        return acc

    found = []
    for k in range(len(basis)):
        for tail in itertools.product(range(f.p), repeat=len(basis) - k - 1):
            v = {w: c for w, c in zip(basis[k:], (1,) + tail) if c}
            normal = True
            for e, gens in gens_of.items():
                lv = [product(v, lambda w: (g,) + w) for g in gens]
                rv = [product(v, lambda w: w + (g,)) for g in gens]
                for rows, other in ((lv, rv), (rv, lv)):
                    span = RowSpan(f)
                    for r in other:
                        span.add(r)
                    normal = normal and all(span.contains(r) for r in rows)
            if normal:
                found.append(FreeElement(f, degs, v).format(rs.names))
    return found


@st.composite
def random_presentations(draw, fields=(F32003, QQ)):
    """(presentation, completion bound): 2-3 generators of degree 1 and 1-3
    quadratic or cubic relations of 1-4 terms with coefficients in -3..3,
    over one of `fields`, completed at bound 4 or 5."""
    field = draw(st.sampled_from(fields))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    degrees = (1,) * len(names)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        words = list(itertools.product(range(len(names)),
                                       repeat=draw(st.sampled_from((2, 3)))))
        terms = draw(st.dictionaries(st.sampled_from(words),
                                     st.sampled_from((-3, -2, -1, 1, 2, 3)),
                                     min_size=1, max_size=4))
        rels.append(FreeElement(field, degrees, {w: field.from_int(c)
                                                 for w, c in terms.items()}))
    p = Presentation(field, tuple((n, 1) for n in names), rels)
    return p, draw(st.sampled_from((4, 5)))


def over_field(p, field):
    """p, whose coefficients are ints, entered over `field` by its from_int."""
    return Presentation(field, tuple((g.name, g.degree) for g in p.generators),
                        [FreeElement(field, r.degrees,
                                     {w: field.from_int(c)
                                      for w, c in r.terms.items()})
                         for r in p.relations])


@st.composite
def random_monomial_presentations(draw):
    """(presentation, completion bound): 1-3 generators of degree 1 and 1-4
    relations, each a single word of length 2 or 3 with coefficient 1, over
    F32003 or Q, completed at bound 5 or 6."""
    field = draw(st.sampled_from((F32003, QQ)))
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    degrees = (1,) * len(names)
    candidates = [w for m in (2, 3)
                  for w in itertools.product(range(len(names)), repeat=m)]
    words = draw(st.lists(st.sampled_from(candidates),
                          min_size=1, max_size=4, unique=True))
    rels = [FreeElement(field, degrees, {w: field.one()}) for w in words]
    p = Presentation(field, tuple((n, 1) for n in names), rels)
    return p, draw(st.sampled_from((5, 6)))


def anick_chain_counts(leads, degrees, max_level, cap) -> dict:
    """{(stage, degree): number of Anick chains} of the trivial module,
    stages 1..max_level and degrees <= cap, from the left form of
    Ufnarovski's graph: stage 1 holds the letters, and a stage-(i+1) chain
    puts a nonempty word u before a stage-i chain whose head (the piece put
    on last) is h, when u + h holds exactly one lead occurrence, a prefix of
    it that ends inside h.  Each u is looked for among all words."""
    leads = [tuple(w) for w in leads]
    longest = max(map(len, leads), default=1)
    words = [u for n in range(1, longest)
             for u in itertools.product(range(len(degrees)), repeat=n)]

    def occurrences(w):
        return [(k, lead) for lead in leads
                for k in range(len(w) - len(lead) + 1)
                if w[k:k + len(lead)] == lead]

    frontier = {((g,), dg): 1 for g, dg in enumerate(degrees) if dg <= cap}
    out: dict = {}
    for i in range(1, max_level + 1):
        if i > 1:
            nxt: dict = {}
            for (h, d), m in frontier.items():
                for u in words:
                    occ = occurrences(u + h)
                    dd = d + sum(degrees[g] for g in u)
                    if (len(occ) == 1 and occ[0][0] == 0
                            and len(occ[0][1]) > len(u) and dd <= cap):
                        nxt[(u, dd)] = nxt.get((u, dd), 0) + m
            frontier = nxt
        for (_, d), m in frontier.items():
            out[(i, d)] = out.get((i, d), 0) + m
    return out


# -- reference normal form ---------------------------------------------------
# A rule scan, the reference of the differential tests of `RewriteSystem.nf`
# and of completion, and the S-polynomial as FreeElement products.

def _leftmost_occurrence(rs, w):
    """(position, lead) of the leftmost reducible spot, found by scanning
    every rule; None when w is normal.  The deglex tie-break between leads
    starting at the same position never fires: completion keeps the leads
    an antichain under the subword relation, so no two of them start at one
    position."""
    best = None
    for lead in rs.rules:
        pos = find_subword(w, lead)
        if pos < 0:
            continue
        key = (pos, deglex_key(lead, rs.degrees))
        if best is None or key < best[0]:
            best = (key, pos, lead)
    if best is None:
        return None
    return best[1], best[2]


def freeelement_spoly(rs, u, v, k):
    """The S-polynomial of the ambiguity u + v[k:] of the leads u and v, as
    FreeElement products: tail_u * v[k:] - u[:len(u) - k] * tail_v."""
    def tail(lead):
        return FreeElement(rs.field, rs.degrees, rs.rules[lead])

    suffix = rs.monomial(v[k:]) if len(v) > k else rs.monomial(EMPTY_WORD)
    prefix = (rs.monomial(u[:len(u) - k]) if len(u) > k
              else rs.monomial(EMPTY_WORD))
    return tail(u) * suffix - prefix * tail(v)


def is_normal_word(rs, w) -> bool:
    """No lead is a subword of w."""
    return _leftmost_occurrence(rs, w) is None


def rule_scan_normal_form(rs, elem):
    """Fully reduce an element, finding each rewrite site by scanning the
    rules rather than through the system's lead index."""
    f = rs.field
    degrees = rs.degrees
    out: dict = {}
    work = dict(elem.terms)
    while work:
        w = max(work, key=lambda t: deglex_key(t, degrees))
        c = work.pop(w)
        if f.is_zero(c):
            continue
        occ = _leftmost_occurrence(rs, w)
        if occ is None:
            s = f.add(out.get(w, f.zero()), c)
            if f.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
            continue
        pos, lead = occ
        pre, post = w[:pos], w[pos + len(lead):]
        for tw, tc in rs.rules[lead].items():
            w2 = pre + tw + post
            s = f.add(work.get(w2, f.zero()), f.mul(c, tc))
            if f.is_zero(s):
                work.pop(w2, None)
            else:
                work[w2] = s
    return FreeElement(f, degrees, out)


# -- reference eliminations ---------------------------------------------------
# The dense int64 F_p elimination and the dict Q elimination that the sparse
# `exactla.rref` replaced, kept verbatim for the differential test.

def to_dense_fp(m) -> np.ndarray:
    assert m.field.kind == "Fp"
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    for c, col in enumerate(m.columns):
        for r, v in col.items():
            a[r, c] = v % m.field.p
    return a


def _rref_fp_dense(a: np.ndarray, p: int) -> list[int]:
    """In-place reduced row echelon form mod p; returns pivot columns."""
    m, n = a.shape
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        col = a[:, c]
        nz = np.flatnonzero(col)
        k = int(np.searchsorted(nz, r))
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            # row r is zero in column c (nz[k] is the first nonzero at or
            # below r), so after the swap the other rows of nz stay in place
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        touched = np.delete(nz, k)
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        piv_cols.append(c)
        r += 1
    return piv_cols


def _rref_q_rows(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced echelon form of dict rows over Q.  Minimal-fill pivot choice:
    among candidate rows for the current column, take one with fewest
    nonzeros.  Returns (echelon rows, pivot columns)."""
    work = [{k: v for k, v in r.items() if v != 0} for r in rows]
    work = [r for r in work if r]
    done: list[dict] = []
    piv_cols: list[int] = []
    while work:
        # invariant: every work row is nonempty with nonzero values only,
        # and its minimum key exceeds every pivot column chosen so far
        c = min(min(r) for r in work)
        cand = [r for r in work if c in r]
        pivot = min(cand, key=len)
        work.remove(pivot)
        inv = Fraction(1) / pivot[c]
        pivot = {k: v * inv for k, v in pivot.items() if v != 0}
        nxt = []
        for r in work:
            v = r.get(c)
            if v:
                r = {k: r.get(k, Fraction(0)) - v * pivot.get(k, Fraction(0))
                     for k in set(r) | set(pivot)}
                r = {k: x for k, x in r.items() if x != 0}
            if r:
                nxt.append(r)
        work = nxt
        for r in done:
            v = r.get(c)
            if v:
                upd = {k: r.get(k, Fraction(0)) - v * pivot.get(k, Fraction(0))
                       for k in set(r) | set(pivot)}
                r.clear()
                r.update({k: x for k, x in upd.items() if x != 0})
        done.append(pivot)
        piv_cols.append(c)
    # pivot columns come out strictly increasing, so no reorder is needed
    return done, piv_cols


def reference_rref(m) -> tuple:
    """(pivot columns, echelon rows as dicts col -> scalar) of a
    `SparseMatrix`, by the reference elimination of its field."""
    if m.field.kind == "Fp":
        a = to_dense_fp(m)
        piv_cols = _rref_fp_dense(a, m.field.p)
        rows = []
        for row in a[:len(piv_cols)]:
            nz = np.flatnonzero(row)
            rows.append(dict(zip(nz.tolist(), row[nz].tolist())))
        return piv_cols, rows
    rowdicts: dict = {}
    for c, col in enumerate(m.columns):
        for r, v in col.items():
            rowdicts.setdefault(r, {})[c] = v
    rows, piv_cols = _rref_q_rows(list(rowdicts.values()))
    return piv_cols, rows


def gauss_jordan(rows: list, f) -> tuple:
    """(pivot columns, echelon rows as dicts col -> scalar) of a dense
    matrix, a list of rows of equal length, by textbook Gauss-Jordan
    elimination over f: for each column from the left, swap into place the
    first row at or below the current one that is nonzero there, scale it
    to 1 and clear the column from every other row.  Scalars are combined
    by f's own operations only."""
    a = [[f.add(x, f.zero()) for x in row] for row in rows]
    pivots: list = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if not f.is_zero(a[i][c])),
                 None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for j, row in enumerate(a):
            if j != r and not f.is_zero(row[c]):
                a[j] = [f.sub(x, f.mul(row[c], y)) for x, y in zip(row, a[r])]
        pivots.append(c)
    return pivots, [{k: x for k, x in enumerate(row) if not f.is_zero(x)}
                    for row in a[:len(pivots)]]
