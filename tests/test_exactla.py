"""Exact linear algebra: elimination, kernels, incremental spans, solving."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgraded import resolution
from ncgraded.exactla import (F32003, F46337, QQ, FieldSpec, RowSpan,
                              SparseMatrix, field_from_name, kernel_basis,
                              rank, rref, same_row_spans, solve_columns)
from ncgraded.groebner import complete
from ncgraded.presentation import parse
from ncgraded.resolution import minimal_resolution

from support import (dd_composites_vanish, gauss_jordan, random_presentations,
                     reference_rref)


def from_rows(rows, f):
    columns = [{} for _ in (rows[0] if rows else ())]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            s = f.from_int(v)
            if not f.is_zero(s):
                columns[j][i] = s
    return SparseMatrix(len(rows), columns, f)


def apply_columns(columns, x, f):
    out: dict = {}
    for c, coef in x.items():
        for r, v in columns[c].items():
            s = f.add(out.get(r, f.zero()), f.mul(coef, v))
            if f.is_zero(s):
                out.pop(r, None)
            else:
                out[r] = s
    return out


int_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def int_matrices(draw, maxd=5):
    r = draw(st.integers(1, maxd))
    c = draw(st.integers(1, maxd))
    return draw(st.lists(
        st.lists(int_entries, min_size=c, max_size=c),
        min_size=r, max_size=r))


# -- fields -------------------------------------------------------------------

def test_field_names():
    assert field_from_name("Q") == QQ
    assert field_from_name("F32003") == F32003
    assert field_from_name("F2").p == 2


@pytest.mark.parametrize("bad", ["F4", "F0", "F1", "G5", "", "F4294967311",
                                 "F1000000000000000000000000000057", "Fx"])
def test_field_name_rejects(bad):
    with pytest.raises(ValueError):
        field_from_name(bad)


def test_malformed_field_name_is_named():
    with pytest.raises(ValueError, match="^unknown field name 'Fx'$"):
        field_from_name("Fx")


def test_prime_field_arithmetic():
    f = field_from_name("F7")
    assert f.add(f.from_int(5), f.from_int(4)) == 2
    assert f.mul(f.inv(f.from_int(3)), f.from_int(3)) == 1
    assert f.is_zero(f.sub(f.from_int(7), f.zero()))


def test_rational_arithmetic():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.neg(QQ.one()) == Fraction(-1)


def exactly(value, expected):
    """`value` equals `expected` and is of its very type."""
    return type(value) is type(expected) and value == expected


def test_rational_scalars_are_ints_while_integral():
    assert exactly(QQ.zero(), 0) and exactly(QQ.one(), 1)
    assert exactly(QQ.from_int(-7), -7)
    for unit in (1, -1, Fraction(1), Fraction(-1)):
        assert exactly(QQ.inv(unit), int(unit))
    assert exactly(QQ.inv(2), Fraction(1, 2))
    assert exactly(QQ.inv(Fraction(1, 3)), 3)
    assert exactly(QQ.mul(Fraction(1, 2), 2), 1)
    assert exactly(QQ.add(Fraction(1, 2), Fraction(1, 2)), 1)
    assert exactly(QQ.sub(Fraction(5, 2), Fraction(1, 2)), 2)
    assert exactly(QQ.neg(Fraction(4, 2)), -2)
    assert exactly(QQ.mul(Fraction(1, 2), 3), Fraction(3, 2))


def test_parsed_rational_coefficients_are_ints_until_divided():
    (rel,) = parse("""
algebra c over Q
deg x = 1, y = 1
rel 2*y*x - 1/2*x*y + 4/2*x*x
""").relations
    assert exactly(rel.terms[(1, 0)], 2)
    assert exactly(rel.terms[(0, 1)], Fraction(-1, 2))
    assert exactly(rel.terms[(0, 0)], 2)


# -- elimination --------------------------------------------------------------

def test_rref_rank_deficient_q():
    m = from_rows([[1, 2], [2, 4]], QQ)
    r = rref(m)
    assert r.rank == 1
    assert r.pivots == [0]


def test_rref_full_rank_fp():
    m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], F32003)
    assert rref(m).rank == 3
    # same matrix is singular in characteristic 2
    assert rref(from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                          field_from_name("F2"))).rank == 2


@pytest.mark.parametrize("f", [FieldSpec("Fp", 2), F32003,
                               FieldSpec("Fp", 2 ** 31 - 1), QQ])
@given(data=st.data())
def test_rref_matches_deleted_eliminations(f, data):
    # the dense F_p and the dict Q elimination that the sparse one replaced
    # (tests/support.py) give the same pivots and the same echelon rows
    r, c = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
    # mostly nonzero entries, and residues near p, so that rows fill in and
    # earlier pivot rows must be cleared at later pivot columns
    if f.kind == "Fp":
        entry = st.one_of(st.integers(1, f.p - 1),
                          st.integers(max(f.p - 3, 1), f.p - 1), st.just(0))
    else:
        entry = st.one_of(st.integers(-9, 9), st.just(0))
    rows = [data.draw(st.lists(entry, min_size=c, max_size=c))
            for _ in range(r)]
    # some rows are combinations of earlier ones, so that ranks vary
    for i in range(1, r):
        if data.draw(st.booleans()):
            coefs = [data.draw(entry) for _ in range(i)]
            rows[i] = [sum(a * row[j] for a, row in zip(coefs, rows))
                       for j in range(c)]
    m = from_rows(rows, f)
    res = rref(m)
    piv_cols, ref_rows = reference_rref(m)
    assert res.pivots == piv_cols
    assert res.rank == len(piv_cols)
    assert res.rows == ref_rows


@st.composite
def rank_cases(draw, f):
    """A matrix built from the pieces the free pivots of `rank` meet:
    singleton rows, staircases of two-entry rows (which free one column
    after another), copies of earlier rows, dense rows, and columns that
    stay zero; transposed half the time, so that singleton rows become
    singleton columns.  Matrices with no rows or no columns occur.  Over
    F_p some entries are unreduced or multiples of p, over Q they are ints
    and Fractions."""
    if f.kind == "Fp":
        entry = st.one_of(st.integers(1, f.p - 1),
                          st.integers(-2 * f.p, 2 * f.p))
    else:
        entry = st.one_of(st.integers(-4, 4),
                          st.fractions(-4, 4, max_denominator=5))
    ncols = draw(st.integers(0, 9))
    rows: list = []
    for _ in range(draw(st.integers(0, 9))):
        if not ncols:
            rows.append({})
            continue
        kind = draw(st.sampled_from(["single", "staircase", "copy", "dense"]))
        c = draw(st.integers(0, ncols - 1))
        if kind == "single":
            rows.append({c: draw(entry)})
        elif kind == "staircase":
            for k in range(c, min(c + draw(st.integers(1, 4)), ncols)):
                rows.append({k: draw(entry), min(k + 1, ncols - 1): draw(entry)})
        elif kind == "copy" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1)))
            rows.append({k: draw(entry) for k in sorted(cols)})
    if draw(st.booleans()):             # the rows as the columns
        return SparseMatrix(ncols, rows, f)
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k, v in row.items():
            columns[k][i] = v
    return SparseMatrix(len(rows), columns, f)


@pytest.mark.parametrize("f", [FieldSpec("Fp", 2), F32003,
                               FieldSpec("Fp", 2 ** 31 - 1), QQ])
@settings(max_examples=150)
@given(data=st.data())
def test_rank_matches_rref(f, data):
    m = data.draw(rank_cases(f))
    assert rank(m) == rref(m).rank


@given(case=random_presentations())
def test_resolution_kernels_match_deleted_eliminations(case):
    # every kernel matrix of a real resolution, over F32003 or Q, has the
    # same pivots and echelon rows under the reference elimination of its
    # field; these are larger and sparser than the drawn matrices above
    p, bound = case
    shapes = []

    def checked(m):
        res = rref(m)
        piv_cols, ref_rows = reference_rref(m)
        assert res.pivots == piv_cols
        assert res.rows == ref_rows
        shapes.append((m.rows, m.cols))
        return kernel_basis(m)

    with mock.patch.object(resolution, "kernel_basis", checked):
        res = minimal_resolution(complete(p, bound), 3, bound)
    assert shapes
    assert dd_composites_vanish(res)


def _kernel_by_loop(m):
    """The kernel read off the dict echelon rows, one free column at a time."""
    res = rref(m)
    pivot_of_col = {c: i for i, c in enumerate(res.pivots)}
    basis = []
    for f in range(m.cols):
        if f in pivot_of_col:
            continue
        vec = {f: m.field.one()}
        for i, c in enumerate(res.pivots):
            v = res.rows[i].get(f)
            if v is not None and not m.field.is_zero(v):
                vec[c] = m.field.neg(v)
        basis.append(vec)
    return basis


@pytest.mark.parametrize("f", [FieldSpec("Fp", 2), F32003,
                               FieldSpec("Fp", 2 ** 31 - 1), QQ])
@given(rows=int_matrices(maxd=7))
def test_kernel_basis_matches_dict_loop(f, rows):
    m = from_rows(rows, f)
    # same vectors in the same order, each with the same key order
    assert ([list(v.items()) for v in kernel_basis(m)]
            == [list(v.items()) for v in _kernel_by_loop(m)])


def test_kernel_known():
    m = from_rows([[1, 2], [2, 4]], QQ)
    (k,) = kernel_basis(m)
    assert apply_columns(m.columns, k, QQ) == {}


@pytest.mark.parametrize("f", [FieldSpec("Fp", 2), F32003, QQ])
@pytest.mark.parametrize("cols", [0, 4])
def test_kernel_of_a_matrix_without_rows_is_the_unit_vectors(f, cols):
    # a d* out of a level with nothing above it has no rows; its cocycles
    # are every functional, in column order
    m = SparseMatrix(0, [{} for _ in range(cols)], f)
    assert kernel_basis(m) == [{c: f.one()} for c in range(cols)]


@pytest.mark.parametrize("f", [F32003, QQ])
@given(rows=int_matrices())
def test_rank_nullity_and_kernel_annihilates(f, rows):
    m = from_rows(rows, f)
    ker = kernel_basis(m)
    assert rref(m).rank + len(ker) == m.cols
    for v in ker:
        assert v
        assert apply_columns(m.columns, v, f) == {}


@given(rows=int_matrices())
def test_rank_agrees_across_fields(rows):
    # entries in [-3, 3] on a <=5x5 matrix keep every minor far below
    # both primes, so characteristic cannot change the rank
    ranks = {rref(from_rows(rows, f)).rank for f in (QQ, F32003, F46337)}
    assert len(ranks) == 1


# -- solving ------------------------------------------------------------------

@given(rows=int_matrices(), coeffs=st.lists(int_entries, min_size=1, max_size=5))
def test_solve_columns_recovers_membership(rows, coeffs):
    f = F32003
    m = from_rows(rows, f)
    cols = m.columns
    x = {j: f.from_int(c) for j, c in enumerate(coeffs[:m.cols])
         if not f.is_zero(f.from_int(c))}
    target = apply_columns(cols, x, f)
    sol = solve_columns(cols, target, m.rows, f)
    assert sol is not None
    assert apply_columns(cols, sol, f) == target


def test_solve_columns_inconsistent():
    f = QQ
    cols = [{0: f.one()}, {0: f.from_int(2)}]
    assert solve_columns(cols, {1: f.one()}, 2, f) is None
    assert solve_columns(cols, {0: f.from_int(5)}, 2, f) is not None


def test_solve_columns_empty_target():
    assert solve_columns([{0: QQ.one()}], {}, 1, QQ) == {}


# -- incremental spans --------------------------------------------------------

# F_(2^31-1) is the largest field FieldSpec takes: there a product of two
# residues passes 2^61, so a reduction must stay exact beyond 64 bits
SPAN_FIELDS = (FieldSpec("Fp", 2), F32003, FieldSpec("Fp", 2 ** 31 - 1))


@given(data=st.data())
def test_rowspan_matches_rref(data):
    # rref is a RowSpan of the matrix's rows, so both are checked against a
    # dense textbook Gauss-Jordan elimination (tests/support.py)
    for f in (*SPAN_FIELDS, QQ):
        _check_rowspan_and_rref_against_gauss_jordan(f, data)


def _check_rowspan_and_rref_against_gauss_jordan(f, data):
    width = data.draw(st.integers(1, 7))
    # residues near p as well, so that over F_(2^31-1) the summed products
    # pass 2^63; over Q ints and fractions
    if f.kind == "Fp":
        residues = st.one_of(st.integers(0, f.p - 1),
                             st.integers(max(f.p - 3, 0), f.p - 1))
    else:
        residues = st.one_of(st.integers(-9, 9),
                             st.fractions(-4, 4, max_denominator=5))
    # zeros often, so that ranks and pivots vary
    entry = st.one_of(st.just(0), residues)
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                              min_size=1, max_size=8))
    vecs = [{j: c for j, c in enumerate(row) if c} for row in rows]
    span = RowSpan(f)
    for k, v in enumerate(vecs):
        before = len(span.pivot_columns())
        grew = span.add(v)
        rank = len(span.pivot_columns())
        assert rank == len(gauss_jordan(rows[:k + 1], f)[0])
        assert grew == (rank == before + 1)
    pivots, echelon = gauss_jordan(rows, f)
    assert span.basis() == echelon
    assert span.pivot_columns() == pivots
    ref = rref(from_rows(rows, f))
    assert (ref.pivots, ref.rank, ref.rows) == (pivots, len(pivots), echelon)
    for v in vecs:
        assert span.contains(v)
        assert span.reduce(v) == {}
    # the residue of any vector: v minus its pivot-column coefficients
    # times the echelon rows, which is zero at every pivot column
    probe = data.draw(st.lists(residues, min_size=width, max_size=width))
    want = dict(enumerate(probe))
    for c, row in zip(pivots, echelon):
        coef = probe[c]
        for j, x in row.items():
            want[j] = f.sub(want[j], f.mul(coef, x))
    want = {j: x for j, x in want.items() if x}
    assert span.reduce({j: c for j, c in enumerate(probe) if c}) == want
    assert span.contains(want) == (not want)


def test_rowspan_reduction_stays_exact_at_largest_prime():
    # 8 rows e_i - e_8 and the vector -(e_0 + ... + e_7): its residue at
    # column 8 sums eight products (p-1)**2, about 2^65 in all, which int64
    # holds only two at a time
    f = SPAN_FIELDS[-1]
    p = f.p
    span = RowSpan(f)
    for i in range(8):
        assert span.add({i: 1, 8: p - 1})
    assert span.reduce({i: p - 1 for i in range(8)}) == {8: p - 8}


@given(data=st.data())
def test_same_row_spans_matches_rowspan(data):
    # the elimination runs in int8 up to p = 11, int16 up to 181, int32 up
    # to 46337 and int64 above: a prime on each side of every boundary
    for p in (2, 3, 11, 13, 181, 191, 46337, 46349, 2 ** 31 - 1):
        _check_same_row_spans(FieldSpec("Fp", p), data)


def _check_same_row_spans(f, data):
    p = f.p
    batch = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(0, p - 1),
                      st.integers(max(p - 3, 0), p - 1))

    def matrix(rows, cols):
        return [data.draw(st.lists(entry, min_size=cols, max_size=cols))
                for _ in range(rows)]

    def mix(coefs, rows):       # combinations of the rows, exact mod p
        return [[sum(c * r[j] for c, r in zip(row, rows)) % p
                 for j in range(m)] for row in coefs]

    a, b = [], []
    for _ in range(batch):
        x, y = matrix(k, m), matrix(k, m)
        # one side often spans a subspace of the other, or the same space
        how = data.draw(st.sampled_from(("free", "b_in_a", "a_in_b")))
        if how == "b_in_a":
            y = mix(matrix(k, k), x)
        elif how == "a_in_b":
            x = mix(matrix(k, k), y)
        a.append(x)
        b.append(y)

    def basis(rows):
        span = RowSpan(f)
        for r in rows:
            span.add({j: c for j, c in enumerate(r) if c})
        return span.basis()

    got = same_row_spans(np.array(a, dtype=np.int64).reshape(batch, k, m),
                         np.array(b, dtype=np.int64).reshape(batch, k, m), p)
    assert got.tolist() == [basis(x) == basis(y) for x, y in zip(a, b)]


def test_rowspan_growth_flag():
    span = RowSpan(QQ)
    assert span.add({0: QQ.one()}) is True
    assert span.add({0: QQ.from_int(2)}) is False
    assert span.add({1: QQ.one(), 2: QQ.one()}) is True
    assert not span.contains({2: QQ.one()})
    assert span.pivot_columns() == [0, 1]
