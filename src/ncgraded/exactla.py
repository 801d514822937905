"""Exact linear algebra over the rationals and over prime fields.

Everything downstream (rewriting, graded dimension counts, resolutions,
cohomology tables) reduces to exact rank / kernel / span computations, so
this module is deliberately small and boring: scalars over F_p are plain
ints in ``[0, p)``, scalars over Q are exact rationals, and a matrix is its
list of sparse columns.

A rational scalar is a Python int while it is integral and a
`fractions.Fraction` only once it has a denominator above 1.  Ints are
exact already, and int arithmetic costs no gcd and no allocation, so an
input with integer coefficients and pivots +-1 (every builtin but
quantum-plane-2, with its q = 2) runs at about the cost of F_p.
`FieldSpec` never returns a Fraction whose denominator is 1.  The hot loops
multiply and add scalars with the raw operators, which keep ints ints; a
Fraction enters only by the inverse of a non-unit.  What it touches may
come out as a Fraction of denominator 1, which equals and hashes as its int
but costs a gcd per operation, so every vector the products build (normal
forms, multiplication tables, the columns of the differentials and dual
differentials) is summed raw and closed by `reduce_vector`, which turns it
back into an int.  Inside the elimination such a Fraction may stay.

One reduced-echelon engine serves both fields: `RowSpan`, a growing
subspace kept in reduced row echelon form.  A row is a dict column ->
nonzero scalar, and beside the rows it keeps a map from each column to the
rows that are nonzero there, so clearing a new pivot column touches only
those rows.  The arithmetic is the same code for both fields, with a
``% p`` after each step over F_p.  `rref` is the span of a matrix's rows:
it adds them to one `RowSpan` and reads its pivots and rows.  The reduced
row echelon form of a subspace is unique, so the order of the rows changes
the work and the fill, never the result; kernels and solutions are read
off it.

Two fast paths each do one job that needs no reduced form.  `rank` is for
callers that need the rank alone, as the Ext tables do.  It reduces nothing
above a pivot.  Free pivots go first: a column with one nonzero row, or a
row with one nonzero entry, is a pivot whose elimination fills nothing, and
dropping its row and column can free the next one, so chains of them are
taken without arithmetic (Faugere and Lachartre, PASCO 2010, split such
pivots off before eliminating).  On the dual differentials of smith-zhang
FULL they carry 67 % of the rank at degree bound 6 and 50 % at 10.  The
columns left are taken left to right on their shortest row; each pivot
column is cleared from the rows not yet taken only, and each pivot row is
dropped at once, so the fill of the rows already taken is never stored.

The other, `same_row_spans`, compares the row spans of a batch of small
matrix pairs over F_p at once, for the normal-element scan: one numpy
operation acts on every pair of the batch.  Two spans are equal when they
have the same rank and one contains the other, so each side is echelonized
once and only one containment is tested.  The elimination is fraction free:
a row r is cleared at the pivot column c of a pivot row with value pv
there, as r*pv - row*r[c], with no inverse.  Both products lie in
[0, (p-1)**2] and their difference within +-(p-1)**2, and the result is
reduced mod p before the next step, so it runs in the narrowest signed
integer type that holds (p-1)**2: int8 up to p = 11, int16 up to 181, int32
up to 46337 and int64 above, where `FieldSpec`'s p < 2**31 keeps it below
2**62.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

DEFAULT_PRIME = 32003
SECOND_PRIME = 46337

Scalar = object  # int over F_p; over Q an int, or a Fraction when not integral


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals (kind 'Q') or F_p (kind 'Fp')."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rational field takes no characteristic")
        elif self.kind == "Fp":
            if not isinstance(self.p, int) or self.p < 2:
                raise ValueError(f"invalid prime: {self.p!r}")
            if self.p >= 2 ** 31:
                raise ValueError(f"prime {self.p} too large: need p < 2**31 so "
                                 "that products of residues fit in int64")
            if any(self.p % q == 0 for q in range(2, int(self.p ** 0.5) + 1)):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind: {self.kind!r}")

    # -- scalar arithmetic ------------------------------------------------

    def zero(self) -> Scalar:
        return 0

    def one(self) -> Scalar:
        return 1

    def from_int(self, n: int) -> Scalar:
        return n % self.p if self.kind == "Fp" else n

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == "Fp" else _rational(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.kind == "Fp" else _rational(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == "Fp" else _rational(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == "Fp" else _rational(-a)

    def inv(self, a: Scalar) -> Scalar:
        if self.kind == "Fp":
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if type(a) is int and (a == 1 or a == -1):
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a))

    def is_zero(self, a: Scalar) -> bool:
        return (a % self.p == 0) if self.kind == "Fp" else a == 0

    def describe(self) -> str:
        return "Q" if self.kind == "Q" else f"F{self.p}"


def _rational(x: Scalar) -> Scalar:
    """A rational scalar as an int when it is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def reduce_vector(acc: dict, p: int | None) -> dict:
    """The nonzero entries of a coordinate vector whose scalars were summed
    with the raw operators: over F_p reduced mod p, over Q (p is None) each
    an int when it is integral."""
    if p is None:
        return {r: _rational(v) for r, v in acc.items() if v}
    return {r: v % p for r, v in acc.items() if v % p}


def combination(vectors: list, coefs: Mapping[int, Scalar],
                p: int | None) -> dict:
    """sum coefs[k] * vectors[k] over the k of `coefs`, as `reduce_vector`
    writes it."""
    acc: dict = {}
    for k, c in coefs.items():
        for r, v in vectors[k].items():
            acc[r] = acc.get(r, 0) + c * v
    return reduce_vector(acc, p)


QQ = FieldSpec("Q")
F32003 = FieldSpec("Fp", DEFAULT_PRIME)
F46337 = FieldSpec("Fp", SECOND_PRIME)


def field_from_name(name: str) -> FieldSpec:
    """Parse 'Q', 'Fp', or 'F<prime>' (e.g. 'F32003')."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name in ("Fp", "F_p"):
        return F32003
    digits = name[1:].lstrip("_")
    if name.startswith("F") and digits.isdecimal():
        return FieldSpec("Fp", int(digits))
    raise ValueError(f"unknown field name {name!r}")


# ---------------------------------------------------------------------------
# sparse matrices


@dataclass
class SparseMatrix:
    """A matrix as its list of sparse columns, each a dict row -> scalar.
    Values need not be reduced: the elimination reduces them mod p and drops
    the zeros as it reads them."""

    rows: int
    columns: list
    field: FieldSpec

    @property
    def cols(self) -> int:
        return len(self.columns)


# ---------------------------------------------------------------------------
# the elimination


def _sub(row: dict, coef: Scalar, piv: Mapping[int, Scalar], p: int | None,
         at: dict | None = None, i: int | None = None) -> None:
    """row -= coef * piv in place, dropping the zeros.  With `at`, keep the
    column index of row i up to date."""
    for k, v in piv.items():
        x = row.get(k)
        if x is None:
            x = -coef * v
            row[k] = x % p if p else x
            if at is not None:
                at.setdefault(k, set()).add(i)
            continue
        x -= coef * v
        if p:
            x %= p
        if x:
            row[k] = x
        else:
            del row[k]
            if at is not None:
                at[k].discard(i)


class RowSpan:
    """Growing subspace of k^n, kept in reduced row echelon form.

    `add` returns True when the vector enlarged the span; `reduce` returns the
    residue of a vector modulo the current span.  Vectors are dicts
    coordinate -> scalar.

    The pivot rows are kept under their pivot columns.  Each is zero at every
    other pivot column, so a vector reduces in one pass: subtract its
    coefficients at the pivot columns times the rows they select.  `add`
    clears the new pivot column only from the rows the column index lists.
    """

    def __init__(self, fieldspec: FieldSpec):
        self.field = fieldspec
        self._rows: dict[int, dict] = {}    # pivot column -> its row
        self._at: dict[int, set] = {}       # column -> pivots of its rows

    def reduce(self, vec: Mapping[int, Scalar]) -> dict:
        p = self.field.p
        if p:
            row = {c: v % p for c, v in vec.items() if v % p}
        else:
            row = {c: v for c, v in vec.items() if v}
        pivots = self._rows
        for c, coef in [(c, v) for c, v in row.items() if c in pivots]:
            _sub(row, coef, pivots[c], p)
        return row

    def add(self, vec: Mapping[int, Scalar]) -> bool:
        row = self.reduce(vec)
        if not row:
            return False
        c, p, at = min(row), self.field.p, self._at
        inv = self.field.inv(row[c])
        if inv != 1:
            for k, v in row.items():
                row[k] = v * inv % p if p else v * inv
        for j in list(at.get(c, ())):
            other = self._rows[j]
            _sub(other, other[c], row, p, at, j)
        self._rows[c] = row
        for k in row:
            at.setdefault(k, set()).add(c)
        return True

    def contains(self, vec: Mapping[int, Scalar]) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        """Echelon basis rows, ordered by pivot column."""
        return [dict(self._rows[c]) for c in self.pivot_columns()]

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)


@dataclass
class RrefResult:
    pivots: list  # pivot column of each echelon row, ascending
    rank: int
    rows: list    # the echelon rows, dicts col -> scalar, in row order


def _load(m: SparseMatrix) -> tuple[dict, dict]:
    """The nonzero entries of m as dict rows, over F_p reduced mod p, and
    the map from each column to the rows nonzero there."""
    p = m.field.p
    rows: dict[int, dict] = {}
    at: dict[int, set] = {}
    for c, col in enumerate(m.columns):
        for r, v in col.items():
            if p:
                v %= p
            if v:
                rows.setdefault(r, {})[c] = v
                at.setdefault(c, set()).add(r)
    return rows, at


def rref(m: SparseMatrix) -> RrefResult:
    """Reduced row echelon form.  Exact over both field kinds: the span of
    the rows of m, which `RowSpan` keeps in that form."""
    span = RowSpan(m.field)
    for row in _load(m)[0].values():
        span.add(row)
    pivots = span.pivot_columns()
    return RrefResult(pivots, len(pivots), span.basis())


def rank(m: SparseMatrix) -> int:
    """The rank, from an echelon form that is never reduced.

    Free pivots are taken first: a column with one nonzero row, or a row
    with one nonzero entry, pivots with no fill, and dropping its row and
    column may free others.  The columns left are then taken left to right,
    each on its shortest row (the lowest on a tie); the pivot column is
    cleared from the rows not yet taken, and the pivot row is dropped."""
    p = m.field.p
    rows, at = _load(m)
    rk = 0
    free = [(True, c) for c, s in at.items() if len(s) == 1]
    free += [(False, i) for i, row in rows.items() if len(row) == 1]
    while free:
        is_col, k = free.pop()
        if is_col:                  # column k is nonzero in one row only
            if len(at.get(k, ())) != 1:
                continue
            (i,) = at.pop(k)
            for c in rows.pop(i):
                if c != k:
                    s = at[c]
                    s.discard(i)
                    if len(s) == 1:
                        free.append((True, c))
                    elif not s:
                        del at[c]
        else:                       # row k is nonzero in one column only
            row = rows.get(k)
            if row is None or len(row) != 1:
                continue
            del rows[k]
            (c,) = row
            for j in at.pop(c):
                if j != k:
                    other = rows[j]
                    del other[c]
                    if len(other) == 1:
                        free.append((False, j))
                    elif not other:
                        del rows[j]
        rk += 1
    inv = m.field.inv
    for c in sorted(at):
        cand = at[c]
        if not cand:
            continue
        i = min(cand, key=lambda i: (len(rows[i]), i))
        piv = rows.pop(i)
        for k in piv:
            at[k].discard(i)
        scale = inv(piv[c])
        for j in list(cand):
            other = rows[j]
            coef = other[c] * scale
            _sub(other, coef % p if p else coef, piv, p, at, j)
        del at[c]
        rk += 1
    return rk


def kernel_basis(m: SparseMatrix) -> list[dict]:
    """Basis of the right kernel {x : Mx = 0}, one dict col->scalar per basis
    vector, echelonized over the free columns in ascending order (the free
    column carries coefficient 1, then the pivot columns follow in ascending
    order).  Deterministic."""
    res = rref(m)
    one = m.field.one()
    pivot_cols = set(res.pivots)
    basis = {f: {f: one} for f in range(m.cols) if f not in pivot_cols}
    # vector f is e_f - sum_i R[i, f] e_(pivot i); a reduced row is zero at
    # every other pivot column, so each of its other nonzeros is free
    for c, row in zip(res.pivots, res.rows):
        for f, v in row.items():
            if f != c:
                basis[f][c] = m.field.neg(v)
    return list(basis.values())


def solve_columns(columns: list[Mapping[int, Scalar]], target: Mapping[int, Scalar],
                  height: int, fieldspec: FieldSpec) -> dict | None:
    """One solution x of  sum_c x[c]*columns[c] = target, or None.

    Free variables are set to zero, so the answer is deterministic."""
    ncols = len(columns)
    res = rref(SparseMatrix(height, [*columns, target], fieldspec))
    if res.pivots and res.pivots[-1] == ncols:
        return None
    # an echelon row holds no zeros
    return {c: row[ncols] for c, row in zip(res.pivots, res.rows)
            if ncols in row}


def same_row_spans(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Mask over a batch of matrix pairs: True where the rows of a[j] and of
    b[j] span the same subspace of F_p^m.  a and b are integer arrays of
    shape (batch, k, m) with values in [0, p).

    b[j] is echelonized row by row: row r gets the pivot column cols[:, r]
    and the pivot value vals[:, r], and the later rows are cleared there.
    A row of a lies in the span of b exactly when clearing it at those
    pivots in order leaves zero; a pair drops out at the first row that
    does not.  The pairs left have equal spans when their ranks, the
    nonzero rows of each echelon form, agree."""
    if a.size == 0:                     # no pair, or both spans zero
        return np.ones(a.shape[0], dtype=bool)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if (p - 1) ** 2 <= np.iinfo(t).max)
    a, (y, cols, vals) = a.astype(dtype), _echelon(b.astype(dtype), p)
    alive = np.arange(a.shape[0])
    for i in range(a.shape[1]):
        row = a[alive, i]
        on = np.arange(alive.size)
        for r in range(y.shape[1]):
            c, pv = cols[alive, r], vals[alive, r]
            row = mod_p(row * pv[:, None]
                        - row[on, c][:, None] * y[alive, r], p)
        alive = alive[~row.any(axis=1)]
    rank_a = _echelon(a[alive], p)[0].any(axis=2).sum(axis=1)
    mask = np.zeros(a.shape[0], dtype=bool)
    mask[alive[rank_a == y[alive].any(axis=2).sum(axis=1)]] = True
    return mask


def _echelon(y: np.ndarray, p: int) -> tuple:
    """Echelonize a batch y in place; return it with the pivot column and
    pivot value of each row (column 0 and value 1 for a zero row, which
    clears nothing)."""
    batch, k = y.shape[:2]
    at = np.arange(batch)
    cols = np.empty((batch, k), dtype=np.intp)
    vals = np.empty((batch, k), dtype=y.dtype)
    for r in range(k):
        piv = y[:, r]
        c = (piv != 0).argmax(axis=1)       # 0 for a zero row
        pv = piv[at, c]
        pv[pv == 0] = 1
        coef = y[at, r + 1:, c]
        y[:, r + 1:] = mod_p(y[:, r + 1:] * pv[:, None, None]
                             - coef[:, :, None] * piv[:, None, :], p)
        cols[:, r], vals[:, r] = c, pv
    return y, cols, vals


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for a signed integer array.  numpy divides an integer array by
    a scalar through libdivide but has no such path for the remainder, so
    this is several times faster than `x % p`."""
    return x - x // p * p
