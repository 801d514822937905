"""Exact linear algebra over the rationals and over prime fields.

Everything downstream (rewriting, graded dimension counts, resolutions,
cohomology tables) reduces to exact rank / kernel / span computations, so
this module is deliberately small and boring: scalars are `fractions.Fraction`
over Q and plain ints in ``[0, p)`` over F_p, matrices are sparse dicts, and
there is one incremental row-echelon structure (`RowSpan`) shared by all the
degreewise algorithms.

Over a prime field the elimination densifies into an int64 numpy array:
entries stay reduced mod p, and `FieldSpec` only accepts p < 2**31, so a
single product of residues is at most (p-1)**2 < 2**62.  `RowSpan` keeps its
pivot rows in one 2-D int64 block and reduces a vector with one matrix
product against the rows it touches; that product sums up to
`_exact_rows(p)` = (2**63-1) // (p-1)**2 products per entry at a time, so
every sum stays exact in int64.  Over Q the elimination is pure Python on
Fractions with a minimal-fill pivot choice.

`same_row_spans` compares the row spans of a batch of small matrix pairs
over F_p at once, for the normal-element scan: one numpy operation acts on
every pair of the batch.  Its elimination is fraction free: a row r is
cleared at the pivot column c of a pivot row with value pv there, as
r*pv - row*r[c], with no inverse.  Every residue is below p < 2**31, so
both products stay below 2**62 and their difference within +-2**62; the
result is reduced mod p before the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

DEFAULT_PRIME = 32003
SECOND_PRIME = 46337

Scalar = object  # Fraction over Q, int over F_p


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
        return 0 if self.kind == "Fp" else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.kind == "Fp" else Fraction(1)

    def from_int(self, n: int) -> Scalar:
        return n % self.p if self.kind == "Fp" else Fraction(n)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.kind == "Fp":
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def is_zero(self, a: Scalar) -> bool:
        return (a % self.p == 0) if self.kind == "Fp" else a == 0

    def describe(self) -> str:
        return "Q" if self.kind == "Q" else f"F{self.p}"


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
    """Sparse matrix as a map (row, col) -> nonzero scalar."""

    rows: int
    cols: int
    field: FieldSpec
    entries: dict = field(default_factory=dict)

    def set(self, r: int, c: int, v: Scalar) -> None:
        if self.field.is_zero(v):
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), self.field.zero())

    @classmethod
    def from_columns(cls, columns: Iterable[Mapping[int, Scalar]], rows: int,
                     field: FieldSpec) -> "SparseMatrix":
        cols = list(columns)
        m = cls(rows, len(cols), field)
        for c, colvec in enumerate(cols):
            for r, v in colvec.items():
                m.set(r, c, v)
        return m

    def column(self, c: int) -> dict:
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def to_dense_fp(self) -> np.ndarray:
        assert self.field.kind == "Fp"
        a = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (r, c), v in self.entries.items():
            a[r, c] = v % self.field.p
        return a


@dataclass
class RrefResult:
    pivots: list  # list of (row, col) in row order
    rank: int
    # F_p: the reduced matrix, whose first `rank` rows are the echelon rows
    dense: np.ndarray | None = None
    _rows: list | None = None

    @property
    def rows(self) -> list:
        """Echelon rows as dicts col -> scalar (over F_p read off `dense` on
        first use)."""
        if self._rows is None:
            self._rows = [_row_dict(self.dense[i]) for i in range(self.rank)]
        return self._rows


def _row_dict(row: np.ndarray) -> dict:
    nz = np.flatnonzero(row)
    return dict(zip(nz.tolist(), row[nz].tolist()))


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


def rref(m: SparseMatrix) -> RrefResult:
    """Reduced row echelon form.  Exact over both field kinds."""
    if m.field.kind == "Fp":
        a = m.to_dense_fp()
        piv_cols = _rref_fp_dense(a, m.field.p)
        return RrefResult([(i, c) for i, c in enumerate(piv_cols)], len(piv_cols), a)
    rowdicts: dict[int, dict] = {}
    for (r, c), v in m.entries.items():
        rowdicts.setdefault(r, {})[c] = v
    rows, piv_cols = _rref_q_rows(list(rowdicts.values()))
    return RrefResult([(i, c) for i, c in enumerate(piv_cols)], len(piv_cols),
                      _rows=rows)


def rank(m: SparseMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: SparseMatrix) -> list[dict]:
    """Basis of the right kernel {x : Mx = 0}, one dict col->scalar per basis
    vector, echelonized over the free columns in ascending order (the free
    column carries coefficient 1).  Deterministic."""
    res = rref(m)
    if m.field.kind == "Fp":
        # vector f is e_f - sum_i R[i, f] e_(piv i): column f of the reduced
        # rows R, negated, with the free column itself set to 1
        piv = np.array([c for _, c in res.pivots], dtype=np.int64)
        free = np.ones(m.cols, dtype=bool)
        free[piv] = False
        if not free.any():
            return []
        # one pass over R in memory order; copying the free columns out
        # instead would hold a second dense block next to R
        reduced = res.dense[:res.rank]
        pi, fi = np.nonzero(reduced)
        keep = free[fi]
        pi, fi = pi[keep], fi[keep]
        by_col = np.argsort(fi, kind="stable")  # by column, then pivot row
        pi, fi = pi[by_col], fi[by_col]
        vals = (-reduced[pi, fi]) % m.field.p
        del res, reduced        # free the dense matrix before the dicts
        cols = piv[pi]
        ends = np.cumsum(np.bincount(fi, minlength=m.cols)[free]).tolist()
        fp_basis = []
        lo = 0
        for f, hi in zip(np.flatnonzero(free).tolist(), ends):
            vec = {f: 1}
            vec.update(zip(cols[lo:hi].tolist(), vals[lo:hi].tolist()))
            fp_basis.append(vec)
            lo = hi
        return fp_basis
    pivot_of_col = {c: i for i, (_, c) in enumerate(res.pivots)}
    one = m.field.one()
    rows = res.rows
    basis: list[dict] = []
    for f in range(m.cols):
        if f in pivot_of_col:
            continue
        vec = {f: one}
        for i, (_, c) in enumerate(res.pivots):
            v = rows[i].get(f)
            if v is not None and not m.field.is_zero(v):
                vec[c] = m.field.neg(v)
        basis.append(vec)
    return basis


def solve_columns(columns: list[Mapping[int, Scalar]], target: Mapping[int, Scalar],
                  height: int, fieldspec: FieldSpec) -> dict | None:
    """One solution x of  sum_c x[c]*columns[c] = target, or None.

    Free variables are set to zero, so the answer is deterministic."""
    ncols = len(columns)
    m = SparseMatrix(height, ncols + 1, fieldspec)
    for c, col in enumerate(columns):
        for r, v in col.items():
            m.set(r, c, v)
    for r, v in target.items():
        m.set(r, ncols, v)
    res = rref(m)
    sol: dict = {}
    for i, (_, c) in enumerate(res.pivots):
        if c == ncols:
            return None
        v = res.rows[i].get(ncols)
        if v is not None and not fieldspec.is_zero(v):
            sol[c] = v
    return sol


# ---------------------------------------------------------------------------
# incremental spans


def _exact_rows(p: int) -> int:
    """How many products of residues mod p an int64 sum can hold exactly."""
    return (2 ** 63 - 1) // (p - 1) ** 2


# Rows gathered per matrix product in `RowSpan`, as cells: the gathered copy
# stays at 32 MB however many pivot rows a vector touches.
_GATHER_CELLS = 1 << 22


class RowSpan:
    """Growing subspace of k^width.

    `add` returns True when the vector enlarged the span; `reduce` returns the
    residue of a vector modulo the current span.  Vectors are dicts
    coordinate -> scalar.

    Over a prime field the span is kept in reduced row echelon form: the
    pivot rows are the first `rank` rows of one int64 block, in the order
    they were added, and `_cols` holds their pivot columns.  Each row is zero
    at every other pivot column, so a vector reduces in one pass: subtract
    its coefficients at the pivot columns times the rows they select.  The
    block has room for `width` rows, the most a span can hold, and is left
    uninitialised, so the pages of rows never written are never touched.
    Over Q the rows are dicts keyed by pivot column.
    """

    def __init__(self, fieldspec: FieldSpec, width: int):
        self.field = fieldspec
        self.width = width
        if fieldspec.kind == "Fp":
            self._rows: np.ndarray | None = None  # allocated by the first add
            self._cols = np.empty(width, dtype=np.int64)
            self._rank = 0
            self._step = min(_exact_rows(fieldspec.p),
                             max(1, _GATHER_CELLS // max(width, 1)))
        else:
            self._piv: dict[int, dict] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return self._rank if self.field.kind == "Fp" else len(self._piv)

    def _to_row(self, vec: Mapping[int, Scalar]):
        if self.field.kind == "Fp":
            row = np.zeros(self.width, dtype=np.int64)
            for c, v in vec.items():
                row[c] = v % self.field.p
            return row
        return {c: v for c, v in vec.items() if v != 0}

    def _reduce_row(self, row):
        if self.field.kind == "Fp":
            p = self.field.p
            coefs = row[self._cols[:self._rank]]
            nz = np.flatnonzero(coefs)
            for s in range(0, nz.size, self._step):
                sel = nz[s:s + self._step]
                row = (row - coefs[sel] @ self._rows[sel]) % p
            return row
        while True:
            row = {k: v for k, v in row.items() if v != 0}
            if not row:
                return row
            c = min(row)
            piv = self._piv.get(c)
            if piv is None:
                return row
            coef = row[c]
            row = {k: row.get(k, Fraction(0)) - coef * piv.get(k, Fraction(0))
                   for k in set(row) | set(piv)}

    def reduce(self, vec: Mapping[int, Scalar]) -> dict:
        row = self._reduce_row(self._to_row(vec))
        if self.field.kind == "Fp":
            return _row_dict(row)
        return dict(row)

    def add(self, vec: Mapping[int, Scalar]) -> bool:
        row = self._reduce_row(self._to_row(vec))
        if self.field.kind == "Fp":
            p = self.field.p
            nz = np.flatnonzero(row)
            if nz.size == 0:
                return False
            c = int(nz[0])
            if row[c] != 1:
                row[nz] = (row[nz] * pow(int(row[c]), p - 2, p)) % p
            if self._rows is None:
                self._rows = np.empty((self.width, self.width), dtype=np.int64)
            r = self._rank
            block = self._rows[:r]
            hit = np.flatnonzero(block[:, c])
            if hit.size:
                cells = np.ix_(hit, nz)
                block[cells] = (block[cells] - np.outer(block[hit, c], row[nz])) % p
            self._rows[r] = row
            self._cols[r] = c
            self._rank = r + 1
            return True
        row = {k: v for k, v in row.items() if v != 0}
        if not row:
            return False
        c = min(row)
        inv = Fraction(1) / row[c]
        row = {k: v * inv for k, v in row.items()}
        for c2, piv in list(self._piv.items()):
            coef = piv.get(c)
            if coef:
                upd = {k: piv.get(k, Fraction(0)) - coef * row.get(k, Fraction(0))
                       for k in set(piv) | set(row)}
                self._piv[c2] = {k: v for k, v in upd.items() if v != 0}
        self._piv[c] = row
        return True

    def contains(self, vec: Mapping[int, Scalar]) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        """Echelon basis rows, ordered by pivot column."""
        if self.field.kind == "Fp":
            order = np.argsort(self._cols[:self._rank])
            return [_row_dict(self._rows[i]) for i in order]
        return [dict(self._piv[c]) for c in sorted(self._piv)]

    def pivot_columns(self) -> list[int]:
        if self.field.kind == "Fp":
            return sorted(self._cols[:self._rank].tolist())
        return sorted(self._piv)


def same_row_spans(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Mask over a batch of matrix pairs: True where the rows of a[j] and of
    b[j] span the same subspace of F_p^m.  a and b are int64 arrays of shape
    (batch, k, m) with entries in [0, p).

    The spans are equal when each contains the rows of the other.  For one
    containment, y[j] is echelonized row by row: row r gets the pivot column
    cols[:, r] and the pivot value vals[:, r], and the later rows are cleared
    there.  A row of x lies in the span of y exactly when clearing it at
    those pivots in order leaves zero; a pair drops out at the first row
    that does not."""
    if a.shape[2] == 0:                 # both spans are zero
        return np.ones(a.shape[0], dtype=bool)
    keep = np.arange(a.shape[0])
    for x, y in ((a, b), (b, a)):
        y = y[keep]
        batch, k = y.shape[:2]
        at = np.arange(batch)
        cols = np.empty((batch, k), dtype=np.int64)
        vals = np.empty((batch, k), dtype=np.int64)
        for r in range(k):
            piv = y[:, r]
            c = (piv != 0).argmax(axis=1)       # 0 for a zero row
            pv = piv[at, c]
            pv[pv == 0] = 1                     # a zero row clears nothing
            coef = y[at, r + 1:, c]
            y[:, r + 1:] = mod_p(y[:, r + 1:] * pv[:, None, None]
                                 - coef[:, :, None] * piv[:, None, :], p)
            cols[:, r], vals[:, r] = c, pv
        alive = at
        for i in range(x.shape[1]):
            row = x[keep[alive], i]
            on = np.arange(alive.size)
            for r in range(k):
                c, pv = cols[alive, r], vals[alive, r]
                row = mod_p(row * pv[:, None]
                            - row[on, c][:, None] * y[alive, r], p)
            alive = alive[~row.any(axis=1)]
        keep = keep[alive]
    mask = np.zeros(a.shape[0], dtype=bool)
    mask[keep] = True
    return mask


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an int64 array.  numpy divides an int64 array by a scalar
    through libdivide but has no such path for the remainder, so this is
    several times faster than `x % p`."""
    return x - x // p * p
