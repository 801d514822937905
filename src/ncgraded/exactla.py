"""Exact linear algebra over the rationals and over prime fields.

Everything downstream (rewriting, graded dimension counts, resolutions,
cohomology tables) reduces to exact rank / kernel / span computations, so
this module is deliberately small and boring: scalars are `fractions.Fraction`
over Q and plain ints in ``[0, p)`` over F_p, matrices are sparse dicts, and
there is one incremental row-echelon structure (`RowSpan`) shared by all the
degreewise algorithms.

Over a prime field the elimination densifies into an int64 numpy array:
entries stay reduced mod p, and `FieldSpec` only accepts p < 2**31, so
every intermediate product is bounded by p**2 < 2**62 and the arithmetic is
exact.  Over Q the elimination is pure Python on Fractions with a
minimal-fill pivot choice.
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
    if name.startswith("F"):
        return FieldSpec("Fp", int(name[1:].lstrip("_")))
    raise ValueError(f"unknown field name: {name!r}")


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
    rows: list    # echelon rows as dicts col -> scalar


def _rref_fp_dense(a: np.ndarray, p: int) -> list[int]:
    """In-place reduced row echelon form mod p; returns pivot columns."""
    m, n = a.shape
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        sub = a[r:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c]
        touched = np.nonzero(col)[0]
        touched = touched[touched != r]
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
        rows = []
        for i, c in enumerate(piv_cols):
            nz = np.nonzero(a[i])[0]
            rows.append({int(j): int(a[i, j]) for j in nz})
        return RrefResult([(i, c) for i, c in enumerate(piv_cols)], len(piv_cols), rows)
    rowdicts: dict[int, dict] = {}
    for (r, c), v in m.entries.items():
        rowdicts.setdefault(r, {})[c] = v
    rows, piv_cols = _rref_q_rows(list(rowdicts.values()))
    return RrefResult([(i, c) for i, c in enumerate(piv_cols)], len(piv_cols), rows)


def rank(m: SparseMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: SparseMatrix) -> list[dict]:
    """Basis of the right kernel {x : Mx = 0}, one dict col->scalar per basis
    vector, echelonized over the free columns in ascending order (the free
    column carries coefficient 1).  Deterministic."""
    res = rref(m)
    pivot_of_col = {c: i for i, (_, c) in enumerate(res.pivots)}
    one = m.field.one()
    basis: list[dict] = []
    for f in range(m.cols):
        if f in pivot_of_col:
            continue
        vec = {f: one}
        for i, (_, c) in enumerate(res.pivots):
            v = res.rows[i].get(f)
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


class RowSpan:
    """Growing subspace of k^width kept in reduced row echelon form.

    `add` returns True when the vector enlarged the span; `reduce` returns the
    residue of a vector modulo the current span.  Vectors are dicts
    coordinate -> scalar.  Over a prime field rows are dense numpy int64
    arrays, which is what makes the degreewise resolution kernels affordable.
    """

    def __init__(self, fieldspec: FieldSpec, width: int):
        self.field = fieldspec
        self.width = width
        self._piv: dict[int, object] = {}  # pivot col -> row (ndarray or dict)

    @property
    def rank(self) -> int:
        return len(self._piv)

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
            while True:
                nz = np.nonzero(row)[0]
                if nz.size == 0:
                    return row
                c = int(nz[0])
                piv = self._piv.get(c)
                if piv is None:
                    return row
                row = (row - row[c] * piv) % p
        else:
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
            nz = np.nonzero(row)[0]
            return {int(c): int(row[c]) for c in nz}
        return dict(row)

    def add(self, vec: Mapping[int, Scalar]) -> bool:
        row = self._reduce_row(self._to_row(vec))
        if self.field.kind == "Fp":
            p = self.field.p
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                return False
            c = int(nz[0])
            row = (row * pow(int(row[c]), p - 2, p)) % p
            for c2, piv in self._piv.items():
                if piv[c]:
                    self._piv[c2] = (piv - piv[c] * row) % p
            self._piv[c] = row
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
        out = []
        for c in sorted(self._piv):
            row = self._piv[c]
            if self.field.kind == "Fp":
                nz = np.nonzero(row)[0]
                out.append({int(j): int(row[j]) for j in nz})
            else:
                out.append(dict(row))
        return out

    def pivot_columns(self) -> list[int]:
        return sorted(self._piv)
