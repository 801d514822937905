"""Shared oracles for structural properties of resolutions and series."""

from ncgraded import normal_form
from ncgraded.duality import _dual_matrix


def dd_composites_vanish(res) -> bool:
    """Every composite of consecutive differentials reduces to zero."""
    rs = res.rs
    for i in range(2, len(res.stages)):
        for g in res.stages[i].gens:
            acc: dict = {}
            for h, a in g.column.items():
                for f_idx, b in res.stages[i - 1].gens[h].column.items():
                    prod = a * b
                    acc[f_idx] = acc[f_idx] + prod if f_idx in acc else prod
            for elem in acc.values():
                if not normal_form(rs, elem).is_zero():
                    return False
    return True


def dual_composites_vanish(res, engine, window) -> bool:
    """Every composite of consecutive dual differentials d* o d* is zero, at
    each functional degree of the window."""
    f = res.rs.field
    lo, hi = window
    for mu in range(lo, hi + 1):
        for i in range(len(res.stages) - 2):
            first, _ = _dual_matrix(res, i, mu, engine)
            second, _ = _dual_matrix(res, i + 1, mu, engine)
            for col in first:
                acc: dict = {}
                for r, c in col.items():
                    for s, v in second[r].items():
                        acc[s] = f.add(acc.get(s, f.zero()), f.mul(c, v))
                if any(not f.is_zero(v) for v in acc.values()):
                    return False
    return True


def euler_defects(table, dims) -> list:
    """Internal degrees where the alternating Betti convolution with the
    graded dimensions misses the trivial module.  Valid only when every
    resolution stage fits inside the homological window."""
    n = min(table.certified_internal, dims.certified_to)
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
