"""Command-line pipeline: select or parse an algebra, complete it to the
requested degree, and run the chosen checks, emitting a text summary and an
optional JSON report.

Note -h belongs to the homological bound, so the parser runs with
add_help=False and help lives on --help.

A result becomes its report section through `_json`, which writes a
dataclass as the dict of its fields: the result classes are the schema.

The normal-element scan lives here rather than next to the certified
invariants: its answer depends on the chosen finite field and on an
enumeration cutoff, so it is evidence, not a theorem, and the report says so.
It runs over any prime field, one block of candidates per numpy operation.
A candidate that commutes with every generator is normal at once; only the
others get a span test (`exactla.same_row_spans`, in the narrowest integer
type that holds (p-1)**2), and a target degree whose generators commute
with every element forms no products at all.  Each normal element is kept
as its base-p code and written from two tables, one for the low and one for
the high half of its digits.  A degree whose p**dim candidates exceed
SCAN_GUARD = 2**22 is listed under `skipped` instead, and a degree bound at
or below the top generator degree leaves no degree to scan.

Exit codes of `main`: 0 success, 1 a `--claim` mismatch, 2 a usage error,
3 a failed resolution, 4 any other internal error, reported on one line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from .exactla import (F32003, FieldSpec, field_from_name, mod_p,
                      same_row_spans)
from .freealg import word_degree
from .presentation import (FilteredPresentation, Presentation,
                           PresentationError, builtin, builtin_names,
                           homogenize, opposite, parse)
from .groebner import RewriteSystem, complete
from .hilbert import (ClaimSyntaxError, gk_estimate, hilbert_function,
                      verify_rational)
from .resolution import (ResolutionError, betti, gldim_upto, koszul_check,
                         minimal_resolution)
from .duality import (ASVerdict, as_check, diagonal_bimodule_resolution,
                      ext_k_A, hochschild_ext, invariant_report,
                      rigidity_check)

CHECK_NAMES = ("hilbert", "betti", "koszul", "asregular", "hochschild",
               "rigidity", "normal-elements")
DEFAULT_CHECKS = ("hilbert", "betti", "koszul", "asregular")
SCAN_GUARD = 1 << 22
# Candidates per block of the normal-element scan, bounded by the cells of
# their products per target degree: 2**16 cells are 512 KB per side
_SCAN_CELLS = 1 << 16


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    input: str
    is_path: bool = False
    field: FieldSpec = F32003
    degree_bound: int = 8
    homological_bound: int = 5
    checks: tuple = DEFAULT_CHECKS
    claim: str | None = None
    json_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.degree_bound < 2:
            raise UsageError("degree bound must be at least 2")
        if self.homological_bound < 1:
            raise UsageError("homological bound must be at least 1")
        bad = [c for c in self.checks if c not in CHECK_NAMES]
        if bad:
            raise UsageError(f"unknown checks: {', '.join(bad)} "
                             f"(known: {', '.join(CHECK_NAMES)})")


# ---------------------------------------------------------------------------
# heuristic scans


def normal_element_scan(rs: RewriteSystem, dmax: int) -> dict:
    """Enumerate nonzero degree-d elements up to scalar for d <= dmax and
    test two-sided normality (g*v in v*A and v*g in A*v for every generator).
    Prime fields only; degrees whose point count p**dim exceeds SCAN_GUARD
    are skipped and listed."""
    f = rs.field
    if f.kind != "Fp":
        raise UsageError("normal-element scan needs a finite prime field")
    p = f.p
    findings: dict = {"field": f.describe(), "heuristic": True,
                      "degrees": {}, "skipped": []}
    scannable = False
    for d in range(1, dmax + 1):
        basis = rs.normal_words(d)
        n = len(basis)
        if n == 0:
            continue
        if p ** n > SCAN_GUARD:
            findings["skipped"].append(d)
            continue
        scannable = True
        reps = _written(rs.names, basis, _scan_degree(rs, d, basis, p), p)
        findings["degrees"][d] = {
            "tested": (p ** n - 1) // (p - 1),
            "normal": reps,
            "found": len(reps),
        }
    if not scannable and not findings["skipped"]:
        raise UsageError(f"the algebra is zero in degrees 1 to {dmax}: "
                         "no element to scan")
    if not scannable:
        raise UsageError(f"no degree up to {dmax} fits the enumeration guard "
                         f"{p}^dim <= 2^22")
    return findings


def _written(names: tuple, basis: list, codes: np.ndarray, p: int) -> list:
    """The elements of the given base-p codes over `basis`, as
    FreeElement.format writes them: terms in descending deglex order, so the
    low digits of a code come first.  Its low m and high n - m digits index
    two tables of their sums of terms, of at most p**ceil(n/2) strings each.
    The codes come in the scan's order, so those whose pivot is a high digit
    come first: each is its two halves joined, and each of the rest is its
    low half alone."""
    n = len(basis)
    m = n // 2
    q = p if n > 1 else 2               # a lone coordinate is the pivot 1
    low = _term_table(names, basis[n - m:], q)
    low_sep = np.array([s and s + " + " for s in low], dtype=object)
    high = np.array(_term_table(names, basis[:n - m], q), dtype=object)
    his, los = np.divmod(codes, p ** m)
    k = np.count_nonzero(his)
    return ((low_sep[los[:k]] + high[his[:k]]).tolist()
            + np.array(low, dtype=object)[los[k:]].tolist())


def _term_table(names: tuple, words: list, q: int) -> list:
    """The sum of terms c_i*words[i] for every base-p code over the digits
    c_i in range(q), the last word's digit least significant (q = p, or
    q = 2 for a lone word), in descending deglex order."""
    table = [""]
    for w in words:
        word = "*".join(names[g] for g in w)
        terms = [""] + [f"({c})*{word}" for c in range(1, q)]
        table = [f"{t} + {s}" if t and s else t or s
                 for s in table for t in terms]
    return table


def _scan_degree(rs: RewriteSystem, d: int, basis: list, p: int
                 ) -> np.ndarray:
    """Normal elements of degree d as base-p codes over the given
    normal-word basis (coordinate i is the digit of p**(n-1-i)), first
    nonzero coordinate fixed to 1, in the order of the pivot position and
    then the remaining digits, last digit fastest.

    v is normal when span{x_g*v} = span{v*x_g} over the generators g of each
    degree.  For each target degree e, `left` and `right` (n x generators x
    dim A_e) hold NF(x_g*basis[i]) and NF(basis[i]*x_g), the rows of the
    left and right multiplication tables of x_g, so one product mod p gives
    every x_g*v and v*x_g of a block of candidates.  The product runs
    in float64: p**n <= SCAN_GUARD = 2**22 keeps its sums of n products of
    residues below 2**53, so it is exact.  Its sums are reduced mod p in
    int32, as are the codes, since numpy divides int32 by a scalar many
    times faster than int64: each sum is below p at n = 1, where the only
    candidate is the pivot 1, and below n*p**2 <= 2**23 at n >= 2.

    A candidate with x_g*v = v*x_g for every g has equal spans; only the
    others go to `same_row_spans`, which compares the spans in the narrowest
    integer type that holds (p-1)**2, by rank and one containment.  Where
    left == right every generator of degree e - d commutes with all of A_d,
    and that target degree forms no products."""
    n = len(basis)
    parts = []
    for e in sorted({d + k for k in rs.degrees}):
        gens = [g for g, k in enumerate(rs.degrees) if d + k == e]
        left = np.zeros((n, len(gens), rs.dim(e)))
        right = np.zeros_like(left)
        for j, g in enumerate(gens):
            for side, on_left in ((left, True), (right, False)):
                for i, row in enumerate(rs.table((g,), d, on_left)):
                    for k, c in row:
                        side[i, j, k] = c
        if not np.array_equal(left, right):
            parts.append((left, right))

    found = []
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int32)
    cells = max((left[0].size for left, _ in parts), default=1)
    step = max(1, _SCAN_CELLS // cells)
    for piv in range(n):
        first, stop = p ** (n - piv - 1), 2 * p ** (n - piv - 1)
        for lo in range(first, stop, step):
            code = np.arange(lo, min(lo + step, stop), dtype=np.int32)
            for left, right in parts:
                v = mod_p(code[:, None] // place, p)
                lv, rv = (mod_p(np.tensordot(v, side, 1).astype(np.int32), p)
                          for side in (left, right))
                keep = (lv == rv).all(axis=(1, 2))
                # copy out the others only when some candidate commutes
                rest = ~keep if keep.any() else slice(None)
                keep[rest] = same_row_spans(lv[rest], rv[rest], p)
                code = code[keep]
            found.append(code)
    return np.concatenate(found)


def confluence_probe(p: Presentation, rs: RewriteSystem, degree_bound: int,
                     seed: int) -> dict:
    """Complete p at degree_bound with its relations fed in a seeded random
    order and random nonzero rescalings; for a fixed term order its leads
    and graded dimensions must be those of `rs`, p's own completion at
    degree_bound or above, through degree_bound.  The relations are
    homogeneous, so the leads that a completion truncated at any bound has
    through a degree are those of the reduced Groebner basis, whatever the
    bound above that degree: `rs` need not be completed again."""
    rng = random.Random(seed)
    rels = list(p.relations)
    rng.shuffle(rels)
    f = p.field
    scaled = []
    for r in rels:
        while True:
            c = f.from_int(rng.randrange(1, 1009))
            if not f.is_zero(c):
                break
        scaled.append(r.scaled(c))
    q = Presentation(p.field, p.generators, scaled, label=p.label)
    rs1 = complete(q, degree_bound=degree_bound)
    leads0 = sorted(w for w in rs.leads()
                    if word_degree(w, rs.degrees) <= degree_bound)
    leads1 = sorted(rs1.leads())
    dims0 = hilbert_function(rs, degree_bound).dims
    dims1 = hilbert_function(rs1, degree_bound).dims
    return {"seed": seed, "leads_match": leads0 == leads1,
            "dims_match": dims0 == dims1,
            "agrees": leads0 == leads1 and dims0 == dims1}


# ---------------------------------------------------------------------------
# pipeline


def _json(x):
    """x as the report writes it: a tuple as a list, a dict with a key
    (i, j) as "i,j" and any other as its string, and anything else that is
    not a number, a string or None as the dict of its dataclass fields.  A
    dict keyed by names (the twist's generators) keeps its order; any other
    is sorted by its keys, so (2, 9) comes before (2, 10)."""
    if x is None or isinstance(x, (int, float, str)):
        return x
    if isinstance(x, tuple):
        return [_json(v) for v in x]
    if isinstance(x, dict):
        items = (x.items() if all(isinstance(k, str) for k in x)
                 else sorted(x.items()))
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k):
                _json(v) for k, v in items}
    return {f.name: _json(getattr(x, f.name)) for f in fields(x)}


def _load_presentation(cfg: RunConfig):
    notes = []
    if cfg.is_path:
        try:
            with open(cfg.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read {cfg.input}: {e}") from e
        p = parse(text)
        if p.field != cfg.field:
            notes.append(f"field {p.field.describe()} comes from the file "
                         "header; --field applies to builtins only")
    else:
        p = builtin(cfg.input, field=cfg.field)
    if isinstance(p, FilteredPresentation):
        p = homogenize(p)
        notes.append("filtered input homogenized with a central degree-1 "
                     "variable before analysis")
    return p, notes


def run(cfg: RunConfig) -> tuple[dict, int]:
    report: dict = {
        "algebra": None,
        "field": cfg.field.describe(),
        "bounds": {"degree": cfg.degree_bound,
                   "homological": cfg.homological_bound},
        "checks": list(cfg.checks),
        "seed": cfg.seed,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "notes": [],
    }
    exit_code = 0
    p, notes = _load_presentation(cfg)
    report["algebra"] = p.label
    report["field"] = p.field.describe()
    report["notes"].extend(notes)

    maxrel = max((r.degree() for r in p.relations), default=2)
    if cfg.degree_bound < maxrel:
        raise UsageError(f"degree bound {cfg.degree_bound} is below the "
                         f"highest relation degree {maxrel}")
    top = max(p.degree_vector(), default=0)
    if "normal-elements" in cfg.checks and cfg.degree_bound <= top:
        raise UsageError(f"normal-element scan needs a degree bound above the "
                         f"top generator degree {top}: -d {cfg.degree_bound} "
                         "leaves no degree to scan")

    rs = complete(p, degree_bound=cfg.degree_bound)
    report["groebner"] = {
        "rules": len(rs.leads()),
        "globally_complete": rs.globally_complete,
        "complete_below": rs.complete_below,
        "stats": rs.stats,
    }
    report["seed_probe"] = confluence_probe(p, rs, min(cfg.degree_bound, 5),
                                            cfg.seed)

    dims = hilbert_function(rs, cfg.degree_bound)
    if "hilbert" in cfg.checks:
        hil = _json(dims)
        hil["gk"] = _json(gk_estimate(dims))
        if cfg.claim is not None:
            chk = verify_rational(dims, cfg.claim)
            hil["claim"] = {"text": cfg.claim, **_json(chk)}
            if not chk.ok:
                exit_code = 1
        report["hilbert"] = hil

    # The one-sided table also fixes the Betti numbers of the right-side and
    # the bimodule resolutions, which then skip the kernels it rules out.
    res = tab = gl = None
    if {"betti", "koszul", "asregular", "hochschild",
            "rigidity"} & set(cfg.checks):
        res = minimal_resolution(rs, cfg.homological_bound, cfg.degree_bound)
        tab = betti(res)
        gl = gldim_upto(res)
    if {"betti", "koszul"} & set(cfg.checks):
        bet = _json(tab)
        bet["gldim"] = _json(gl)
        if "koszul" in cfg.checks:
            bet["koszul"] = _json(koszul_check(res, tab, dims))
        report["betti"] = bet

    # the opposite algebra serves the right side and the enveloping system
    rs_r = None
    if {"asregular", "hochschild", "rigidity"} & set(cfg.checks):
        rs_r = complete(opposite(p), degree_bound=cfg.degree_bound)

    asv = t_left = None
    if "asregular" in cfg.checks:
        t_left = ext_k_A(res)
        res_r = minimal_resolution(rs_r, cfg.homological_bound,
                                   cfg.degree_bound, tab)
        t_right = ext_k_A(res_r)
        asv = as_check(t_left, t_right, gldim=gl)
        report["ext_k_A"] = _json({"left": t_left, "right": t_right})
        report["as_verdict"] = _json(asv)

    hoch = rig = None
    if {"hochschild", "rigidity"} & set(cfg.checks):
        dres, dtab = diagonal_bimodule_resolution(rs, rs_r,
                                                  cfg.homological_bound,
                                                  cfg.degree_bound, tab)
        # the left table proves levels of the bimodule table zero
        if t_left is None:
            t_left = ext_k_A(res)
        hoch = hochschild_ext(dres, one_sided=(t_left, tab))
        if "hochschild" in cfg.checks:
            report["hochschild"] = _json(hoch)
            report["hochschild"]["bimodule_betti"] = _json(dtab.entries)
        if "rigidity" in cfg.checks:
            rig = rigidity_check(p, dres, hoch, dims)
            twist = rig.twist_on_generators
            if twist is not None:
                twist = {k: v.format(p.names()) for k, v in twist.items()}
            report["rigidity"] = _json(replace(rig, twist_on_generators=twist))

    if asv is not None or rig is not None:
        gk_for_report = gk_estimate(dims) if asv and asv.status == "fails" else None
        inv = invariant_report(asv or ASVerdict("inconclusive"), rig,
                               gk=gk_for_report)
        report["invariants"] = {
            "fhtr": inv["fhtr"],
            "htr_QA_conditional": inv["htr_QA_conditional"],
            "hammerhead": inv["hammerhead"],
        }
        report["unchecked_hypotheses"] = inv["unchecked_hypotheses"]
        report["notes"].extend(inv["notes"])

    if "normal-elements" in cfg.checks:
        report["normal_elements"] = normal_element_scan(
            rs, min(cfg.degree_bound - top, 4))

    return report, exit_code


def render_text(report: dict) -> str:
    lines = [f"algebra {report['algebra']} over {report['field']}, "
             f"degree bound {report['bounds']['degree']}, "
             f"homological bound {report['bounds']['homological']}"]
    gb = report.get("groebner")
    if gb:
        state = ("complete" if gb["globally_complete"]
                 else f"complete below {gb['complete_below']}")
        lines.append(f"rewriting: {gb['rules']} rules, {state}")
    hil = report.get("hilbert")
    if hil:
        lines.append("hilbert: " + " ".join(str(n) for n in hil["dims"]) +
                     f" (certified to {hil['certified_to']})")
        if "claim" in hil:
            c = hil["claim"]
            lines.append(f"claim {c['text']}: " +
                         ("ok" if c["ok"] else f"MISMATCH ({c['detail']})"))
        g = hil["gk"]
        lines.append("growth: " + ("exponential" if g["exponential"]
                                   else f"estimate {g['value']:.2f}"))
    bet = report.get("betti")
    if bet:
        lines.append("betti: " + " ".join(
            f"b[{k}]={v}" for k, v in bet["entries"].items()))
        gl = bet["gldim"]
        lines.append(f"gldim: {gl['value']} "
                     f"({'certified' if gl['certified'] else gl['reason']})")
        if "koszul" in bet:
            ko = bet["koszul"]
            lines.append("koszul: " + (
                "not applicable" if not ko["applicable"] else
                ("holds in window, " + ko["detail"]) if ko["verdict"]
                else ko["detail"]))
    if "as_verdict" in report:
        av = report["as_verdict"]
        txt = av["status"]
        if av["n"] is not None:
            txt += f"({av['n']},{av['l']})"
        if av["witness"]:
            txt += f" witness={av['witness']}"
        lines.append("asregular: " + txt)
    if "hochschild" in report:
        h = report["hochschild"]
        lines.append("hochschild: entries " + (
            " ".join(f"H[{k}]={v}" for k, v in h["entries"].items()) or "none"))
    if "rigidity" in report:
        r = report["rigidity"]
        lines.append(f"rigidity: concentrated_at={r['concentrated_at']} "
                     f"graded_match={r['graded_match']} "
                     f"twist={r['twist_on_generators']}")
    if "invariants" in report:
        lines.append("invariants: " + json.dumps(report["invariants"],
                                                 sort_keys=True))
    if "normal_elements" in report:
        ne = report["normal_elements"]
        for d, data in sorted(ne["degrees"].items()):
            lines.append(f"normal elements degree {d}: "
                         f"{data['found']} of {data['tested']} tested"
                         + (" [" + "; ".join(data["normal"][:8]) + "]"
                            if data["normal"] else ""))
        if ne["skipped"]:
            lines.append("normal elements: degrees skipped by guard: "
                         + ", ".join(map(str, ne["skipped"])))
        lines.append("normal elements: heuristic evidence over "
                     + ne["field"] + " only")
    probe = report.get("seed_probe")
    if probe:
        lines.append(f"seed probe {probe['seed']}: "
                     + ("agrees" if probe["agrees"] else "DISAGREES"))
    for n in report.get("notes", []):
        lines.append("note: " + n)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncgraded", add_help=False,
        description="homological analysis of finitely presented graded "
                    "algebras (help: --help; -h is the homological bound)")
    ap.add_argument("--help", action="help",
                    help="show this help message and exit")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", metavar="NAME",
                     help="corpus algebra: " + ", ".join(builtin_names()))
    src.add_argument("--input", metavar="FILE",
                     help="presentation file in the DSL")
    ap.add_argument("--field", default="F32003",
                    help="Q or F<p> (builtins only; files carry their field)")
    ap.add_argument("-d", "--degree-bound", type=int, default=8)
    ap.add_argument("-h", "--homological-bound", type=int, default=5)
    ap.add_argument("--check", default=",".join(DEFAULT_CHECKS),
                    help="comma list from: " + ", ".join(CHECK_NAMES))
    ap.add_argument("--claim", default=None,
                    help="rational function for the graded dims, e.g. "
                         "\"1/(1-t)^2\"")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the JSON report here ('-' for stdout)")
    ap.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        try:
            field = field_from_name(ns.field)
        except ValueError as e:
            raise UsageError(str(e)) from e
        cfg = RunConfig(
            input=ns.builtin or ns.input,
            is_path=ns.input is not None,
            field=field,
            degree_bound=ns.degree_bound,
            homological_bound=ns.homological_bound,
            checks=tuple(s.strip() for s in ns.check.split(",") if s.strip()),
            claim=ns.claim,
            json_path=ns.json,
            seed=ns.seed,
        )
        report, code = run(cfg)
        payload = json.dumps(report, sort_keys=True, indent=2)
        if cfg.json_path and cfg.json_path != "-":
            try:
                with open(cfg.json_path, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
            except OSError as e:
                raise UsageError(f"cannot write {cfg.json_path}: "
                                 f"{e.strerror or e}") from e
    except (UsageError, PresentationError, ClaimSyntaxError) as e:
        print(f"ncgraded: error: {e}", file=sys.stderr)
        return 2
    except ResolutionError as e:
        print(f"ncgraded: error: resolution failed: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        msg = " ".join(str(e).split())
        print(f"ncgraded: internal error: {type(e).__name__}: {msg}",
              file=sys.stderr)
        return 4
    print(payload if cfg.json_path == "-" else render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
