#!/usr/bin/env python3
"""Regenerate the golden files under src/ncgraded/golden/.

Two kinds of golden data:
  * smith_zhang_relations.json: the six quadratic relations derived from the
    group-theoretic oracle, serialized with integer coefficients (they are
    all +-1, so one file covers every ground field).
  * report_<builtin>.json: full CLI reports for the corpus at the pinned
    bounds, with the timestamp stripped.  Exponential-growth three-generator
    free algebra runs at a lower degree bound.
"""

import json
import pathlib
import sys

from ncgraded.exactla import QQ, F32003
from ncgraded.presentation import group_algebra_relations
from ncgraded.cli import RunConfig, run

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncgraded" / "golden"

LIGHT = ("hilbert", "betti", "koszul", "asregular")
FULL = LIGHT + ("hochschild", "rigidity")

CONFIGS = [
    ("free-2", LIGHT, 8),
    ("free-3", ("hilbert", "betti", "koszul"), 6),
    ("polynomial-1", FULL, 8),
    ("polynomial-2", FULL, 8),
    ("polynomial-3", LIGHT, 8),
    ("quantum-plane-2", FULL, 8),
    ("smith-zhang", LIGHT, 8),
    ("weyl-filtered", LIGHT, 8),
    ("weyl-homogenized", LIGHT, 8),
]


def relations_golden() -> None:
    rels = group_algebra_relations(QQ, degree=2)
    out = []
    for r in rels:
        terms = []
        for w, c in r.sorted_terms():
            assert type(c) is int
            terms.append({"word": list(w), "coeff": int(c)})
        out.append({"terms": terms})
    payload = {"generators": ["x", "z", "t", "y"], "degree": 2,
               "relations": out}
    path = GOLDEN / "smith_zhang_relations.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path} ({len(out)} relations)")


def report_goldens() -> None:
    for name, checks, dbound in CONFIGS:
        cfg = RunConfig(input=name, field=F32003, degree_bound=dbound,
                        homological_bound=5, checks=checks, claim=None,
                        seed=0)
        report, code = run(cfg)
        assert code == 0, (name, code)
        report.pop("generated_at", None)
        path = GOLDEN / f"report_{name}.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    relations_golden()
    report_goldens()
    sys.exit(0)
