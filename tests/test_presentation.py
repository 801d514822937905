"""Presentations: the text format, the corpus, constructors, and the
group-theoretic oracle behind the four-generator reference algebra."""

import json
import math
import pathlib

import pytest

import ncgraded
from ncgraded.exactla import F32003, QQ, field_from_name
from ncgraded.presentation import (FilteredPresentation, Presentation,
                                   PresentationError, builtin, builtin_names,
                                   enveloping, group_algebra_oracle,
                                   group_algebra_relations, homogenize,
                                   opposite, ore_extension, parse,
                                   skew_polynomial)

GOLDEN = pathlib.Path(ncgraded.__file__).parent / "golden"


# -- text format --------------------------------------------------------------

QP_TEXT = """
# quantum plane at q = 2
algebra qplane over F32003
deg x = 1, y = 1
rel y*x - 2*x*y
"""


def test_parse_basic():
    p = parse(QP_TEXT)
    assert isinstance(p, Presentation)
    assert p.names() == ("x", "y")
    assert p.field == F32003
    assert len(p.relations) == 1
    assert p.relations[0].lead_word() == (1, 0)


def test_parse_weighted_and_powers():
    p = parse("""
algebra a over Q
deg x = 1, y = 2
rel y*x - x*y + x^3
""")
    assert p.degree_vector() == (1, 2)
    (r,) = p.relations
    assert r.is_homogeneous() and r.degree() == 3


def test_parse_filtered_header():
    p = parse("""
filtered algebra weyl over F32003
deg x = 1, y = 1
rel y*x - x*y - 1
""")
    assert isinstance(p, FilteredPresentation)
    h = homogenize(p)
    assert h.names() == ("x", "y", "t")
    assert all(r.is_homogeneous() for r in h.relations)
    # homogenized commutator plus two centrality relations
    assert len(h.relations) == 3


@pytest.mark.parametrize("text", [
    "algebra a over F32003\ndeg x = 1\nrel y*x - x*y",      # unknown name
    "algebra a over F32003\ndeg x = 1\nrel x*x - x",        # inhomogeneous
    "algebra a over F32003\ndeg x = 0\nrel x*x",            # zero weight
    "algebra a over F6\ndeg x = 1\nrel x*x",                # composite field
    "deg x = 1\nrel x*x",                                   # missing header
    "algebra a over F32003\ndeg x = 1\nrel x*x - x*x",      # zero relation
    "algebra a over F32003\ndeg x = 1\nrel x*!x",           # stray character
])
def test_parse_rejects(text):
    with pytest.raises((PresentationError, ValueError)):
        parse(text)


def test_parse_error_carries_position():
    with pytest.raises(PresentationError) as ei:
        parse("algebra a over F32003\ndeg x = 1\nrel x*x - x")
    assert "3" in str(ei.value)


BIG = "9" * 5000


@pytest.mark.parametrize("body,line,col", [
    (f"deg x = 1, y = 1\nrel {BIG}*x*y - y*x", 3, 5),      # coefficient
    (f"deg x = 1, y = 1\nrel {'9' * 601}*x*y - y*x", 3, 5),
    (f"deg x = 1, y = 1\nrel x*y - y*x/{BIG}", 3, 15),     # denominator
    (f"deg x = {BIG}, y = 1\nrel x*y - y*x", 2, 9),        # degree
    (f"deg x = 1\nrel x^{BIG}", 3, 7),                     # exponent
    ("deg x = 1\nrel x^100000", 3, 7),
    ("deg x = 1\nrel x^257", 3, 7),
    ("deg x = 1\nrel (x*x)^129", 3, 11),                   # degree 258
    ("deg x = 1, y = 1\nrel (x+y)^40", 3, 11),             # 2^40 terms
    ("deg x = 1, y = 1\nrel (x+y)^17", 3, 11),
    ("deg x = 1, y = 1\nrel (x+y)^9*(x+y)^9", 3, 12),
], ids=["coefficient", "601-digits", "denominator", "degree", "exponent-digits",
        "x^100000", "x^257", "degree-258", "2^40-terms", "2^17-terms",
        "2^18-terms-product"])
def test_parse_refuses_oversized_input(body, line, col):
    # refused at the offending token, before any large product is built
    with pytest.raises(PresentationError) as ei:
        parse("algebra a over F32003\n" + body)
    assert (ei.value.line, ei.value.col) == (line, col)


def test_parse_takes_input_at_the_bounds():
    p = parse("algebra a over F32003\ndeg x = 1, y = 1\n"
              f"rel {'9' * 600}*x^256 - (x*y)^128")
    assert p.relations[0].degree() == 256


# -- corpus -------------------------------------------------------------------

def test_builtin_names_all_construct():
    for name in builtin_names():
        p = builtin(name)
        if isinstance(p, FilteredPresentation):
            p = homogenize(p)
        assert p.ngens() >= 1
        for r in p.relations:
            assert r.is_homogeneous()


def test_builtin_unknown_lists_choices():
    with pytest.raises(PresentationError) as ei:
        builtin("no-such-algebra")
    assert "smith-zhang" in str(ei.value)


@pytest.mark.parametrize("name,ngens,nrels", [
    ("free-2", 2, 0),
    ("free-3", 3, 0),
    ("polynomial-1", 1, 0),
    ("polynomial-2", 2, 1),
    ("polynomial-3", 3, 3),
    ("quantum-plane-2", 2, 1),
    ("smith-zhang", 4, 6),
    ("weyl-homogenized", 3, 3),
])
def test_builtin_shapes(name, ngens, nrels):
    p = builtin(name)
    assert p.ngens() == ngens
    assert len(p.relations) == nrels


def test_opposite_reverses_and_involutes():
    p = builtin("quantum-plane-2")
    op = opposite(p)
    (r,) = op.relations
    assert set(r.terms) == {(0, 1), (1, 0)}
    assert list(opposite(op).relations) == list(p.relations)


def test_enveloping_shape():
    p = builtin("polynomial-2")
    e = enveloping(p)
    assert e.ngens() == 4
    assert e.names()[2:] == ("x1_op", "x2_op")
    # own relations + opposite relations + cross commutators
    assert len(e.relations) == 1 + 1 + 4


def test_enveloping_refuses_a_generator_named_as_a_copy():
    p = parse("algebra c over F32003\ndeg x = 1, x_op = 1\nrel x*x_op\n")
    with pytest.raises(PresentationError,
                       match="name collision: 'x_op' already a generator"):
        enveloping(p)


def test_skew_polynomial_params():
    p = skew_polynomial(3, {(0, 1): F32003.from_int(5)})
    assert len(p.relations) == 3
    with pytest.raises(PresentationError):
        skew_polynomial(2, 0)
    q = skew_polynomial(2, QQ.from_int(7), field=QQ)
    (r,) = q.relations
    assert r.terms[(0, 1)] == QQ.from_int(-7)


def test_ore_extension_adds_variable():
    p = builtin("polynomial-1")
    from ncgraded.freealg import FreeElement
    image = FreeElement(p.field, (1,), {(0,): F32003.from_int(2)})  # x1 -> 2*x1
    e = ore_extension(p, {"x1": image})
    assert e.names() == ("x1", "t")
    assert len(e.relations) == 1
    (r,) = e.relations
    assert r.is_homogeneous() and r.degree() == 2


def test_ore_extension_rejects_a_map_that_breaks_a_relation():
    # the swap sends y*x - 2*x*y to x*y - 2*y*x, which is -3*x*y modulo the
    # relation, not 0
    p = builtin("quantum-plane-2")
    from ncgraded.freealg import FreeElement
    swap = {"x": FreeElement(p.field, (1, 1), {(1,): 1}),
            "y": FreeElement(p.field, (1, 1), {(0,): 1})}
    with pytest.raises(PresentationError, match="not an endomorphism"):
        ore_extension(p, swap)


def test_ore_extension_accepts_an_image_of_several_letters():
    # alpha(y) = y + x*x preserves x*y - y*x: its image x*y + x*x*x - y*x
    # - x*x*x is the relation again
    p = parse("algebra weighted over F32003\ndeg x = 1, y = 2\n"
              "rel x*y - y*x\n")
    from ncgraded.freealg import FreeElement
    alpha = {"x": FreeElement(p.field, (1, 2), {(0,): 1}),
             "y": FreeElement(p.field, (1, 2), {(1,): 1, (0, 0): 1})}
    e = ore_extension(p, alpha)
    assert e.names() == ("x", "y", "t")
    assert len(e.relations) == 3


# -- oracle and golden relations ----------------------------------------------

def test_oracle_dims_are_binomials():
    rep = group_algebra_oracle(8)
    assert list(rep.image_dims) == [math.comb(d + 3, 3) for d in range(9)]
    assert rep.relation_counts[2] == 16 - 10 == 6


def test_oracle_relations_match_golden_over_both_fields():
    golden = json.loads((GOLDEN / "smith_zhang_relations.json").read_text())
    assert golden["generators"] == ["x", "z", "t", "y"]
    for f in (QQ, F32003):
        rels = group_algebra_relations(f, degree=2)
        assert len(rels) == len(golden["relations"]) == 6
        for r, gr in zip(rels, golden["relations"]):
            got = [(list(w), c) for w, c in r.sorted_terms()]
            want = [(t["word"], f.from_int(t["coeff"])) for t in gr["terms"]]
            assert got == want


def test_builtin_smith_zhang_ships_oracle_relations():
    for f in (QQ, F32003, field_from_name("F2")):
        p = builtin("smith-zhang", field=f)
        assert list(p.relations) == group_algebra_relations(f, degree=2)
        assert p.names() == ("x", "z", "t", "y")
