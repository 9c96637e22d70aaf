"""Base monoids, zero extensions, tuples and the stock presentations."""

import itertools

import pytest

from invwreath.base import (
    BUILTIN_NAMES,
    BasePresentation,
    FiniteMonoid,
    MTuple,
    NoEvaluationError,
    act,
    adjoin_zero,
    builtin,
    ones,
    ones_on,
    pinned,
    tuple_tensor,
    unit_at,
)
from invwreath.pperm import CompositionError, PartialBijection, enumerate_partial_bijections
from invwreath.wreath import compose, embed_map, identity_element
from oracles import closure, tuple_mul

FIG_MAP = PartialBijection(6, 8, (0, 0, 4, 1, 0, 7))

SMALL = [builtin(name) for name in ("trivial", "c2", "c3", "sl2")]


def test_monoid_validation():
    with pytest.raises(ValueError):
        # (1*2)*2 = 0 but 1*(2*2) = 1
        FiniteMonoid(3, 0, ((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    with pytest.raises(ValueError):
        FiniteMonoid(2, 1, ((0, 1), (1, 0)))  # wrong identity element
    with pytest.raises(ValueError):
        FiniteMonoid(2, 0, ((0, 1),))


def test_adjoin_zero_trivial():
    m0 = adjoin_zero(builtin("trivial").monoid)
    assert m0.size == 2
    assert m0.mul(0, 1) == 0 and m0.mul(1, 0) == 0 and m0.mul(1, 1) == 1


def test_adjoin_zero_c2_table():
    m0 = adjoin_zero(builtin("c2").monoid)
    table = [[m0.mul(a, b) for b in range(3)] for a in range(3)]
    assert table == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_zero_annihilates_exhaustively():
    for base in SMALL:
        m0 = adjoin_zero(base.monoid)
        for a in range(m0.size):
            for b in range(m0.size):
                assert (m0.mul(a, b) == 0) == (a == 0 or b == 0)


def test_tuple_mul():
    c2 = builtin("c2").monoid
    m0 = adjoin_zero(c2)
    a = MTuple((1, 2, 0))
    assert tuple_mul(m0, a, ones(c2, 3)) == a
    assert tuple_mul(m0, MTuple((1, 0)), MTuple((0, 1))).support == ()
    for left in itertools.product(range(3), repeat=3):
        for right in itertools.product(range(3), repeat=3):
            got = tuple_mul(m0, MTuple(left), MTuple(right))
            assert got.entries == tuple(m0.mul(x, y) for x, y in zip(left, right))
    with pytest.raises(CompositionError):
        tuple_mul(m0, MTuple((1,)), MTuple((1, 1)))


def test_act_pictured():
    a = MTuple((1, 2, 3, 4, 5, 6, 7, 8))
    assert act(FIG_MAP, a) == MTuple((0, 0, 4, 1, 0, 7))


def test_act_identity_and_composition():
    import random
    rng = random.Random(1)
    c3 = builtin("c3").monoid
    for alpha in enumerate_partial_bijections(3, 3):
        a = MTuple(tuple(rng.randrange(0, 4) for _ in range(3)))
        assert act(PartialBijection(3, 3, (1, 2, 3)), a) == a
        for beta in enumerate_partial_bijections(3, 3):
            assert act(alpha.compose(beta), a) == act(alpha, act(beta, a))
    with pytest.raises(CompositionError):
        act(FIG_MAP, MTuple((1, 2)))


def test_act_distributes_over_mul():
    for base in SMALL:
        if base.monoid.size > 3:
            continue
        m0 = adjoin_zero(base.monoid)
        tuples = [MTuple(t) for t in itertools.product(range(m0.size), repeat=2)]
        for alpha in enumerate_partial_bijections(2, 2):
            for a in tuples:
                for b in tuples:
                    assert act(alpha, tuple_mul(m0, a, b)) == \
                        tuple_mul(m0, act(alpha, a), act(alpha, b))


def test_support_is_intersection():
    m0 = adjoin_zero(builtin("c2").monoid)
    for left in itertools.product(range(3), repeat=3):
        for right in itertools.product(range(3), repeat=3):
            a, b = MTuple(left), MTuple(right)
            assert set(tuple_mul(m0, a, b).support) == set(a.support) & set(b.support)


def test_tuple_tensor():
    a = MTuple((1, 0))
    assert tuple_tensor(a, MTuple(())) == a
    assert tuple_tensor(a, MTuple((2,))) == MTuple((1, 0, 2))
    b = MTuple((0, 2, 0, 1))
    assert set(tuple_tensor(a, b).support) == set(a.support) | {s + 2 for s in b.support}


def test_special_tuples():
    c2 = builtin("c2").monoid
    assert ones(c2, 3) == MTuple((1, 1, 1))
    assert unit_at(c2, 1, 2, 3) == MTuple((1, 2, 1))
    assert pinned(c2, 1, 1, 3, 3) == MTuple((2, 1, 0))
    assert ones_on(c2, (1, 3), 3) == MTuple((1, 0, 1))
    with pytest.raises(ValueError):
        pinned(c2, 1, 2, 2, 3)
    # acting on the all-ones tuple marks the domain
    assert act(FIG_MAP, ones(c2, 8)) == ones_on(c2, FIG_MAP.dom, 6)


def test_builtins():
    for name in BUILTIN_NAMES:
        base = builtin(name)
        if name == "bicyclic":
            assert base.monoid is None
            with pytest.raises(NoEvaluationError):
                base.require_evaluation()
            continue
        assert base.monoid is not None
        for lhs, rhs in base.relations:
            assert base.eval_word(lhs) == base.eval_word(rhs)
    s3 = builtin("s3")
    a, b = s3.image_of("a"), s3.image_of("b")
    assert s3.monoid.mul(a, b) != s3.monoid.mul(b, a)
    assert s3.monoid.size == 6


def test_presentation_validation():
    c2 = builtin("c2")
    with pytest.raises(ValueError):
        BasePresentation(("g", "g"), ())
    with pytest.raises(ValueError):
        BasePresentation(("e",), ())  # reserved token
    with pytest.raises(ValueError):
        BasePresentation(("g",), ((("h",), ()),))
    with pytest.raises(ValueError):
        # unsound relation for the c2 table
        BasePresentation(("g",), ((("g",), ()),), c2.monoid, (1,))
    # alphabet fails to generate: none of c2, or one transposition of s3
    s3 = builtin("s3")
    for args in (((), (), c2.monoid, ()),
                 (("a",), ((("a", "a"), ()),), s3.monoid, (s3.image_of("a"),))):
        with pytest.raises(ValueError, match="alphabet does not generate the monoid"):
            BasePresentation(*args)


def test_presentation_json_round_trip():
    for name in BUILTIN_NAMES:
        base = builtin(name)
        again = BasePresentation.from_json(base.to_json(), name=name)
        assert again == base


def test_closure_first_seed_word_wins():
    c3 = builtin("c3").monoid
    witness = closure([(1, ("a",)), (1, ("b",)), (0, ())], [("g", 1)], c3.mul)
    assert witness == {1: ("a",), 0: (), 2: ("a", "g")}


def test_closure_words_shortest_first_in_gens_order():
    c3 = builtin("c3").monoid
    witness = closure([(0, ())], [("h", 2), ("g", 1)], c3.mul)
    assert list(witness.items()) == [(0, ()), (2, ("h",)), (1, ("g",))]
    # every partial bijection of level 2 from swaps and omissions
    gens = [("s1", PartialBijection(2, 2, (2, 1))), ("e1", PartialBijection(2, 2, (0, 2))),
            ("e2", PartialBijection(2, 2, (1, 0)))]
    witness = closure([(PartialBijection(2, 2, (1, 2)), ())], gens, PartialBijection.compose)
    assert set(witness) == set(enumerate_partial_bijections(2, 2))
    words = list(witness.values())
    assert [len(w) for w in words] == sorted(len(w) for w in words)
    assert witness[PartialBijection(2, 2, (0, 1))] == ("s1", "e2")   # not ("e1", "s1")
    assert witness[PartialBijection(2, 2, (0, 0))] == ("e1", "e2")


def test_closure_skips_undefined_products():
    # the inclusion 1 -> 2 and the projection 2 -> 1, composed only where
    # the levels match
    m0 = adjoin_zero(builtin("trivial").monoid)
    up = embed_map(builtin("trivial").monoid, PartialBijection(1, 2, (1,)))
    down = embed_map(builtin("trivial").monoid, PartialBijection(2, 1, (1, 0)))

    def mul(a, g):
        return compose(m0, a, g) if a.cod_size == g.dom_size else None

    witness = closure([(identity_element(builtin("trivial").monoid, 1), ())],
                      [("lam", up), ("rho", down)], mul)
    assert [(e.dom_size, e.cod_size, w) for e, w in witness.items()] == [
        (1, 1, ()), (1, 2, ("lam",))]
