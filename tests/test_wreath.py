"""Labelled partial bijections: composition, tensor, embeddings, enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invwreath.base import BUILTIN_NAMES, MTuple, act, adjoin_zero, builtin, ones
from invwreath.pperm import (
    CompositionError,
    PartialBijection,
    partial_identity,
)
from invwreath.wreath import (
    WreathElement,
    compose,
    compose_keys,
    count_wreath,
    decode_key,
    embed_map,
    encode_key,
    enumerate_codes,
    enumerate_wreath,
    from_key,
    hom_count,
    identity_element,
    right_action,
    tensor,
)

from oracles import embed_tuple, enumerate_keys, tuple_mul

C2 = builtin("c2")
C6_TABLE = tuple(tuple((a + b) % 6 for b in range(6)) for a in range(6))


def cyclic6():
    from invwreath.base import FiniteMonoid
    return FiniteMonoid(6, 0, C6_TABLE, name="c6")


def random_element(rng, monoid, m, n):
    elems = list(enumerate_wreath(monoid, m, n))
    return rng.choice(elems)


def test_membership_invariant_enforced():
    with pytest.raises(ValueError):
        WreathElement(MTuple((1, 0)), PartialBijection(2, 2, (1, 2)))
    with pytest.raises(ValueError):
        WreathElement(MTuple((1,)), PartialBijection(2, 2, (1, 2)))


def test_pictured_composition():
    # labels ride along the strings and multiply where they meet
    m = cyclic6()
    m0 = adjoin_zero(m)
    alpha = PartialBijection(6, 8, (0, 0, 4, 1, 0, 7))
    beta = PartialBijection(8, 7, (2, 0, 1, 0, 5, 0, 4, 0))
    a = MTuple((0, 0, 2, 3, 0, 4))          # labels g, g^2, g^3 at slots 3,4,6
    b = MTuple((2, 0, 3, 0, 4, 0, 5, 0))    # labels at slots 1,3,5,7
    p = WreathElement(a, alpha)
    q = WreathElement(b, beta)
    out = compose(m0, p, q)
    assert out.pmap == PartialBijection(6, 7, (0, 0, 0, 2, 0, 4))
    # slot 4 carries a4*b1, slot 6 carries a6*b7
    assert out.tup.entries[3] == m0.mul(a.entries[3], b.entries[0])
    assert out.tup.entries[5] == m0.mul(a.entries[5], b.entries[6])
    assert out.tup == MTuple((0, 0, 0, m0.mul(3, 2), 0, m0.mul(4, 5)))


def test_identity_and_associativity():
    rng = random.Random(3)
    m0 = adjoin_zero(C2.monoid)
    for _ in range(50):
        p = random_element(rng, C2.monoid, 3, 2)
        q = random_element(rng, C2.monoid, 2, 3)
        r = random_element(rng, C2.monoid, 3, 2)
        assert compose(m0, identity_element(C2.monoid, 3), p) == p
        assert compose(m0, p, identity_element(C2.monoid, 2)) == p
        assert compose(m0, compose(m0, p, q), r) == compose(m0, p, compose(m0, q, r))
    with pytest.raises(CompositionError):
        compose(m0, random_element(rng, C2.monoid, 2, 3),
                random_element(rng, C2.monoid, 2, 3))


def test_tensor_properties():
    rng = random.Random(4)
    m0 = adjoin_zero(C2.monoid)
    empty = identity_element(C2.monoid, 0)
    for _ in range(40):
        p = random_element(rng, C2.monoid, 2, 2)
        q = random_element(rng, C2.monoid, 2, 1)
        assert tensor(p, empty) == p
        assert tensor(empty, p) == p
        out = tensor(p, q)
        assert out.tup.support == out.pmap.dom
        # interchange with composition
        r = random_element(rng, C2.monoid, 2, 2)
        s = random_element(rng, C2.monoid, 1, 2)
        lhs = tensor(compose(m0, p, r), compose(m0, q, s))
        rhs = compose(m0, tensor(p, q), tensor(r, s))
        assert lhs == rhs


def test_embeddings():
    m0 = adjoin_zero(C2.monoid)
    assert embed_tuple(ones(C2.monoid, 3)) == identity_element(C2.monoid, 3)
    a = MTuple((2, 0, 1))
    alpha = partial_identity((1, 3), 3)
    assert compose(m0, embed_tuple(a), embed_map(C2.monoid, alpha)) == WreathElement(a, alpha)
    # tuple zeroed off the domain, map cut to the support
    b = MTuple((2, 1, 0))
    beta = PartialBijection(3, 3, (0, 3, 2))
    got = compose(m0, embed_tuple(b), embed_map(C2.monoid, beta))
    assert got.tup == MTuple((0, 1, 0))
    assert got.pmap == beta.restrict((2,))


def test_enumeration_counts():
    triv = builtin("trivial").monoid
    assert len(list(enumerate_wreath(triv, 3, 3))) == 34
    elems = list(enumerate_wreath(C2.monoid, 2, 2))
    assert len(elems) == 17 == count_wreath(C2.monoid, 2, 2)
    assert len(set(elems)) == 17
    keys = [e.sort_key() for e in elems]
    assert keys == sorted(keys)
    assert len(list(enumerate_wreath(C2.monoid, 2, 2, "singular-monoid"))) == 9
    assert len(list(enumerate_wreath(C2.monoid, 2, 2, "singular-tuples"))) == 5
    assert count_wreath(C2.monoid, 2, 2, "singular-tuples") == 3 ** 2 - 2 ** 2
    assert hom_count(C2.monoid, 1, 2) == 5


def test_unit_detection():
    # an element is a unit exactly when its map is a total bijection
    assert identity_element(C2.monoid, 2).pmap.is_total_bijection()
    assert not embed_map(C2.monoid, partial_identity((1,), 2)).pmap.is_total_bijection()
    units = sum(1 for e in enumerate_wreath(C2.monoid, 2, 2) if e.pmap.is_total_bijection())
    assert units == 8  # 2! * |M|^2
    assert not PartialBijection(1, 2, (1,)).is_total_bijection()


def test_degenerate_levels():
    triv = builtin("trivial").monoid
    assert list(enumerate_wreath(triv, 0, 0)) == [identity_element(triv, 0)]
    sing1 = list(enumerate_wreath(C2.monoid, 1, 1, "singular-monoid"))
    assert sing1 == [WreathElement(MTuple((0,)), PartialBijection(1, 1, (0,)))]


def test_invariant_preserved_exhaustively():
    m0 = adjoin_zero(C2.monoid)
    elems = list(enumerate_wreath(C2.monoid, 2, 2))
    for p in elems:
        for q in elems:
            out = compose(m0, p, q)
            assert out.tup.support == out.pmap.dom


def test_singular_closed_under_composition():
    for n in (2, 3):
        triv = builtin("trivial").monoid
        m0 = adjoin_zero(triv)
        sing = set(enumerate_wreath(triv, n, n, "singular-monoid"))
        for p in sing:
            for q in sing:
                assert compose(m0, p, q) in sing


def test_json():
    e = identity_element(C2.monoid, 2)
    assert e.to_json() == {"tuple": [1, 1], "map": {"m": 2, "n": 2, "images": [1, 2]}}


# ---------------------------------------------------------------------------
# the plain-form kernel

KERNEL_BASES = ("trivial", "c2", "c3", "s3")


@st.composite
def labelled_maps(draw, monoid, m, n):
    """A random labelled partial bijection ``m -> n``."""
    targets = iter(draw(st.permutations(range(1, n + 1))))
    images, entries = [], []
    for defined in draw(st.lists(st.booleans(), min_size=m, max_size=m)):
        v = next(targets, 0) if defined else 0
        images.append(v)
        entries.append(draw(st.integers(1, monoid.size)) if v else 0)
    return WreathElement(MTuple(tuple(entries)), PartialBijection(m, n, tuple(images)))


@st.composite
def composable_pairs(draw):
    monoid = builtin(draw(st.sampled_from(KERNEL_BASES))).monoid
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return monoid, draw(labelled_maps(monoid, m, k)), draw(labelled_maps(monoid, k, n))


@settings(max_examples=300, deadline=None)
@given(composable_pairs())
def test_compose_keys_agrees_with_the_tuple_formula(pair):
    monoid, p, q = pair
    m0 = adjoin_zero(monoid)
    expected = WreathElement(tuple_mul(m0, p.tup, act(p.pmap, q.tup)), p.pmap.compose(q.pmap))
    got = compose_keys(m0.table, p.key, q.key)
    assert got == expected.key
    assert from_key(got) == expected == compose(m0, p, q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_keys_is_none_on_a_level_mismatch(data):
    monoid = builtin(data.draw(st.sampled_from(KERNEL_BASES))).monoid
    m, k, j, n = (data.draw(st.integers(0, 4)) for _ in range(4))
    if j == k:
        j = k + 1
    p = data.draw(labelled_maps(monoid, m, k))
    q = data.draw(labelled_maps(monoid, j, n))
    m0 = adjoin_zero(monoid)
    assert compose_keys(m0.table, p.key, q.key) is None
    with pytest.raises(CompositionError, match=f"cannot compose {m}->{k} with {j}->{n}"):
        compose(m0, p, q)


def test_enumerate_keys_is_the_sorted_hom_set():
    cells = [(name, variant, m, n)
             for name in KERNEL_BASES
             for m in range(4) for n in range(4)
             for variant in ("full", "singular-monoid", "singular-tuples")
             if (variant == "full" or m == n) and (name != "s3" or max(m, n) <= 2)]
    for name, variant, m, n in cells:
        monoid = builtin(name).monoid
        keys = list(enumerate_keys(monoid, m, n, variant))
        assert all(a < b for a, b in zip(keys, keys[1:])), (name, variant, m, n)
        assert [from_key(k).key for k in keys] == keys
        assert len(keys) == count_wreath(monoid, m, n, variant), (name, variant, m, n)
        assert [e.key for e in enumerate_wreath(monoid, m, n, variant)] == keys


# ---------------------------------------------------------------------------
# position codes


@settings(max_examples=300, deadline=None)
@given(composable_pairs())
def test_right_action_agrees_with_compose_keys(pair):
    monoid, p, q = pair
    z = adjoin_zero(monoid).table
    codes, _ = encode_key(len(z), p.key)
    act = right_action(z, q.key)
    # one entry per code of q's domain: str.translate leaves a code beyond
    # the table unchanged, so a short table would go unnoticed
    assert len(act) == (len(q.key[0]) + 1) * len(z)
    got = (codes.translate(act), q.cod_size)
    assert decode_key(len(z), got) == compose_keys(z, p.key, q.key)
    assert decode_key(len(z), encode_key(len(z), p.key)) == p.key


def test_code_stream_is_the_hom_set():
    # every variant over every base with a table, m, n <= 3
    bases = [builtin(name).monoid for name in BUILTIN_NAMES if builtin(name).monoid]
    assert len(bases) == len(BUILTIN_NAMES) - 1          # all but the bicyclic monoid
    for monoid in bases:
        width = monoid.size + 1
        for m in range(4):
            for n in range(4):
                for variant in ("full", "singular-monoid", "singular-tuples"):
                    if variant != "full" and m != n:
                        continue
                    rows = list(enumerate_codes(monoid, m, n, variant))
                    cell = (monoid.name, variant, m, n)
                    assert all(a < b for a, b in zip(rows, rows[1:])), cell
                    assert len(rows) == count_wreath(monoid, m, n, variant), cell
                    assert ({decode_key(width, (codes, n)) for codes in rows}
                            == set(enumerate_keys(monoid, m, n, variant))), cell


def test_code_stream_refuses_what_the_key_stream_refuses():
    monoid = C2.monoid
    with pytest.raises(ValueError, match="m == n"):
        enumerate_codes(monoid, 2, 3, "singular-monoid")
    with pytest.raises(ValueError, match="unknown variant"):
        enumerate_codes(monoid, 2, 2, "partial")
    with pytest.raises(ValueError, match="outside a table"):
        encode_key(2, ((1,), (2,), 1))
