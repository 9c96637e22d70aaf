"""Presentation builders: worked-example content, counts, soundness, typing."""

import hashlib
import math

import pytest

from invwreath.base import BUILTIN_NAMES, NoEvaluationError, builtin
from invwreath.presentations import (
    KIND,
    KINDS,
    build,
    emit_json,
    emit_text,
)
from invwreath.pperm import omit, swap_adjacent
from invwreath.words import (
    TUBAR,
    Path,
    e_,
    lam,
    leveled_word,
    parse_monoid_word as w,
    rho,
    s_,
    sym_image,
    term_d,
    term_r,
    token,
    xc,
)

BICYCLIC = builtin("bicyclic")
C2 = builtin("c2")

SMALL_BASES = [builtin(name) for name in ("trivial", "c2", "c3", "sl2", "s3")]


def test_worked_example_full_kind():
    """The two-slot instance over the one-relation two-letter base."""
    p = build("r-min", BICYCLIC, n=2)
    assert [token(s) for s in p.alphabet] == \
        ["s1", "e1", "e2", "a@1", "b@1", "a@2", "b@2"]
    expected = [
        ("s1 s1", "1"),
        ("e1 e1", "e1"),
        ("e2 e2", "e2"),
        ("e1 e2", "e2 e1"),
        ("s1 e1", "e2 s1"),
        ("e1 e2 s1", "e1 e2"),
        ("a@1 b@1", "1"),
        ("a@2 b@2", "1"),
        ("a@1 a@2", "a@2 a@1"),
        ("a@1 b@2", "b@2 a@1"),
        ("b@1 a@2", "a@2 b@1"),
        ("b@1 b@2", "b@2 b@1"),
        ("s1 a@1", "a@2 s1"),
        ("s1 b@1", "b@2 s1"),
        ("e1 a@2", "a@2 e1"),
        ("e1 b@2", "b@2 e1"),
        ("e2 a@1", "a@1 e2"),
        ("e2 b@1", "b@1 e2"),
        ("e1 a@1", "e1"),
        ("e1", "a@1 e1"),
        ("e1 b@1", "e1"),
        ("e1", "b@1 e1"),
        ("e2 a@2", "e2"),
        ("e2", "a@2 e2"),
        ("e2 b@2", "e2"),
        ("e2", "b@2 e2"),
    ]
    assert [(w(l), w(r)) for l, r in expected] == list(p.relations)


def test_worked_example_small_kind():
    p = build("r-min-small", BICYCLIC, n=2)
    assert [token(s) for s in p.alphabet] == ["s1", "e", "a", "b"]
    expected = [
        ("s1 s1", "1"),
        ("e e", "e"),
        ("e s1 e s1", "e s1 e"),
        ("e s1 e", "s1 e s1 e"),
        ("a b", "1"),
        ("a s1 a s1", "s1 a s1 a"),
        ("a s1 b s1", "s1 b s1 a"),
        ("b s1 a s1", "s1 a s1 b"),
        ("b s1 b s1", "s1 b s1 b"),
        ("e s1 a s1", "s1 a s1 e"),
        ("e s1 b s1", "s1 b s1 e"),
        ("e a", "a e"),
        ("a e", "e"),
        ("e b", "b e"),
        ("b e", "e"),
    ]
    assert [(w(l), w(r)) for l, r in expected] == list(p.relations)


def test_plain_kind_relation_counts():
    # closed form per schema under the documented instantiation policy
    def f(n):
        far_swaps = sum(1 for i in range(1, n) for j in range(i + 2, n))
        return ((n - 1) + far_swaps + max(n - 2, 0) + n + math.comb(n, 2)
                + (n - 1) * (n - 2) + (n - 1) + (n - 1)) if n >= 1 else 0

    for n in range(6):
        assert len(build("r-in", builtin("trivial"), n=n).relations) == f(n)
    assert f(2) == 6 and f(3) == 15 and f(4) == 28 and f(5) == 45


def test_trivial_base_degenerates():
    triv = builtin("trivial")
    assert build("r-min", triv, n=3).relations == build("r-in", triv, n=3).relations
    assert build("r-min-small", triv, n=3).relations == \
        build("r-in-popova", triv, n=3).relations


def test_soundness_small_sweep():
    from invwreath.verify import check_soundness
    for base in SMALL_BASES:
        for kind in KINDS:
            flavor = KIND[kind].flavor
            if flavor in ("monoid", "semigroup"):
                p = build(kind, base, n=2)
            elif flavor == "category":
                p = build(kind, base, cap=2)
            else:
                p = build(kind, base)
            report = check_soundness(p)
            assert report.ok, (kind, base.name, report.detail)


def test_determinism():
    a = build("r-m-sing-in", C2, n=3)
    b = build("r-m-sing-in", C2, n=3)
    assert a.alphabet == b.alphabet and a.relations == b.relations


def test_every_build_is_pinned():
    # a digest of the emitted JSON of each kind over every builtin base at
    # each level from the least to 4 (caps 0 to 3): a change to any
    # generator or relation, or to their order, shows here and must be
    # deliberate
    pins = {
        "r-in": "9e1f05f99b1818bad3f16c3bbe3bec74098a0761c032de83df9ba2d674809e37",
        "r-in-popova": "9becc0a1e8d9974c0ed8c10aedaecc84e5de984b1baa69be25e0958a7d6bcddd",
        "r-min": "2798ded1c4ddb1aecfac6f531bd4b4b952f54ad3a0be6fb89b2bdebbdd79838c",
        "r-min-small": "5176758e02eb6e4c450d2d0508f52bd707849ac536f459aaa93df155ea7769d7",
        "omega-mi": "1a8c576288dd8a766ea5277615d583842cb2be0b6696d637fcabdb8b649a4c40",
        "xi-i": "8d372378d571dc8ad03323ee770108463e5a9709a71e02de17626fcae5e87050",
        "xi-mi": "b455d5b98b818d7cbd78b0f7efc176ace3f001702e6596b1ba151a10ace1e6f3",
        "r-sing-in": "519499759a22f1cb09d223026616aa97efd88201a92fbaa55a807738dc2d39e6",
        "r-sing-tuples": "881cf24b109c6a4f5297a14ff45b3c99733c9e6010aeaa86d827d832b992266c",
        "r-m-sing-in": "1ccc388bb140e5404476082b59b930a42e772ccf26afc100a2db0326ad032716",
    }
    assert set(pins) == set(KINDS)
    for kind, row in KIND.items():
        if row.level is None:
            levels = [{}]
        else:
            top = 3 if row.level == "cap" else 4
            levels = [{row.level: k} for k in range(row.least, top + 1)]
        digest = hashlib.sha256()
        for name in BUILTIN_NAMES:
            for level in levels:
                digest.update(emit_json(build(kind, builtin(name), **level)).encode())
        assert digest.hexdigest() == pins[kind], kind


def test_semigroup_sides_nonempty():
    for kind in ("r-sing-in", "r-sing-tuples", "r-m-sing-in"):
        p = build(kind, C2, n=3)
        for lhs, rhs in p.relations:
            assert lhs and rhs


def test_category_relations_typed():
    p = build("omega-mi", C2, cap=3)
    for lhs, rhs in p.relations:
        assert isinstance(lhs, Path) and isinstance(rhs, Path)
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt


def test_category_kind_is_leveled_r_min():
    counts = {"trivial": [0, 3, 13, 36, 76, 137], "c2": [0, 6, 28, 77, 162, 292]}
    for name, want in counts.items():
        got = [len(build("omega-mi", builtin(name), cap=cap).relations) for cap in range(6)]
        assert got == want, name
    # cap 3 reaches level 3, the first level with a braid relation
    p = build("omega-mi", C2, cap=3)
    for k in range(4):
        q = build("r-min", C2, n=k)
        assert [s for s in p.alphabet if s.kind not in ("lam", "rho") and s.n == k] == \
            list(leveled_word(q.alphabet, k))
        loops = [(lhs, rhs) for lhs, rhs in p.relations
                 if lhs.src == lhs.tgt == k
                 and all(s.kind not in ("lam", "rho") for s in lhs.edges + rhs.edges)]
        assert loops == [(Path(k, leveled_word(u, k)), Path(k, leveled_word(v, k)))
                         for u, v in q.relations]


def test_category_kind_carries_both_sandwich_relations():
    # lam_k rho_k = 1 at object k, and rho_k lam_k = e_{k+1} at object k+1
    for name in ("trivial", "c2", "s3"):
        for cap in range(1, 5):
            relations = set(build("omega-mi", builtin(name), cap=cap).relations)
            for k in range(cap):
                assert (Path(k, (lam(k), rho(k))), Path(k, ())) in relations, (name, cap, k)
                assert (Path(k + 1, (rho(k), lam(k))), Path(k + 1, (e_(k + 1, k + 1),))) \
                    in relations, (name, cap, k)


def test_tensor_relations_typed():
    p = build("xi-mi", C2)
    for lhs, rhs in p.relations:
        assert term_d(lhs) == term_d(rhs)
        assert term_r(lhs) == term_r(rhs)
    # base relation with an empty side becomes a loop at level one
    pb = build("xi-mi", BICYCLIC)
    texts = {(str(l), str(r)) for l, r in pb.relations}
    assert any("TIdent(n=1)" in r for _, r in texts)


def test_generator_image_examples():
    # leveled and tensor edges carry their own level; flat symbols take n
    p = build("omega-mi", C2, cap=3)
    images = {sym: sym_image(sym, C2) for sym in p.alphabet}
    assert images[s_(1, 2)].pmap == swap_adjacent(1, 2)
    q = build("r-sing-tuples", C2, n=3)
    assert xc("g", 1, 3) in q.alphabet
    img = sym_image(xc("g", 1, 3), C2, 3)
    assert img.tup.support == (1, 2)
    assert img.pmap == omit(3, 3)
    assert TUBAR in build("xi-mi", C2).alphabet
    assert sym_image(TUBAR, C2).pmap.to_json() == {"m": 0, "n": 1, "images": []}


def test_no_evaluation_is_distinct_error():
    p = build("r-min", BICYCLIC, n=2)
    with pytest.raises(NoEvaluationError):
        sym_image(p.alphabet[0], BICYCLIC, 2)


def test_build_argument_errors():
    with pytest.raises(ValueError):
        build("nope", C2, n=2)
    with pytest.raises(ValueError):
        build("r-min", C2)
    with pytest.raises(ValueError):
        build("r-sing-in", C2, n=1)
    with pytest.raises(ValueError):
        build("omega-mi", C2)


def test_emit_formats():
    import json

    import jsonschema

    from invwreath.schemas import PRESENTATION_SCHEMA

    p = build("r-min", C2, n=2)
    text = emit_text(p)
    lines = text.splitlines()
    assert lines[0].startswith("# kind: r-min")
    assert all(" = " in line for line in lines[2:])
    obj = json.loads(emit_json(p))
    jsonschema.validate(obj, PRESENTATION_SCHEMA)
    assert obj["alphabet"][0] == "s1"
    cat = json.loads(emit_json(build("omega-mi", C2, cap=2)))
    jsonschema.validate(cat, PRESENTATION_SCHEMA)
    ten = json.loads(emit_json(build("xi-i", C2)))
    jsonschema.validate(ten, PRESENTATION_SCHEMA)
