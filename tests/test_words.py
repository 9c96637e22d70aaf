"""Words, paths, terms: syntax, evaluation, translations, normal forms."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from invwreath import words, wreath
from invwreath.base import builtin
from invwreath.pperm import PartialBijection, identity, omit
from invwreath.presentations import FLAVOR_SYNTAX, KIND, build
from invwreath.verify import canonical_word
from oracles import embed_tuple, min_separation_rules, separate, sing_separation_rules
from invwreath.words import (
    ParseError,
    _parse_token,
    Path,
    Sym,
    TIdent,
    bx,
    e_,
    edge_dr,
    eval_path,
    eval_term,
    eval_word,
    f_,
    hat_edge,
    hat_path,
    lam,
    leveled_word,
    normal_form_singular_tuple,
    normal_form_wreath_word,
    parse_monoid_word,
    parse_path,
    parse_term,
    path_text,
    pe,
    plus_word,
    psi1_word,
    psi2_word,
    reassemble_singular,
    reassemble_wreath,
    relabel_tuple,
    reverse_word,
    rho,
    s_,
    sorting_relabel,
    tedge,
    term_d,
    term_r,
    term_text,
    token,
    ttensor,
    word_for_pperm,
    word_text,
    x_,
    x_mn_decompose,
    xc,
    TU,
    TUBAR,
    TX,
)

C2 = builtin("c2")
S3 = builtin("s3")
SRC = str(FilePath(__file__).resolve().parent.parent / "src")


def full_alphabet(base, n):
    syms = [s_(i) for i in range(1, n)] + [e_(i) for i in range(1, n + 1)]
    syms += [x_(x, i) for i in range(1, n + 1) for x in base.alphabet]
    return syms


def small_alphabet(base, n):
    return [s_(i) for i in range(1, n)] + [pe()] + [bx(x) for x in base.alphabet]


def random_word(rng, syms, max_len=8, min_len=0):
    return tuple(rng.choice(syms) for _ in range(rng.randrange(min_len, max_len)))


# ---------------------------------------------------------------------------
# syntax

def test_token_round_trip():
    samples = [
        s_(1), e_(2), pe(), x_("g", 1), bx("g"), f_(1, 2), xc("g", 1, 3),
        s_(1, 4), e_(2, 4), x_("g", 1, 4), lam(3), rho(3), TX, TU, TUBAR,
    ]
    for sym in samples:
        text = token(sym)
        if sym.n is not None:
            assert parse_path(text).edges == (sym,)
        elif sym.kind in ("TX", "TU", "TUbar"):
            assert parse_term(text) == tedge(sym)
        else:
            assert parse_monoid_word(text) == (sym,)


def test_word_round_trip_random():
    rng = random.Random(0)
    syms = full_alphabet(C2, 3) + [f_(1, 2), xc("g", 2, 3)]
    for _ in range(200):
        w = random_word(rng, syms)
        assert parse_monoid_word(word_text(w)) == w
    assert parse_monoid_word("") == ()
    assert parse_monoid_word("1") == ()
    assert word_text(()) == "1"


def test_path_round_trip_random():
    rng = random.Random(21)
    from invwreath.presentations import build
    omega = build("omega-mi", C2, cap=3)
    by_src = {}
    for sym in omega.alphabet:
        by_src.setdefault(edge_dr(sym)[0], []).append(sym)
    for _ in range(200):
        src = rng.randrange(0, 4)
        cur, edges = src, []
        for _ in range(rng.randrange(0, 7)):
            sym = rng.choice(by_src[cur])
            edges.append(sym)
            cur = edge_dr(sym)[1]
        p = Path(src, tuple(edges))
        assert parse_path(path_text(p)) == p


def test_term_round_trip_random():
    rng = random.Random(22)

    def gen(depth):
        pick = rng.randrange(0, 6 if depth < 4 else 3)
        if pick == 0:
            return TIdent(rng.randrange(0, 4))
        if pick in (1, 2):
            return tedge(rng.choice((TX, TU, TUBAR, bx("g"))))
        if pick == 3:
            return ttensor(gen(depth + 1), gen(depth + 1))
        left = gen(depth + 1)
        right = gen(depth + 1)
        if term_r(left) != term_d(right):
            return ttensor(left, right)
        from invwreath.words import tcompose
        return tcompose(left, right)

    for _ in range(300):
        t = gen(0)
        assert parse_term(term_text(t)) == t


def test_path_round_trip():
    p = Path(2, (lam(2), s_(1, 3), rho(2)))
    assert parse_path(path_text(p)) == p
    empty = Path(3, ())
    assert path_text(empty) == "i3"
    assert parse_path("i3") == empty
    assert parse_path("lam2 i3 rho2") == Path(2, (lam(2), rho(2)))
    with pytest.raises(ParseError):
        parse_path("lam2 lam2")
    with pytest.raises(ParseError):
        parse_path("i3 i4")
    with pytest.raises(ValueError):
        Path(1, (lam(2),))


def test_term_round_trip_and_typing():
    t = parse_term("(o X (p U i1))")
    assert term_d(t) == 2 and term_r(t) == 1
    assert parse_term(term_text(t)) == t
    t2 = parse_term("(p (o X X) i2)")
    assert term_d(t2) == 4 and term_r(t2) == 4
    assert term_d(ttensor(tedge(TU), tedge(TUBAR))) == 1
    with pytest.raises(ParseError):
        parse_term("(o U X)")  # r(U)=0 but d(X)=2
    with pytest.raises(ParseError):
        parse_term("(o X)")
    with pytest.raises(ParseError):
        parse_term("(q X X)")


def test_long_terms():
    # a composite far deeper than Python's recursion limit, in both the
    # flat and the nested spelling
    t = parse_term("(o" + " X" * 3000 + ")")
    assert term_d(t) == term_r(t) == 2
    text = term_text(t)
    assert text == "(o " * 2999 + "X" + " X)" * 2999
    assert term_text(parse_term(text)) == text
    assert parse_term(text) == t and hash(parse_term(text)) == hash(t)
    assert parse_term("(o" + " X" * 2999 + ")") != t
    assert repr(t) == f"parse_term({text!r})"
    # X is an involution
    assert eval_term(t, C2) == wreath.identity_element(C2.monoid, 2)
    assert term_d(ttensor(t, t)) == term_r(ttensor(t, t)) == 4

def test_parse_errors():
    with pytest.raises(ParseError):
        parse_monoid_word("s0")
    with pytest.raises(ParseError):
        parse_monoid_word("??")
    with pytest.raises(ParseError):
        parse_monoid_word("lam2")
    with pytest.raises(ParseError):
        parse_path("g@1")
    with pytest.raises(ParseError):
        parse_path("s2:2")
    with pytest.raises(ParseError):
        parse_monoid_word("s1:3")
    for bad in (lambda: s_(2, 2), lambda: e_(3, 2), lambda: x_("g", 0, 3)):
        with pytest.raises(ValueError):
            bad()


def test_each_token_parses_once_to_an_equal_symbol():
    # a side of one letter, per flavor
    one = {"monoid": lambda sym: (sym,), "semigroup": lambda sym: (sym,),
           "category": lambda sym: Path(edge_dr(sym)[0], (sym,)), "tensor": tedge}
    _parse_token.cache_clear()
    for kind, row in KIND.items():
        p = build(kind, C2, **{"n": {"n": 3}, "cap": {"cap": 2}}.get(row.level, {}))
        syntax = FLAVOR_SYNTAX[p.flavor]
        for sym in p.alphabet:
            side = one[p.flavor](sym)
            first = _parse_token(token(sym))
            assert first == sym, (p.kind, sym)
            assert syntax.parse(syntax.text(side)) == side, (p.kind, sym)
            assert _parse_token(token(sym)) is first, (p.kind, sym)
            assert syntax.parse(syntax.text(side)) == side, (p.kind, sym)
    info = _parse_token.cache_info()
    assert info.hits > 0 and info.maxsize is not None


def test_parse_errors_are_raised_again():
    # a failed parse is not remembered: the same message every time
    expected = {
        "s0": "bad token 's0': swap index 0 must be positive",
        "??": "unrecognized token '??'",
        "lam2": "token 1: 'lam2' is not a monoid-word symbol",
    }
    for text, message in expected.items():
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_monoid_word(f"s1 {text} e1")
            assert str(err.value) == message


def test_symbols_are_interned_and_hash_by_their_fields():
    assert s_(1) is s_(1)
    assert _parse_token("s1:3") is s_(1, 3)
    assert Sym("s", i=1) == s_(1) and hash(Sym("s", i=1)) == hash(s_(1))
    assert repr(s_(1, 3)) == "Sym(kind='s', letter='', i=1, j=0, n=3)"
    up = plus_word((s_(1, 3), e_(3, 3), x_("g", 2, 3)))
    assert up == (s_(1, 4), e_(3, 4), x_("g", 2, 4))
    assert all(a is b for a, b in zip(up, (s_(1, 4), e_(3, 4), x_("g", 2, 4))))
    # a symbol made outside the table hashes from its own fields
    moved = s_(1, 3)._replace(n=4)
    assert moved == s_(1, 4) and hash(moved) == hash(Sym("s", i=1, n=4)) == hash(s_(1, 4))
    assert pickle.loads(pickle.dumps(xc("g", 1, 2))) is xc("g", 1, 2)
    assert copy.deepcopy(xc("g", 1, 2)) is xc("g", 1, 2) and copy.copy(lam(2)) is lam(2)


def test_a_pickled_symbol_hashes_in_another_process():
    # string hashing differs between processes, so an unpickled symbol
    # must hash as one made in the process that reads it
    data = pickle.dumps((x_("g", 2, 3), bx("g")))
    code = ("import pickle, sys; from invwreath.words import Sym; "
            "a, b = pickle.loads(sys.stdin.buffer.read()); "
            "assert hash(a) == hash(Sym('x', 'g', 2, 0, 3)) and {a: 1}[Sym('x', 'g', 2, 0, 3)] == 1; "
            "assert hash(b) == hash(Sym('bx', 'g'))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], input=data, env=env, check=True, timeout=60)


def test_the_intern_table_is_bounded():
    for k in range(1, 10_001):
        assert _parse_token(f"s{k}") == Sym("s", i=k)
    info = words._sym.cache_info()
    assert info.maxsize == 4096 and info.currsize <= info.maxsize


def test_edge_typing():
    assert edge_dr(lam(2)) == (2, 3)
    assert edge_dr(rho(2)) == (3, 2)
    assert edge_dr(s_(1, 4)) == (4, 4)
    # a level-free symbol is no path edge: a ValueError, not a TypeError
    for reject in (edge_dr, hat_edge, lambda sym: plus_word((sym,))):
        with pytest.raises(ValueError):
            reject(s_(1))
    with pytest.raises(ValueError):
        leveled_word((s_(1, 3),), 3)


# ---------------------------------------------------------------------------
# evaluation

def test_eval_examples():
    assert eval_word(parse_monoid_word("s1 s1"), C2, 2) == \
        wreath.identity_element(C2.monoid, 2)
    assert eval_word((pe(),), C2, 2).pmap == omit(1, 2)
    # the one-generator omission at level 4 keeps slots 2..4
    assert eval_word((pe(),), C2, 4).pmap == omit(1, 4)


def test_eval_is_left_fold():
    rng = random.Random(5)
    from invwreath.base import adjoin_zero
    from invwreath.pperm import CompositionError
    from invwreath.words import sym_image
    for base, n in [(C2, 3), (builtin("c3"), 2), (S3, 3), (builtin("trivial"), 4)]:
        syms = full_alphabet(base, n) + small_alphabet(base, n)
        syms += [f_(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        syms += [xc(x, i, j) for x in base.alphabet
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        m0 = adjoin_zero(base.monoid)
        for _ in range(100):
            w = random_word(rng, syms, max_len=12)
            out = wreath.identity_element(base.monoid, n)
            for sym in w:
                out = wreath.compose(m0, out, sym_image(sym, base, n))
            assert out == eval_word(w, base, n)
    # a leveled symbol off the word's level fails as compose does
    with pytest.raises(CompositionError, match="cannot compose 3->3 with 2->3"):
        eval_word((s_(1), lam(2)), C2, 3)


def test_eval_path_and_term():
    p = Path(2, (lam(2), rho(2)))
    assert eval_path(p, C2) == wreath.identity_element(C2.monoid, 2)
    t = parse_term("(o (p i1 X) (p X i1))")
    assert eval_term(t, C2).pmap == PartialBijection(3, 3, (2, 3, 1))
    assert eval_term(TIdent(0), C2) == wreath.identity_element(C2.monoid, 0)


# ---------------------------------------------------------------------------
# translations

def test_psi_round_trips():
    assert psi2_word((pe(),)) == (e_(1),)
    assert psi2_word((bx("g"),)) == (x_("g", 1),)
    for z in small_alphabet(C2, 3):
        assert psi1_word(psi2_word((z,))) == (z,)
    rng = random.Random(6)
    syms = full_alphabet(S3, 3)
    for _ in range(300):
        w = random_word(rng, syms)
        assert eval_word(psi2_word(psi1_word(w)), S3, 3) == eval_word(w, S3, 3)


def test_psi1_image_evaluates_equal():
    rng = random.Random(7)
    syms = full_alphabet(C2, 3)
    for _ in range(300):
        w = random_word(rng, syms)
        assert eval_word(psi1_word(w), C2, 3) == eval_word(w, C2, 3)


def test_hat_examples():
    assert hat_edge(lam(2)) == ttensor(TIdent(2), tedge(TUBAR))
    assert hat_edge(lam(0)) == tedge(TUBAR)
    assert hat_edge(s_(1, 2)) == tedge(TX)
    for n in range(4):
        e = lam(n)
        assert eval_term(hat_edge(e), C2) == eval_path(Path(n, (e,)), C2)


def test_hat_commutes_on_random_paths():
    rng = random.Random(8)
    from invwreath.presentations import build
    omega = build("omega-mi", C2, cap=3)
    by_src = {}
    for sym in omega.alphabet:
        by_src.setdefault(edge_dr(sym)[0], []).append(sym)
    for _ in range(300):
        src = rng.randrange(0, 4)
        cur, edges = src, []
        for _ in range(rng.randrange(0, 6)):
            sym = rng.choice(by_src[cur])
            edges.append(sym)
            cur = edge_dr(sym)[1]
        path = Path(src, tuple(edges))
        assert eval_term(hat_path(path), C2) == eval_path(path, C2)


def test_plus_and_reverse():
    w = (s_(1, 2), e_(2, 2))
    assert plus_word(w) == (s_(1, 3), e_(2, 3))
    rng = random.Random(9)
    for _ in range(100):
        w = tuple(s_(rng.randrange(1, 3)) for _ in range(rng.randrange(0, 6)))
        rev = reverse_word(w)
        assert eval_word(rev, C2, 3).pmap == eval_word(w, C2, 3).pmap.invert()
    with pytest.raises(ValueError):
        reverse_word((e_(1),))
    with pytest.raises(ValueError):
        plus_word((s_(1),))


# ---------------------------------------------------------------------------
# separation

def _is_separated(out, is_x):
    k = 0
    while k < len(out) and is_x(out[k]):
        k += 1
    return not any(is_x(s) for s in out[k:])


def test_separation_shapes_and_eval():
    is_x, rules = min_separation_rules(C2, 3)
    already = (x_("g", 1), s_(1), e_(2))
    assert separate(already, is_x, rules, "prefix") == already
    assert separate((s_(1), x_("g", 1)), is_x, rules, "prefix") == (x_("g", 2), s_(1))
    rng = random.Random(10)
    syms = full_alphabet(C2, 3)
    for _ in range(400):
        w = random_word(rng, syms)
        out = separate(w, is_x, rules, "prefix")
        assert _is_separated(out, is_x)
        assert eval_word(out, C2, 3) == eval_word(w, C2, 3)


def test_separation_suffix_condition():
    is_x, rules = sing_separation_rules(C2, 3)
    # a replacement with two X letters forces the suffix condition
    with pytest.raises(ValueError):
        separate((xc("g", 1, 2), e_(1)), is_x, rules, "prefix")
    rng = random.Random(11)
    syms = [e_(i) for i in range(1, 4)]
    syms += [xc("g", i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for _ in range(400):
        w = random_word(rng, syms, min_len=1)
        out = separate(w, is_x, rules, "suffix")
        assert _is_separated(out, is_x)
        assert eval_word(out, C2, 3) == eval_word(w, C2, 3)


def test_separation_of_long_words():
    # words far longer than Python's recursion limit
    is_x, rules = min_separation_rules(C2, 3)
    word = (s_(1),) * 2999 + (x_("g", 1),)
    out = separate(word, is_x, rules, "prefix")
    assert _is_separated(out, is_x)
    assert eval_word(out, C2, 3) == eval_word(word, C2, 3)
    is_x, rules = sing_separation_rules(C2, 3)
    word = (xc("g", 1, 2),) * 1500 + (e_(3),) * 1500
    out = separate(word, is_x, rules, "suffix")
    assert _is_separated(out, is_x)
    assert eval_word(out, C2, 3) == eval_word(word, C2, 3)


# ---------------------------------------------------------------------------
# normal forms

def test_wreath_normal_form_examples():
    parts, tail = normal_form_wreath_word((e_(1),), C2, 2)
    assert parts == [(), ()] and tail == (e_(1),)
    parts, tail = normal_form_wreath_word((s_(1), x_("g", 2)), C2, 2)
    assert parts == [("g",), ()] and tail == (s_(1),)


def test_wreath_normal_form_random():
    rng = random.Random(12)
    syms = full_alphabet(S3, 3)
    for _ in range(300):
        w = random_word(rng, syms)
        parts, tail = normal_form_wreath_word(w, S3, 3)
        dom = set(eval_word(tail, S3, 3).pmap.dom)
        for i, pw in enumerate(parts, start=1):
            if i not in dom:
                assert pw == ()
        assert eval_word(reassemble_wreath(parts, tail), S3, 3) == eval_word(w, S3, 3)


def test_singular_normal_form_examples():
    q, sigma, slots = normal_form_singular_tuple(tuple(e_(i) for i in (1, 2)), C2, 2)
    assert q == 0 and slots == ()
    q, sigma, slots = normal_form_singular_tuple((xc("g", 1, 2),), C2, 2)
    assert q == 1 and sigma == (1, 2) and slots == (("g",),)


def test_singular_normal_form_random():
    rng = random.Random(13)
    syms = [e_(i) for i in range(1, 4)]
    syms += [xc(x, i, j) for i in range(1, 4) for j in range(1, 4) if i != j
             for x in C2.alphabet]
    for _ in range(300):
        w = random_word(rng, syms, min_len=1)
        q, sigma, slots = normal_form_singular_tuple(w, C2, 3)
        reassembled = reassemble_singular(q, 3, slots)
        orig = eval_word(w, C2, 3)
        assert eval_word(reassembled, C2, 3) == \
            embed_tuple(relabel_tuple(orig.tup, sigma))
        assert sorting_relabel(orig.tup.support, 3) == sigma


# ---------------------------------------------------------------------------
# canonical words

def test_canonical_word_basics():
    assert canonical_word(wreath.identity_element(C2.monoid, 2), "r-min", C2) == ()
    e2 = wreath.embed_map(C2.monoid, omit(2, 2))
    assert canonical_word(e2, "r-in", C2) == (e_(2),)
    label = wreath.from_key(((1,), (2,), 1))          # c2's generator at level 1
    assert canonical_word(label, "r-min", C2) == (x_("g", 1),)
    assert canonical_word(label, "xi-mi", C2) == tedge(bx("g"))
    # an element the kind does not present, or no kind at all
    for elem, kind in [(wreath.identity_element(C2.monoid, 2), "r-sing-in"),
                       (label, "r-in"), (label, "xi-i"), (label, "nope"),
                       (wreath.from_key(((1,), (1,), 2)), "r-min"),   # not an endo-element
                       (wreath.identity_element(C2.monoid, 0), "r-in-popova")]:
        with pytest.raises(ValueError):
            canonical_word(elem, kind, C2)


def test_canonical_word_covers_everything():
    for kind, variant, base in [
        ("r-in", "full", builtin("trivial")),
        ("r-in-popova", "full", builtin("trivial")),
        ("r-min", "full", C2),
        ("r-min-small", "full", C2),
        ("r-sing-in", "singular-monoid", builtin("trivial")),
        ("r-sing-tuples", "singular-tuples", C2),
        ("r-m-sing-in", "singular-monoid", C2),
    ]:
        for elem in wreath.enumerate_wreath(base.monoid, 3, 3, variant, cap=3):
            w = canonical_word(elem, kind, base)
            assert eval_word(w, base, 3) == elem


def test_canonical_paths_and_terms():
    for m in range(3):
        for n in range(3):
            for elem in wreath.enumerate_wreath(C2.monoid, m, n, cap=2):
                path = canonical_word(elem, "omega-mi", C2)
                assert path.src == m and path.tgt == n
                assert eval_path(path, C2) == elem
                term = canonical_word(elem, "xi-mi", C2)
                assert eval_term(term, C2) == elem


def test_squeezed_words_round_trip_one_level_down():
    # squeezing an endo word at level k+1 between omissions of the top slot
    # restricts it to level k; the restriction's canonical word, pushed one
    # level up and squeezed the same way, gives the squeezed element back.
    # Every word of length at most 3 at levels 1 and 2
    import itertools

    from invwreath.presentations import build

    checked = 0
    for name in ("trivial", "c2", "c3", "sl2", "s3"):
        base = builtin(name)
        for level in (1, 2):
            top = (e_(level, level),)
            syms = build("r-min", base, n=level).alphabet
            for length in range(4):
                for word in itertools.product(syms, repeat=length):
                    squeezed = eval_path(Path(level, top + leveled_word(word, level) + top), base)
                    inner = wreath.from_key((squeezed.pmap.images[:level - 1],
                                             squeezed.tup.entries[:level - 1], level - 1))
                    v = canonical_word(inner, "r-min", base)
                    assert eval_path(Path(level, top + leveled_word(v, level) + top),
                                     base) == squeezed, (name, word)
                    checked += 1
    assert checked == 997


def test_witness_words_are_shortest_first():
    words = word_for_pperm(2)
    assert words[identity(2)] == ()
    assert words[omit(2, 2)] == (e_(2),)
    assert len(words) == 7


# ---------------------------------------------------------------------------
# padded-edge decompositions

def test_x_mn_decompose():
    term, path = x_mn_decompose(TX, 0, 0)
    assert term == tedge(TX)
    assert path == Path(2, (s_(1, 2),))
    term, path = x_mn_decompose(bx("g"), 1, 2)
    assert path == Path(4, (x_("g", 2, 4),))
    assert eval_term(term, C2) == eval_path(path, C2)
    for sym in (TX, TU, TUBAR, bx("g")):
        for m in range(4):
            for n in range(4 - m):
                term, path = x_mn_decompose(sym, m, n)
                assert eval_term(term, C2) == eval_path(path, C2)
                assert term_d(term) == path.src
                assert term_r(term) == path.tgt
