"""The generator-and-relation presentations of the wreath structures, each
an alphabet and, apart from it, a stream of relations, parameterized by the
base presentation and a level or object cap.

Kinds and flavors:

    r-in            monoid     swap/omit alphabet at one level
    r-in-popova     monoid     swaps plus a single omission
    r-min           monoid     swap/omit plus one slot alphabet per position
    r-min-small     monoid     swaps, one omission, bare base letters
    omega-mi        category   r-min at every level plus inclusion/projection
                               commutation
    xi-i            tensor     the three untyped edges
    xi-mi           tensor     the three edges plus the base letters
    r-sing-in       semigroup  transfer alphabet
    r-sing-tuples   semigroup  omissions plus pinned slot letters
    r-m-sing-in     semigroup  union of the two singular alphabets

Instantiation policy, fixed for reproducible output: schemas are emitted in
the order listed per kind; index tuples run lexicographically over all
values for which every mentioned symbol is well formed, plus any stated
constraint; chained equalities ``a = b = c`` contribute the adjacent pairs
``(a, b)`` and ``(b, c)``; a schema whose two sides swap under exchanging a
symmetric index pair is instantiated once per unordered choice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .base import BasePresentation
from .words import (
    ParseError,
    Path,
    Sym,
    TIdent,
    bx,
    compose_chain,
    e_,
    eval_path,
    eval_term,
    eval_word,
    f_,
    lam,
    leveled_word,
    lift_word_i,
    lift_word_ij,
    parse_monoid_word,
    parse_path,
    parse_term,
    path_text,
    pe,
    plus_word,
    rho,
    s_,
    tcompose,
    tedge,
    term_text,
    token,
    ttensor,
    TX,
    TU,
    TUBAR,
    word_text,
    x_,
    xc,
)

__all__ = [
    "KIND",
    "KINDS",
    "FlavorSyntax",
    "FLAVOR_SYNTAX",
    "Presentation",
    "build",
    "check_level",
    "category_letters",
    "emit_text",
    "emit_json",
]

@dataclass(frozen=True)
class FlavorSyntax:
    """How one flavor reads, evaluates and prints a relation side.

    ``eval(side, base, n)`` uses the level ``n`` for flat words only.
    ``tokens`` is the side as emitted in JSON.
    """

    parse: Callable
    eval: Callable
    text: Callable
    tokens: Callable


# eval looks its function up per call, so a wrapper installed on the
# module attribute sees every evaluation
_FLAT = FlavorSyntax(
    parse_monoid_word,
    lambda word, base, n: eval_word(word, base, n),
    word_text,
    lambda word: [token(s) for s in word])


def _parse_semigroup_word(text: str):
    """A flat word of at least one letter: no semigroup kind presents an
    identity, and none of its relations has an empty side."""
    word = parse_monoid_word(text)
    if not word:
        raise ParseError(f"{text!r} is the empty word, which is no element of a semigroup")
    return word


FLAVOR_SYNTAX = {
    "monoid": _FLAT,
    "semigroup": replace(_FLAT, parse=_parse_semigroup_word),
    "category": FlavorSyntax(
        parse_path,
        lambda path, base, n: eval_path(path, base),
        path_text,
        lambda path: [token(s) for s in path.edges] or [path_text(path)]),
    "tensor": FlavorSyntax(
        parse_term,
        lambda term, base, n: eval_term(term, base),
        term_text,
        term_text),
}


@dataclass(frozen=True)
class Presentation:
    kind: str
    flavor: str
    base: BasePresentation
    n: int | None
    cap: int | None
    alphabet: tuple[Sym, ...]
    relations: tuple
    # what a reader derives from the presentation once and keeps with it
    # (``verify._generators``); ``replace`` starts it empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build(kind: str, base: BasePresentation, n: int | None = None,
          cap: int | None = None) -> Presentation:
    """Instantiate a presentation kind at level ``n`` (monoid/semigroup
    kinds) or up to object ``cap`` (the category kind)."""
    check_level(kind, n, cap)
    row = KIND[kind]
    return Presentation(kind, row.flavor, base, n if row.level == "n" else None,
                        cap if row.level == "cap" else None,
                        tuple(row.alphabet(base, n, cap)), tuple(row.relations(base, n, cap)))


def check_level(kind: str, n: int | None = None, cap: int | None = None):
    """Raise ``ValueError`` unless ``build`` takes this kind and level."""
    if kind not in KIND:
        raise ValueError(f"unknown presentation kind {kind!r}")
    row = KIND[kind]
    if row.level == "n":
        if n is None:
            raise ValueError(f"kind {kind} needs a level n")
        if n < row.least:
            raise ValueError(f"kind {kind} needs n >= {row.least}")
    elif row.level == "cap" and (cap is None or cap < row.least):
        raise ValueError(f"the category kind needs an object cap >= {row.least}")


# ---------------------------------------------------------------------------
# level-free monoid kinds

def _r_in_core(n):
    for i in range(1, n):                                     # swaps are involutions
        yield ((s_(i), s_(i)), ())
    for i in range(1, n):                                     # distant swaps commute
        for j in range(i + 2, n):
            yield ((s_(i), s_(j)), (s_(j), s_(i)))
    for i in range(1, n - 1):                                 # braid
        yield ((s_(i), s_(i + 1), s_(i)), (s_(i + 1), s_(i), s_(i + 1)))


def _omissions(n):
    for i in range(1, n + 1):                                 # omissions are idempotent
        yield ((e_(i), e_(i)), (e_(i),))
    for i in range(1, n + 1):                                 # omissions commute
        for j in range(i + 1, n + 1):
            yield ((e_(i), e_(j)), (e_(j), e_(i)))


def _r_in_alphabet(base, n, cap):
    return [s_(i) for i in range(1, n)] + [e_(i) for i in range(1, n + 1)]


def _r_in(base, n, cap):
    yield from _r_in_core(n)
    yield from _omissions(n)
    for i in range(1, n):                                     # swap past an untouched omission
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield ((s_(i), e_(j)), (e_(j), s_(i)))
    for i in range(1, n):                                     # swap carries the omitted slot
        yield ((s_(i), e_(i)), (e_(i + 1), s_(i)))
    for i in range(1, n):                                     # swap dies under both omissions
        yield ((e_(i), e_(i + 1), s_(i)), (e_(i), e_(i + 1)))


def _r_in_popova_alphabet(base, n, cap):
    return [s_(i) for i in range(1, n)] + [pe()]


def _r_in_popova(base, n, cap):
    yield from _r_in_core(n)
    yield ((pe(), pe()), (pe(),))
    if n >= 2:
        yield ((pe(), s_(1), pe(), s_(1)), (pe(), s_(1), pe()))
        yield ((pe(), s_(1), pe()), (s_(1), pe(), s_(1), pe()))
    for i in range(2, n):
        yield ((pe(), s_(i)), (s_(i), pe()))


def _r_min_alphabet(base, n, cap):
    return _r_in_alphabet(base, n, cap) + [x_(x, i) for i in range(1, n + 1) for x in base.alphabet]


def _r_min(base, n, cap):
    letters = base.alphabet
    yield from _r_in(base, n, cap)
    for (u, v) in base.relations:                             # base relations per slot
        for i in range(1, n + 1):
            yield (lift_word_i(u, i), lift_word_i(v, i))
    for i in range(1, n + 1):                                 # distinct slots commute
        for j in range(i + 1, n + 1):
            for x in letters:
                for y in letters:
                    yield ((x_(x, i), x_(y, j)), (x_(y, j), x_(x, i)))
    for i in range(1, n):                                     # swap past an untouched slot
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                for x in letters:
                    yield ((s_(i), x_(x, j)), (x_(x, j), s_(i)))
    for i in range(1, n):                                     # swap moves the slot up
        for x in letters:
            yield ((s_(i), x_(x, i)), (x_(x, i + 1), s_(i)))
    for i in range(1, n + 1):                                 # omission past other slots
        for j in range(1, n + 1):
            if j != i:
                for x in letters:
                    yield ((e_(i), x_(x, j)), (x_(x, j), e_(i)))
    for i in range(1, n + 1):                                 # omission absorbs its own slot
        for x in letters:
            yield ((e_(i), x_(x, i)), (e_(i),))
            yield ((e_(i),), (x_(x, i), e_(i)))


def _r_min_small_alphabet(base, n, cap):
    return _r_in_popova_alphabet(base, n, cap) + [bx(x) for x in base.alphabet]


def _r_min_small(base, n, cap):
    letters = base.alphabet
    yield from _r_in_popova(base, n, cap)
    for (u, v) in base.relations:                             # base relations verbatim
        yield (tuple(bx(x) for x in u), tuple(bx(x) for x in v))
    for i in range(2, n):                                     # high swaps miss slot 1
        for x in letters:
            yield ((s_(i), bx(x)), (bx(x), s_(i)))
    if n >= 2:
        for x in letters:                                     # slot 1 and conjugated slot 2
            for y in letters:
                yield ((bx(x), s_(1), bx(y), s_(1)),
                       (s_(1), bx(y), s_(1), bx(x)))
        for x in letters:
            yield ((pe(), s_(1), bx(x), s_(1)),
                   (s_(1), bx(x), s_(1), pe()))
    for x in letters:                                         # omission absorbs slot 1
        yield ((pe(), bx(x)), (bx(x), pe()))
        yield ((bx(x), pe()), (pe(),))


# ---------------------------------------------------------------------------
# category kind

def _level(base, k):
    """The generators of r-min at level ``k``, tagged with it."""
    return leveled_word(_r_min_alphabet(base, k, None), k)


def _omega_mi_alphabet(base, n, cap):
    return ([g for k in range(cap + 1) for g in _level(base, k)]
            + [g for k in range(cap) for g in (lam(k), rho(k))])


def category_letters(base, k):
    """The generators of ``omega-mi`` whose higher end is the object ``k``,
    ``_level(base, k)`` then ``lam(k-1)`` and ``rho(k-1)``: at a cap of at
    least ``k``, an edge with that higher end is a generator iff it is one."""
    return _level(base, k) + ((lam(k - 1), rho(k - 1)) if k else ())


def _omega_mi(base, n, cap):
    for k in range(cap + 1):                                  # r-min at every level
        for (u, v) in _r_min(base, k, None):
            yield (Path(k, leveled_word(u, k)), Path(k, leveled_word(v, k)))
    for k in range(cap):
        level = _level(base, k)
        yield (Path(k, (lam(k), rho(k))), Path(k, ()))        # the two sandwiches
        yield (Path(k + 1, (rho(k), lam(k))), Path(k + 1, (e_(k + 1, k + 1),)))
        for g in level:                                       # generators pass the inclusion
            yield (Path(k, (g, lam(k))), Path(k, (lam(k),) + plus_word((g,))))
        for g in level:                                       # and the projection
            yield (Path(k + 1, (rho(k), g)), Path(k + 1, plus_word((g,)) + (rho(k),)))


# ---------------------------------------------------------------------------
# tensor kinds

def _word_chain(word, letters_to_edges):
    if not word:
        return TIdent(1)
    return compose_chain([letters_to_edges(x) for x in word])


def _xi_i_alphabet(base, n, cap):
    return [TX, TU, TUBAR]


def _xi_i(base, n, cap):
    I = TIdent(1)
    X, U, Ub = tedge(TX), tedge(TU), tedge(TUBAR)
    XI = ttensor(X, I)
    IX = ttensor(I, X)
    yield (tcompose(X, X), TIdent(2))
    yield (tcompose(tcompose(XI, IX), XI), tcompose(tcompose(IX, XI), IX))
    yield (tcompose(Ub, U), TIdent(0))
    yield (tcompose(X, ttensor(U, I)), ttensor(I, U))
    yield (tcompose(ttensor(Ub, I), X), ttensor(I, Ub))


def _xi_mi_alphabet(base, n, cap):
    return _xi_i_alphabet(base, n, cap) + [bx(x) for x in base.alphabet]


def _xi_mi(base, n, cap):
    letters = base.alphabet
    I = TIdent(1)
    X, U, Ub = tedge(TX), tedge(TU), tedge(TUBAR)
    for (u, v) in base.relations:                             # base relations as loops at 1
        yield (_word_chain(u, lambda c: tedge(bx(c))),
               _word_chain(v, lambda c: tedge(bx(c))))
    yield from _xi_i(base, n, cap)
    for x in letters:                                         # swap carries a label across
        xe = tedge(bx(x))
        yield (tcompose(X, ttensor(xe, I)), tcompose(ttensor(I, xe), X))
    for x in letters:                                         # labels die against the caps
        yield (tcompose(tedge(bx(x)), U), U)
    for x in letters:
        yield (tcompose(Ub, tedge(bx(x))), Ub)


# ---------------------------------------------------------------------------
# singular kinds

def _ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _r_sing_in_alphabet(base, n, cap):
    return [f_(i, j) for i, j in _ordered_pairs(n)]


def _r_sing_in(base, n, cap):
    for i, j in _ordered_pairs(n):                            # transfer is regular
        yield ((f_(i, j), f_(j, i), f_(i, j)), (f_(i, j),))
    for i, j in _ordered_pairs(n):                            # cube equals square
        yield ((f_(i, j),) * 3, (f_(i, j),) * 2)
    for i in range(1, n + 1):                                 # squares agree across the pair
        for j in range(i + 1, n + 1):
            yield ((f_(i, j),) * 2, (f_(j, i),) * 2)
    pairs = _ordered_pairs(n)
    for a, (i, j) in enumerate(pairs):                        # disjoint transfers commute
        for (k, l) in pairs[a + 1:]:
            if {i, j} & {k, l}:
                continue
            yield ((f_(i, j), f_(k, l)), (f_(k, l), f_(i, j)))
    for i in range(1, n + 1):                                 # projections at i agree
        for j in range(1, n + 1):
            if j == i:
                continue
            for k in range(j + 1, n + 1):
                if k == i:
                    continue
                yield ((f_(i, j), f_(j, i)), (f_(i, k), f_(k, i)))
    for i, j in _ordered_pairs(n):                            # sliding a shared slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            yield ((f_(i, j), f_(i, k)), (f_(j, k), f_(i, j)))
            yield ((f_(j, k), f_(i, j)), (f_(i, k), f_(j, k)))
    for i in range(1, n + 1):                                 # three-cycles match transposed
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                yield ((f_(k, i), f_(i, j), f_(j, k)),
                       (f_(k, j), f_(j, i), f_(i, k)))
    for i, j in _ordered_pairs(n):                            # cycle then move elsewhere
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for l in range(1, n + 1):
                if l in (i, j, k):
                    continue
                yield ((f_(k, i), f_(i, j), f_(j, k), f_(k, l)),
                       (f_(k, l), f_(l, i), f_(i, j), f_(j, l)))


def _r_sing_tuples_alphabet(base, n, cap):
    return ([e_(i) for i in range(1, n + 1)]
            + [xc(x, i, j) for i, j in _ordered_pairs(n) for x in base.alphabet])


def _r_sing_tuples(base, n, cap):
    letters = base.alphabet
    yield from _omissions(n)
    for (u, v) in base.relations:                             # base relations, pinned
        for i, j in _ordered_pairs(n):
            yield (lift_word_ij(u, i, j), lift_word_ij(v, i, j))
    for i, j in _ordered_pairs(n):                            # untouched omission slides and re-pins
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                yield ((xc(x, i, j), e_(k)), (e_(k), xc(x, i, j)))
                yield ((e_(k), xc(x, i, j)), (e_(j), xc(x, i, k)))
    for i, j in _ordered_pairs(n):                            # pinned slot absorbs its omission
        for x in letters:
            yield ((xc(x, i, j), e_(j)), (e_(j), xc(x, i, j)))
            yield ((e_(j), xc(x, i, j)), (xc(x, i, j),))
    for i, j in _ordered_pairs(n):                            # omitting the labelled slot
        for x in letters:
            yield ((xc(x, i, j), e_(i)), (e_(i), xc(x, i, j)))
            yield ((e_(i), xc(x, i, j)), (e_(i), e_(j)))
    for i in range(1, n + 1):                                 # same pin, different slots commute
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                for x in letters:
                    for y in letters:
                        yield ((xc(x, i, k), xc(y, j, k)),
                               (xc(y, j, k), xc(x, i, k)))


def _r_m_sing_in_alphabet(base, n, cap):
    return _r_sing_in_alphabet(base, n, cap) + _r_sing_tuples_alphabet(base, n, cap)


def _r_m_sing_in(base, n, cap):
    letters = base.alphabet
    yield from _r_sing_in(base, n, cap)
    yield from _r_sing_tuples(base, n, cap)
    for i, j in _ordered_pairs(n):                            # transfer and back omits i
        yield ((f_(i, j), f_(j, i)), (e_(i),))
    for i, j in _ordered_pairs(n):                            # label crosses its own transfer
        for x in letters:
            yield ((f_(i, j), xc(x, i, j)), (xc(x, j, i), f_(i, j)))
    for i, j in _ordered_pairs(n):                            # label at the moved slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                yield ((f_(i, j), xc(x, i, k)), (xc(x, j, k), f_(i, j)))
    for i, j in _ordered_pairs(n):                            # pin at the dead slot
        for k in range(1, n + 1):
            # k must differ from i (the pinned letter needs k != i) but k = j
            # is meaningful and included
            if k == i:
                continue
            for x in letters:
                yield ((f_(i, j), xc(x, k, i)), (xc(x, k, i), e_(j)))
    for i, j in _ordered_pairs(n):                            # label rides into the transfer
        for k in range(1, n + 1):
            # k must differ from j; this covers distinct i,j,k as well as k = i
            if k == j:
                continue
            for x in letters:
                yield ((f_(i, j), xc(x, j, k)), (f_(i, j), f_(k, j)))
    for i, j in _ordered_pairs(n):                            # pin at the target slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                yield ((f_(i, j), xc(x, k, j)), (xc(x, k, i), f_(i, j)))
    for i, j in _ordered_pairs(n):                            # fully disjoint
        for k, l in _ordered_pairs(n):
            if {i, j} & {k, l}:
                continue
            for x in letters:
                yield ((f_(i, j), xc(x, k, l)), (xc(x, k, l), f_(i, j)))


class Kind(NamedTuple):
    """What the program knows of one presentation kind: its flavor; its
    generators ``alphabet(base, n, cap)`` and, apart from them, its
    ``relations(base, n, cap)``, which yields ``(lhs, rhs)`` pairs in
    emission order; its least level; the ``wreath`` variant of the
    structure it presents (``None`` for a tensor kind, which has no
    enumerable target); and whether that target is over the trivial base,
    because the kind presents plain maps."""

    flavor: str
    alphabet: Callable
    relations: Callable
    least: int | None
    variant: str | None
    plain: bool = False

    @property
    def level(self) -> str | None:
        """The keyword ``build`` takes the level by: ``n``, ``cap`` or none."""
        return {"monoid": "n", "semigroup": "n", "category": "cap"}.get(self.flavor)


KIND = {
    "r-in": Kind("monoid", _r_in_alphabet, _r_in, 0, "full", plain=True),
    "r-in-popova": Kind("monoid", _r_in_popova_alphabet, _r_in_popova, 1, "full", plain=True),
    "r-min": Kind("monoid", _r_min_alphabet, _r_min, 0, "full"),
    "r-min-small": Kind("monoid", _r_min_small_alphabet, _r_min_small, 1, "full"),
    "omega-mi": Kind("category", _omega_mi_alphabet, _omega_mi, 0, "full"),
    "xi-i": Kind("tensor", _xi_i_alphabet, _xi_i, None, None, plain=True),
    "xi-mi": Kind("tensor", _xi_mi_alphabet, _xi_mi, None, None),
    "r-sing-in": Kind("semigroup", _r_sing_in_alphabet, _r_sing_in, 2, "singular-monoid", plain=True),
    "r-sing-tuples": Kind("semigroup", _r_sing_tuples_alphabet, _r_sing_tuples, 2, "singular-tuples"),
    "r-m-sing-in": Kind("semigroup", _r_m_sing_in_alphabet, _r_m_sing_in, 2, "singular-monoid"),
}

KINDS = tuple(KIND)


# ---------------------------------------------------------------------------
# emission

def emit_text(p: Presentation) -> str:
    """One relation per line, ``lhs = rhs``, after a short comment header."""
    text = FLAVOR_SYNTAX[p.flavor].text
    lines = []
    scope = f"n: {p.n}" if p.n is not None else (f"cap: {p.cap}" if p.cap is not None else "cap: none")
    lines.append(f"# kind: {p.kind}  flavor: {p.flavor}  {scope}  monoid: {p.base.name or 'custom'}")
    lines.append("# generators: " + (" ".join(token(s) for s in p.alphabet) or "(none)"))
    for lhs, rhs in p.relations:
        lines.append(f"{text(lhs)} = {text(rhs)}")
    return "\n".join(lines) + "\n"


def emit_json(p: Presentation) -> str:
    tokens = FLAVOR_SYNTAX[p.flavor].tokens
    obj = {
        "kind": p.kind,
        "flavor": p.flavor,
        "n": p.n,
        "cap": p.cap,
        "monoid": p.base.name or "custom",
        "alphabet": [token(s) for s in p.alphabet],
        "relations": [
            [tokens(lhs), tokens(rhs)]
            for lhs, rhs in p.relations
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
