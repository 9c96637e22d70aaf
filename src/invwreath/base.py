"""Finite base monoids, their zero extensions, labelled tuples, and monoid
presentations.

A monoid is a multiplication table over element indices ``0..size-1``.
Adjoining a zero shifts everything up by one: in the extended encoding,
``0`` is the new absorbing element and base element ``k`` becomes ``k+1``.
Tuples over the extension carry that encoding entrywise, so ``0`` entries
mark the complement of the support.

The program's one breadth-first closure, ``_close``, lives here too.  It
runs on code strings (``wreath.encode_key``), one ``str.translate`` per
product, and keeps a spanning tree of shortest words
(``_Tree``), from which one word is read by walking up to its seed.
Generation falls back to it, ``canonical_word`` and the normal forms read
their witness words from it, and a base presentation's check that its
alphabet generates the table counts it (``word_for_monoid_element``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .pperm import CompositionError, PartialBijection

__all__ = [
    "NoEvaluationError",
    "FiniteMonoid",
    "ZeroExtended",
    "adjoin_zero",
    "MTuple",
    "act",
    "tuple_tensor",
    "ones",
    "ones_on",
    "unit_at",
    "pinned",
    "word_for_monoid_element",
    "BasePresentation",
    "builtin",
    "BUILTIN_NAMES",
    "InternalInconsistency",
]


class NoEvaluationError(ValueError):
    """The base monoid was given only by presentation, with no table."""


class InternalInconsistency(RuntimeError):
    """Two parts of the program disagree where the mathematics says they
    must agree: a bug in the program, never in its input."""


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table over ``0..size-1`` with a designated identity."""

    size: int
    identity: int
    table: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        k = self.size
        if k <= 0 or not 0 <= self.identity < k:
            raise ValueError("bad size or identity index")
        if len(self.table) != k or any(len(row) != k for row in self.table):
            raise ValueError("table must be size x size")
        if any(not 0 <= v < k for row in self.table for v in row):
            raise ValueError("table entry outside element range")
        e = self.identity
        for a in range(k):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise ValueError(f"identity law fails at element {a}")
        for a in range(k):
            for b in range(k):
                ab = self.table[a][b]
                for c in range(k):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def to_json(self) -> dict:
        return {"size": self.size, "identity": self.identity, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json(obj: dict, name: str = "") -> "FiniteMonoid":
        return FiniteMonoid(
            int(obj["size"]),
            int(obj["identity"]),
            tuple(tuple(int(v) for v in row) for row in obj["table"]),
            name=name,
        )


@dataclass(frozen=True)
class ZeroExtended:
    """``base`` with a fresh absorbing zero adjoined as element ``0``.

    Base element ``k`` is encoded as ``k+1``; products with ``0`` vanish.
    """

    base: FiniteMonoid

    @property
    def size(self) -> int:
        return self.base.size + 1

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Multiplication table in the extended encoding."""
        zero = (0,) * self.size
        return (zero,) + tuple((0,) + tuple(v + 1 for v in row) for row in self.base.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


@lru_cache(maxsize=None)
def adjoin_zero(monoid: FiniteMonoid) -> ZeroExtended:
    return ZeroExtended(monoid)


@dataclass(frozen=True)
class MTuple:
    """Tuple over a zero-extended monoid; entry ``0`` is the zero."""

    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.entries, start=1) if v)


def act(alpha: PartialBijection, a: MTuple) -> MTuple:
    """Pull ``a`` back along ``alpha``: entry ``i`` becomes ``a[i alpha]``,
    or ``0`` off the domain of ``alpha``."""
    if len(a) != alpha.n:
        raise CompositionError(f"tuple of length {len(a)} cannot be acted on by map into {alpha.n}")
    return MTuple(tuple(a.entries[v - 1] if v else 0 for v in alpha.images))


def tuple_tensor(a: MTuple, b: MTuple) -> MTuple:
    return MTuple(a.entries + b.entries)


def ones(monoid: FiniteMonoid, n: int) -> MTuple:
    return MTuple((monoid.identity + 1,) * n)


def ones_on(monoid: FiniteMonoid, positions, n: int) -> MTuple:
    """Identity entries on ``positions``, zero elsewhere."""
    keep = set(positions)
    one = monoid.identity + 1
    return MTuple(tuple(one if i in keep else 0 for i in range(1, n + 1)))


def unit_at(monoid: FiniteMonoid, elt: int, i: int, n: int) -> MTuple:
    """Full-support tuple: ``elt`` at position ``i``, identity elsewhere."""
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    one = monoid.identity + 1
    return MTuple(tuple(elt + 1 if k == i else one for k in range(1, n + 1)))


def pinned(monoid: FiniteMonoid, elt: int, i: int, j: int, n: int) -> MTuple:
    """``elt`` at position ``i``, zero at ``j``, identity elsewhere."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions ({i},{j}) invalid at length {n}")
    one = monoid.identity + 1
    row = [one] * n
    row[i - 1] = elt + 1
    row[j - 1] = 0
    return MTuple(tuple(row))


@dataclass
class _Tree:
    """What a breadth-first closure keeps, by generation's walk or by
    ``_close``: a spanning tree of the holders of the images, and no word.
    A holder is numbered ``0, 1, ...`` in the order it first reached its
    image, or is ``~k`` for the ``k``-th seed, whose word is given."""
    held: dict          # per codomain: code string -> its first holder
    parent: list        # per holder: the holder of its parent's image
    letter: list        # per holder: the letter from its parent
    seed_words: list

    def words(self) -> dict:
        """``(codes, n)`` -> word, in the order each image was first held:
        the seeds', then the rest by holder number."""
        key = {h: (codes, n) for n, held in self.held.items() for codes, h in held.items()}
        word = {~k: w for k, w in enumerate(self.seed_words)}
        out = {key[h]: w for h, w in word.items() if h in key}
        for c, (p, x) in enumerate(zip(self.parent, self.letter)):
            out[key[c]] = word[c] = word[p] + (x,)
        return out

    def word(self, codes, n):
        """The word of the image ``(codes, n)``, or ``None`` if none is held:
        ``words()`` for one element, by a walk up the tree as long as it."""
        h = self.held.get(n, {}).get(codes)
        if h is None:
            return None
        letters = []
        while h >= 0:
            letters.append(self.letter[h])
            h = self.parent[h]
        return self.seed_words[~h] + tuple(reversed(letters))


def _close(seeds, gens) -> _Tree:
    """The breadth-first closure of ``seeds``, ``((codes, n), word)`` pairs,
    under ``gens``, ``(letter, (dom, act, cod))`` with ``act`` a letter's
    translate table on code strings (``wreath.right_action``).  Frontier
    by frontier, with letters in order, each new image is numbered as its
    holder, with the holder of the image it came from and the letter; the
    first seed of an image wins.
    Only the letters whose domain is an element's codomain are tried on it;
    the others have no product with it."""
    held, leaving = {}, {}
    for letter, (dom, act, cod) in gens:
        leaving.setdefault(dom, []).append((letter, act, cod, held.setdefault(cod, {})))
    parent, letters, frontier = [], [], []
    for k, ((codes, n), _) in enumerate(seeds):
        if held.setdefault(n, {}).setdefault(codes, ~k) == ~k:     # the first seed of its image
            frontier.append((codes, n, ~k))
    while frontier:
        nxt = []
        for codes, n, holder in frontier:
            for letter, act, cod, into in leaving.get(n, ()):
                b = codes.translate(act)
                if b not in into:
                    into[b] = len(parent)
                    nxt.append((b, cod, len(parent)))
                    parent.append(holder)
                    letters.append(letter)
        frontier = nxt
    return _Tree(held, parent, letters, [word for _, word in seeds])


@lru_cache(maxsize=16)
def word_for_monoid_element(base: BasePresentation) -> _Tree:
    """``_close`` of the table's identity under the letters' images, in
    alphabet order, with one position per element: element ``a`` is the
    code string ``chr(a)`` at ``1``, and ``.word(chr(a), 1)`` its witness
    word."""
    monoid = base.require_evaluation()
    gens = [(x, (1, "".join([chr(row[g]) for row in monoid.table]), 1))
            for x, g in zip(base.alphabet, base.images)]
    return _close([((chr(monoid.identity), 1), ())], gens)


# Letters must stay clear of the reserved word syntax (s1, e2, e, f1,2,
# lam3, rho3, i4) so parsing stays unambiguous.
_LETTER_RE = re.compile(r"[a-z][a-z0-9_]*$")
_RESERVED_RE = re.compile(r"(s\d+|e\d*|f\d+|lam\d*|rho\d*|i\d+)$")


@dataclass(frozen=True)
class BasePresentation:
    """Alphabet and relations for the base monoid, with an optional
    evaluation onto a concrete table.

    ``images[k]`` is the monoid element named by ``alphabet[k]``.  A
    presentation without a table can still be embedded into the generated
    presentations, but cannot be evaluated or verified.
    """

    alphabet: tuple[str, ...]
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    monoid: FiniteMonoid | None = None
    images: tuple[int, ...] | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        letters = set(self.alphabet)
        if len(letters) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        for x in self.alphabet:
            if not _LETTER_RE.match(x) or _RESERVED_RE.match(x):
                raise ValueError(f"letter {x!r} collides with reserved word syntax")
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                for x in w:
                    if x not in letters:
                        raise ValueError(f"relation uses unknown letter {x!r}")
        if self.monoid is not None:
            if self.images is None or len(self.images) != len(self.alphabet):
                raise ValueError("evaluation must cover the whole alphabet")
            if any(not 0 <= v < self.monoid.size for v in self.images):
                raise ValueError("evaluation image outside the monoid")
            for lhs, rhs in self.relations:
                if self.eval_word(lhs) != self.eval_word(rhs):
                    raise ValueError(f"relation {lhs} = {rhs} is not sound in the table")
            if len(word_for_monoid_element(self).held[1]) != self.monoid.size:
                raise ValueError("alphabet does not generate the monoid")

    def require_evaluation(self) -> FiniteMonoid:
        if self.monoid is None:
            raise NoEvaluationError(
                f"monoid {self.name or '?'} has no evaluation table"
            )
        return self.monoid

    def image_of(self, letter: str) -> int:
        self.require_evaluation()
        try:
            idx = self.alphabet.index(letter)
        except ValueError:
            raise ValueError(f"letter {letter!r} is not in the base alphabet") from None
        return self.images[idx]

    def eval_word(self, word) -> int:
        m = self.require_evaluation()
        out = m.identity
        for x in word:
            out = m.mul(out, self.image_of(x))
        return out

    def to_json(self) -> dict:
        out = {
            "alphabet": list(self.alphabet),
            "relations": [[list(l), list(r)] for l, r in self.relations],
        }
        if self.monoid is not None:
            out["monoid"] = self.monoid.to_json()
            out["images"] = {x: v for x, v in zip(self.alphabet, self.images)}
        return out

    @staticmethod
    def from_json(obj: dict, name: str = "") -> "BasePresentation":
        alphabet = tuple(obj["alphabet"])
        relations = tuple(
            (tuple(l), tuple(r)) for l, r in obj["relations"]
        )
        monoid = None
        images = None
        if obj.get("monoid") is not None:
            monoid = FiniteMonoid.from_json(obj["monoid"], name=name)
            imap = obj.get("images") or {}
            images = tuple(int(imap[x]) for x in alphabet)
        return BasePresentation(alphabet, relations, monoid, images, name=name)


def _cyclic(order: int, name: str) -> FiniteMonoid:
    table = tuple(tuple((a + b) % order for b in range(order)) for a in range(order))
    return FiniteMonoid(order, 0, table, name=name)


def _sym3() -> FiniteMonoid:
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    # left-to-right action: x (p q) = (x p) q
    table = tuple(
        tuple(index[tuple(q[p[x]] for x in range(3))] for q in perms)
        for p in perms
    )
    return FiniteMonoid(6, index[(0, 1, 2)], table, name="s3")


def _make_builtin(name: str) -> BasePresentation:
    if name == "trivial":
        return BasePresentation((), (), FiniteMonoid(1, 0, ((0,),), name=name), (), name=name)
    if name == "c2":
        return BasePresentation(
            ("g",), ((("g", "g"), ()),), _cyclic(2, name), (1,), name=name)
    if name == "c3":
        return BasePresentation(
            ("g",), ((("g", "g", "g"), ()),), _cyclic(3, name), (1,), name=name)
    if name == "sl2":
        # two-element semilattice with identity: {1, u}, u*u = u
        table = ((0, 1), (1, 1))
        return BasePresentation(
            ("u",), ((("u", "u"), ("u",)),), FiniteMonoid(2, 0, table, name=name), (1,), name=name)
    if name == "s3":
        m = _sym3()
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        a = perms.index((1, 0, 2))  # adjacent swap of 1,2
        b = perms.index((0, 2, 1))  # adjacent swap of 2,3
        rels = (
            (("a", "a"), ()),
            (("b", "b"), ()),
            (("a", "b", "a"), ("b", "a", "b")),
        )
        return BasePresentation(("a", "b"), rels, m, (a, b), name=name)
    if name == "bicyclic":
        return BasePresentation(("a", "b"), ((("a", "b"), ()),), None, None, name=name)
    raise ValueError(f"unknown builtin monoid {name!r}")


BUILTIN_NAMES = ("trivial", "c2", "c3", "sl2", "s3", "bicyclic")


@lru_cache(maxsize=None)
def builtin(name: str) -> BasePresentation:
    """Stock base monoids with their presentations."""
    return _make_builtin(name)
