"""Generator symbols, free words, typed paths and tensor terms, together
with evaluation onto the wreath structures, the translation maps between
alphabets, and normal forms.

Text syntax (whitespace separated, round-trips with the printers):

    s1 e2 e          adjacent swap, domain omission, the one-generator omission
    x@1  x@1;3       letter x at slot 1; letter x at slot 1 with slot 3 zeroed
    s1:4 e2:4 x@1:4  the same symbols with a level (here 4), as path edges
    f1,2             transfer: 2 -> 1, slot 1 removed
    lam3 rho3        inclusion 3->4 and its partial inverse 4->3
    X U Ubar         the tensor edges
    1                the empty word; i3 the empty path/term at level 3
    (o t1 t2), (p t1 t2)   term composition and term tensor
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import pperm, wreath
from .base import (BasePresentation, MTuple, _close, _Tree, adjoin_zero, builtin, pinned, unit_at,
                   word_for_monoid_element)
from .wreath import WreathElement

__all__ = [
    "ParseError",
    "Sym",
    "s_", "e_", "pe", "x_", "bx", "f_", "xc", "lam", "rho",
    "TX", "TU", "TUBAR",
    "token", "word_text", "parse_monoid_word",
    "Path", "path_text", "parse_path", "edge_dr",
    "TIdent", "TEdge", "TComp", "TTens",
    "term_d", "term_r", "tcompose", "ttensor", "pad_term",
    "term_text", "term_edges", "parse_term",
    "sym_image", "eval_word", "eval_path", "eval_term",
    "psi1_word", "psi2_word", "hat_edge", "hat_path", "plus_word", "reverse_word",
    "word_for_monoid_element", "word_for_pperm",
    "leveled_word", "lift_word_i", "lift_word_ij",
    "normal_form_wreath_word", "reassemble_wreath",
    "normal_form_singular_tuple", "reassemble_singular", "sorting_relabel", "relabel_tuple",
    "x_mn_decompose",
]


class ParseError(ValueError):
    """Malformed word/path/term text."""


# ---------------------------------------------------------------------------
# symbols

class Sym(NamedTuple):
    """One generator symbol, a named tuple of its fields.  ``kind`` selects
    the family; unused fields stay at their defaults so symbols hash and
    compare structurally.  ``n`` is the level of a swap, omission or slot
    letter on a path (``None``: level-free) and the lower level of
    ``lam``/``rho``.

    Symbols are interned: the constructors below hand back one shared
    ``Sym`` per distinct symbol, from a table bounded like
    ``_parse_token``'s, so a dict lookup on a symbol usually hits by
    identity.  One made directly or by ``_replace`` hashes and compares
    like the shared one; unpickling and copying hand back the shared one."""

    kind: str
    letter: str = ""
    i: int = 0
    j: int = 0
    n: int | None = None

    def __reduce__(self):
        return _sym, tuple(self)


@lru_cache(maxsize=4096)
def _sym(kind: str, letter: str, i: int, j: int, n: int | None) -> Sym:
    """The shared symbol with these fields, which callers pass all and in
    order, so that one symbol has one key.  Sharing is safe because a
    ``Sym`` is immutable; the bound keeps a stream of distinct symbols
    from growing memory."""
    return Sym(kind, letter, i, j, n)


def s_(i: int, n: int | None = None) -> Sym:
    if i < 1:
        raise ValueError(f"swap index {i} must be positive")
    if n is not None and i >= n:
        raise ValueError(f"leveled swap s{i}:{n} needs i < n")
    return _sym("s", "", i, 0, n)


def e_(i: int, n: int | None = None) -> Sym:
    if i < 1:
        raise ValueError(f"omit index {i} must be positive")
    if n is not None and i > n:
        raise ValueError(f"leveled omit e{i}:{n} needs i <= n")
    return _sym("e", "", i, 0, n)


def pe() -> Sym:
    return _sym("pe", "", 0, 0, None)


def x_(letter: str, i: int, n: int | None = None) -> Sym:
    if i < 1:
        raise ValueError(f"slot {i} must be positive")
    if n is not None and i > n:
        raise ValueError(f"leveled letter {letter}@{i}:{n} needs i <= n")
    return _sym("x", letter, i, 0, n)


def bx(letter: str) -> Sym:
    return _sym("bx", letter, 0, 0, None)


def f_(i: int, j: int) -> Sym:
    if i == j or i < 1 or j < 1:
        raise ValueError(f"transfer indices ({i},{j}) must be distinct and positive")
    return _sym("f", "", i, j, None)


def xc(letter: str, i: int, j: int) -> Sym:
    if i == j or i < 1 or j < 1:
        raise ValueError(f"pinned slots ({i},{j}) must be distinct and positive")
    return _sym("xc", letter, i, j, None)


def lam(n: int) -> Sym:
    if n < 0:
        raise ValueError("level must be nonnegative")
    return _sym("lam", "", 0, 0, n)


def rho(n: int) -> Sym:
    if n < 0:
        raise ValueError("level must be nonnegative")
    return _sym("rho", "", 0, 0, n)


TX = _sym("TX", "", 0, 0, None)
TU = _sym("TU", "", 0, 0, None)
TUBAR = _sym("TUbar", "", 0, 0, None)


def token(sym: Sym) -> str:
    k = sym.kind
    level = "" if sym.n is None else f":{sym.n}"
    if k == "s":
        return f"s{sym.i}{level}"
    if k == "e":
        return f"e{sym.i}{level}"
    if k == "pe":
        return "e"
    if k == "x":
        return f"{sym.letter}@{sym.i}{level}"
    if k == "bx":
        return sym.letter
    if k == "f":
        return f"f{sym.i},{sym.j}"
    if k == "xc":
        return f"{sym.letter}@{sym.i};{sym.j}"
    if k == "lam":
        return f"lam{sym.n}"
    if k == "rho":
        return f"rho{sym.n}"
    if k == "TX":
        return "X"
    if k == "TU":
        return "U"
    if k == "TUbar":
        return "Ubar"
    raise ValueError(f"unknown symbol kind {k!r}")


_TOKEN_PATTERNS = (
    (re.compile(r"X$"), lambda m: TX),
    (re.compile(r"U$"), lambda m: TU),
    (re.compile(r"Ubar$"), lambda m: TUBAR),
    (re.compile(r"s(\d+)(?::(\d+))?$"), lambda m: s_(int(m[1]), m[2] and int(m[2]))),
    (re.compile(r"e(\d+)(?::(\d+))?$"), lambda m: e_(int(m[1]), m[2] and int(m[2]))),
    (re.compile(r"e$"), lambda m: pe()),
    (re.compile(r"f(\d+),(\d+)$"), lambda m: f_(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"lam(\d+)$"), lambda m: lam(int(m.group(1)))),
    (re.compile(r"rho(\d+)$"), lambda m: rho(int(m.group(1)))),
    (re.compile(r"([a-z][a-z0-9_]*)@(\d+);(\d+)$"),
     lambda m: xc(m.group(1), int(m.group(2)), int(m.group(3)))),
    (re.compile(r"([a-z][a-z0-9_]*)@(\d+)(?::(\d+))?$"),
     lambda m: x_(m[1], int(m[2]), m[3] and int(m[3]))),
    (re.compile(r"([a-z][a-z0-9_]*)$"), lambda m: bx(m.group(1))),
)

_IDENT_RE = re.compile(r"i(\d+)$")


@lru_cache(maxsize=4096)
def _parse_token(tok: str) -> Sym:
    """The symbol ``tok`` spells.  Each distinct token string is parsed
    once and its symbol shared by every later call: the result depends on
    the string alone, and a ``Sym`` is immutable, so no caller can change
    what another holds.  A malformed token is not remembered (``lru_cache``
    keeps no exceptions), so it raises the same ``ParseError`` each time.
    The bound keeps a stream of distinct tokens from growing memory."""
    for pattern, build in _TOKEN_PATTERNS:
        m = pattern.match(tok)
        if m:
            try:
                return build(m)
            except ValueError as exc:
                raise ParseError(f"bad token {tok!r}: {exc}") from None
    raise ParseError(f"unrecognized token {tok!r}")


def word_text(word) -> str:
    return " ".join(token(s) for s in word) if word else "1"


def parse_monoid_word(text: str):
    """Parse a word over the level-free alphabets.  ``1`` tokens are the
    empty word and may appear anywhere."""
    out = []
    for pos, tok in enumerate(text.split()):
        if tok == "1":
            continue
        if _IDENT_RE.match(tok):
            raise ParseError(f"token {pos}: {tok!r} is a path identity, not a monoid word")
        sym = _parse_token(tok)
        if sym.n is not None or sym.kind in ("TX", "TU", "TUbar"):
            raise ParseError(f"token {pos}: {tok!r} is not a monoid-word symbol")
        out.append(sym)
    return tuple(out)


# ---------------------------------------------------------------------------
# typed paths

def edge_dr(sym: Sym) -> tuple[int, int]:
    """Source and target level of a path edge."""
    if sym.n is None:
        raise ValueError(f"{token(sym)} is not a path edge")
    if sym.kind == "lam":
        return sym.n, sym.n + 1
    if sym.kind == "rho":
        return sym.n + 1, sym.n
    return sym.n, sym.n


@dataclass(frozen=True)
class Path:
    """Edge sequence with an explicit source level (needed when empty)."""

    src: int
    edges: tuple[Sym, ...]

    def __post_init__(self):
        cur = self.src
        for sym in self.edges:
            d, r = edge_dr(sym)
            if d != cur:
                raise ValueError(f"edge {token(sym)} starts at {d}, expected {cur}")
            cur = r

    @property
    def tgt(self) -> int:
        return edge_dr(self.edges[-1])[1] if self.edges else self.src


def path_text(path: Path) -> str:
    if not path.edges:
        return f"i{path.src}"
    return " ".join(token(s) for s in path.edges)


def parse_path(text: str) -> Path:
    toks = text.split()
    if not toks:
        raise ParseError("empty path text needs an explicit i<n> token")
    edges = []
    src = tgt = None
    for pos, tok in enumerate(toks):
        m = _IDENT_RE.match(tok)
        if m:
            level = int(m.group(1))
            if src is None:
                src = tgt = level
            elif tgt != level:
                raise ParseError(f"token {pos}: identity i{level} breaks the chain")
            continue
        sym = _parse_token(tok)
        try:
            d, r = edge_dr(sym)
        except ValueError as exc:
            raise ParseError(f"token {pos}: {exc}") from None
        if src is None:
            src = d
        edges.append(sym)
        tgt = r
    try:
        return Path(src, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# tensor terms

@dataclass(frozen=True)
class TIdent:
    n: int


@dataclass(frozen=True)
class TEdge:
    sym: Sym


class _Binary:
    """Equality, hashing and ``repr`` of composites and tensors that do not
    recurse, so that long composites compare, hash and print."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Binary):
                stack += ((a.right, b.right), (a.left, b.left))
            elif a != b:
                return False
        return True

    def __hash__(self):
        # equal terms print alike, and printing does not recurse
        return hash(term_text(self))

    def __repr__(self):
        return f"parse_term({term_text(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class TComp(_Binary):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class TTens(_Binary):
    left: object
    right: object


_TENSOR_EDGE_DR = {"TX": (2, 2), "TU": (1, 0), "TUbar": (0, 1), "bx": (1, 1)}


def _term_width(t, side: int) -> int:
    """``d`` (``side`` 0) or ``r`` (``side`` 1) of a term, walked with an
    explicit stack so that long composites do not recurse."""
    width = 0
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, TIdent):
            width += t.n
        elif isinstance(t, TEdge):
            width += _TENSOR_EDGE_DR[t.sym.kind][side]
        elif isinstance(t, TComp):
            stack.append(t.right if side else t.left)
        elif isinstance(t, TTens):
            stack.extend((t.left, t.right))
        else:
            raise TypeError(f"not a term: {t!r}")
    return width


def term_d(t) -> int:
    return _term_width(t, 0)


def term_r(t) -> int:
    return _term_width(t, 1)


def tcompose(left, right) -> TComp:
    if term_r(left) != term_d(right):
        raise ValueError(
            f"cannot compose terms: r(left)={term_r(left)} != d(right)={term_d(right)}")
    return TComp(left, right)


def ttensor(left, right) -> TTens:
    return TTens(left, right)


def tedge(sym: Sym) -> TEdge:
    if sym.kind not in _TENSOR_EDGE_DR:
        raise ValueError(f"{token(sym)} is not a tensor edge")
    return TEdge(sym)


def pad_term(core, m: int, n: int):
    """``core`` with identity blocks of widths ``m`` and ``n`` on either
    side; zero-width blocks are dropped."""
    t = core
    if m > 0:
        t = ttensor(TIdent(m), t)
    if n > 0:
        t = ttensor(t, TIdent(n))
    return t


def compose_chain(terms):
    """Left-to-right composite of a nonempty term sequence."""
    out = terms[0]
    for t in terms[1:]:
        out = tcompose(out, t)
    return out


def term_text(t) -> str:
    out = []
    stack = [t]     # terms still to print, and literal text
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, TIdent):
            out.append(f"i{t.n}")
        elif isinstance(t, TEdge):
            out.append(token(t.sym))
        elif isinstance(t, (TComp, TTens)):
            op = "o" if isinstance(t, TComp) else "p"
            stack.extend((")", t.right, " ", t.left, f"({op} "))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


def term_edges(t):
    """The edge symbols of a term, left to right."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, TEdge):
            out.append(t.sym)
        elif isinstance(t, _Binary):
            stack += (t.right, t.left)
    return out


def parse_term(text: str):
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise ParseError("empty term text")
    frames = []     # operator and arguments so far of each open parenthesis
    pos = 0
    while True:
        if pos >= len(toks):
            raise ParseError("missing ')'")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks) or toks[pos] not in ("o", "p"):
                raise ParseError(f"token {pos}: expected 'o' or 'p' after '('")
            frames.append((toks[pos], []))
            pos += 1
            continue
        if tok == ")" and frames:
            op, parts = frames.pop()
            if len(parts) < 2:
                raise ParseError(f"operator {op!r} needs at least two arguments")
            out = parts[0]
            for t in parts[1:]:
                try:
                    out = tcompose(out, t) if op == "o" else ttensor(out, t)
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
        elif m := _IDENT_RE.match(tok):
            out = TIdent(int(m.group(1)))
        else:
            sym = _parse_token(tok)
            try:
                out = tedge(sym)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        if not frames:
            break
        frames[-1][1].append(out)
    if pos != len(toks):
        raise ParseError(f"trailing tokens from position {pos}")
    return out


# ---------------------------------------------------------------------------
# evaluation

def sym_image(sym: Sym, base: BasePresentation, n: int | None = None) -> WreathElement:
    """Concrete diagram named by a symbol.  Level-free symbols need the
    ambient level ``n``; a leveled one uses its own."""
    monoid = base.require_evaluation()
    k = sym.kind
    if sym.n is not None:
        n = sym.n
    elif n is None and k not in ("TX", "TU", "TUbar"):
        raise ValueError(f"symbol {token(sym)} needs an ambient level")
    if k == "s":
        return wreath.embed_map(monoid, pperm.swap_adjacent(sym.i, n))
    # the one-generator omission and a bare letter (``i`` is 0) act at slot 1
    if k in ("e", "pe"):
        return wreath.embed_map(monoid, pperm.omit(sym.i or 1, n))
    if k in ("x", "bx"):
        return WreathElement(
            unit_at(monoid, base.image_of(sym.letter), sym.i or 1, n), pperm.identity(n))
    if k == "f":
        return wreath.embed_map(monoid, pperm.transfer(sym.i, sym.j, n))
    if k == "xc":
        return WreathElement(
            pinned(monoid, base.image_of(sym.letter), sym.i, sym.j, n),
            pperm.omit(sym.j, n))
    if k == "lam":
        return wreath.embed_map(monoid, pperm.inclusion(sym.n))
    if k == "rho":
        return wreath.embed_map(monoid, pperm.projection(sym.n))
    if k == "TX":
        return wreath.embed_map(monoid, pperm.swap2())
    if k == "TU":
        return wreath.embed_map(monoid, pperm.drop1())
    if k == "TUbar":
        return wreath.embed_map(monoid, pperm.lift1())
    raise ValueError(f"unknown symbol kind {k!r}")


@lru_cache(maxsize=256)
def _sym_keys(base: BasePresentation, n: int | None) -> dict:
    """Plain forms of ``sym_image(sym, base, n)`` by symbol, filled as
    symbols are met."""
    return {}


def _fold(word, base: BasePresentation, n: int | None, src: int) -> WreathElement:
    """Left fold of the generator images of ``word`` from the identity at
    ``src``, composed as plain forms; one element is built at the end."""
    monoid = base.require_evaluation()
    z = adjoin_zero(monoid).table
    images = _sym_keys(base, n)
    out = wreath.identity_key(monoid, src)
    for sym in word:
        g = images.get(sym)
        if g is None:
            g = images[sym] = sym_image(sym, base, n).key
        prod = wreath.compose_keys(z, out, g)
        if prod is None:
            raise wreath.level_mismatch(out, g)
        out = prod
    return wreath.from_key(out)


def eval_word(word, base: BasePresentation, n: int) -> WreathElement:
    """Left fold of the generator images, starting at the identity."""
    return _fold(word, base, n, n)


def eval_path(path: Path, base: BasePresentation) -> WreathElement:
    return _fold(path.edges, base, None, path.src)


def eval_term(term, base: BasePresentation) -> WreathElement:
    """Value of a term, evaluated left operand first with an explicit
    stack, so that long composites do not recurse."""
    monoid = base.require_evaluation()
    m0 = adjoin_zero(monoid)
    values = []
    stack = [term]  # terms to evaluate, and the TComp/TTens class combining two values
    while stack:
        t = stack.pop()
        if isinstance(t, TIdent):
            values.append(wreath.identity_element(monoid, t.n))
        elif isinstance(t, TEdge):
            values.append(sym_image(t.sym, base, n=1 if t.sym.kind == "bx" else None))
        elif isinstance(t, (TComp, TTens)):
            stack.extend((type(t), t.right, t.left))
        elif t is TComp or t is TTens:
            right = values.pop()
            left = values.pop()
            values.append(wreath.compose(m0, left, right) if t is TComp
                          else wreath.tensor(left, right))
        else:
            raise TypeError(f"not a term: {t!r}")
    return values[0]


# ---------------------------------------------------------------------------
# translation maps

def _conjugators(i: int):
    """Descending and ascending swap chains moving slot 1 to slot i."""
    down = tuple(s_(k) for k in range(i - 1, 0, -1))
    up = tuple(s_(k) for k in range(1, i))
    return down, up


def psi1_word(word):
    """Rewrite over the full alphabet into the small one, conjugating the
    slot-i generators down to slot 1."""
    out = []
    for sym in word:
        if sym.n is not None:
            raise ValueError(f"{token(sym)} is not in the source alphabet of psi1")
        if sym.kind == "s":
            out.append(sym)
        elif sym.kind == "e":
            down, up = _conjugators(sym.i)
            out.extend(down + (pe(),) + up)
        elif sym.kind == "x":
            down, up = _conjugators(sym.i)
            out.extend(down + (bx(sym.letter),) + up)
        else:
            raise ValueError(f"{token(sym)} is not in the source alphabet of psi1")
    return tuple(out)


def psi2_word(word):
    """Inclusion of the small alphabet into the full one at slot 1."""
    out = []
    for sym in word:
        if sym.n is not None:
            raise ValueError(f"{token(sym)} is not in the source alphabet of psi2")
        if sym.kind == "s":
            out.append(sym)
        elif sym.kind == "pe":
            out.append(e_(1))
        elif sym.kind == "bx":
            out.append(x_(sym.letter, 1))
        else:
            raise ValueError(f"{token(sym)} is not in the source alphabet of psi2")
    return tuple(out)


def hat_edge(sym: Sym):
    """Tensor term realizing a path edge: the local picture padded by
    identity blocks."""
    k, n = sym.kind, sym.n
    if n is None:
        raise ValueError(f"{token(sym)} is not a path edge")
    if k == "s":
        return pad_term(tedge(TX), sym.i - 1, n - sym.i - 1)
    if k == "e":
        return pad_term(ttensor(tedge(TU), tedge(TUBAR)), sym.i - 1, n - sym.i)
    if k == "x":
        return pad_term(tedge(bx(sym.letter)), sym.i - 1, n - sym.i)
    if k == "lam":
        return pad_term(tedge(TUBAR), n, 0)
    return pad_term(tedge(TU), n, 0)


def hat_path(path: Path):
    if not path.edges:
        return TIdent(path.src)
    return compose_chain([hat_edge(sym) for sym in path.edges])


def plus_word(word):
    """Re-tag leveled symbols one level up (same slots)."""
    for sym in word:
        if sym.n is None or sym.kind not in ("s", "e", "x"):
            raise ValueError(f"{token(sym)} is not a leveled symbol")
    return tuple(_sym(sym.kind, sym.letter, sym.i, sym.j, sym.n + 1) for sym in word)


def reverse_word(word):
    """Reverse a word of swaps; evaluates to the inverse map."""
    for sym in word:
        if sym.kind != "s":
            raise ValueError(f"{token(sym)} is not a swap")
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# witness words and lifts

@lru_cache(maxsize=16)
def word_for_pperm(n: int) -> _Tree:
    """``_close`` of the identity at level ``n`` under ``r-in``'s alphabet,
    ``s_1 … s_{n-1}, e_1 … e_n``, on code strings over the trivial base:
    ``.word(_map_codes(alpha), n)`` is the witness word of ``alpha``."""
    trivial = builtin("trivial")
    z = adjoin_zero(trivial.monoid).table
    syms = [s_(i) for i in range(1, n)] + [e_(i) for i in range(1, n + 1)]
    gens = [(sym, (n, wreath.right_action(z, sym_image(sym, trivial, n).key), n))
            for sym in syms]
    return _close([((_map_codes(pperm.identity(n)), n), ())], gens)


def _map_codes(alpha: pperm.PartialBijection):
    """``alpha`` as a code string over the trivial base: image ``v`` with
    the identity label is code ``2 v + 1``, and ``0`` off the domain."""
    return "".join([chr(2 * v + 1 if v else 0) for v in alpha.images])


def lift_word_i(letters, i: int):
    """Slot-tagged copy of a base word; empty stays empty."""
    return tuple(x_(x, i) for x in letters)


def lift_word_ij(letters, i: int, j: int):
    """Pinned copy of a base word; the empty word becomes the omission at
    the pinned slot."""
    if not letters:
        return (e_(j),)
    return tuple(xc(x, i, j) for x in letters)


def leveled_word(word, level: int):
    """Tag a level-free word with an explicit level."""
    out = []
    for sym in word:
        if sym.n is not None:
            raise ValueError(f"cannot level {token(sym)}")
        if sym.kind == "s":
            out.append(s_(sym.i, level))
        elif sym.kind == "e":
            out.append(e_(sym.i, level))
        elif sym.kind == "x":
            out.append(x_(sym.letter, sym.i, level))
        else:
            raise ValueError(f"cannot level {token(sym)}")
    return tuple(out)


# ---------------------------------------------------------------------------
# normal forms

def _wreath_factor_words(elem: WreathElement, base: BasePresentation):
    """Slot words and map word of the canonical factorization
    tuple-then-map, at the element's own level (an endo-element)."""
    n = elem.dom_size
    mwords = word_for_monoid_element(base)
    parts = [mwords.word(chr(v - 1), 1) if v else () for v in elem.tup.entries]
    return parts, word_for_pperm(n).word(_map_codes(elem.pmap), n)


def normal_form_wreath_word(word, base: BasePresentation, n: int):
    """Slot-sorted shape: per-slot base words followed by a map word, with
    empty slot words off the domain of the map part.  Computed by
    evaluating and re-factoring canonically."""
    elem = eval_word(word, base, n)
    return _wreath_factor_words(elem, base)


def reassemble_wreath(parts, map_word):
    out = []
    for i, letters in enumerate(parts, start=1):
        out.extend(lift_word_i(letters, i))
    return tuple(out) + tuple(map_word)


def sorting_relabel(support, n: int):
    """Permutation of ``1..n`` (as a tuple, slot i maps to sigma[i-1])
    sending the support to an initial segment, order preserved on both
    parts."""
    support = sorted(support)
    rest = [k for k in range(1, n + 1) if k not in set(support)]
    sigma = [0] * n
    for new, old in enumerate(support + rest, start=1):
        sigma[old - 1] = new
    return tuple(sigma)


def relabel_tuple(a: MTuple, sigma) -> MTuple:
    out = [0] * len(a)
    for i, v in enumerate(a.entries, start=1):
        out[sigma[i - 1] - 1] = v
    return MTuple(tuple(out))


def normal_form_singular_tuple(word, base: BasePresentation, n: int):
    """Initial-segment shape for words evaluating to singular tuples:
    returns ``(q, sigma, slot_words)`` where ``sigma`` is the sorting
    relabel applied to the evaluated tuple, and the reassembled word over
    the relabelled coordinates is omissions of ``q+1..n`` followed by
    pinned slot words ``1..q``."""
    elem = eval_word(word, base, n)
    a = elem.tup
    q = len(a.support)
    if q == n:
        raise ValueError("word does not evaluate into the singular part")
    sigma = sorting_relabel(a.support, n)
    b = relabel_tuple(a, sigma)
    mwords = word_for_monoid_element(base)
    slot_words = tuple(mwords.word(chr(b.entries[k - 1] - 1), 1) for k in range(1, q + 1))
    return q, sigma, slot_words


def reassemble_singular(q: int, n: int, slot_words):
    out = [e_(k) for k in range(q + 1, n + 1)]
    for i, letters in enumerate(slot_words, start=1):
        out.extend(lift_word_ij(letters, i, n))
    return tuple(out)


# ---------------------------------------------------------------------------
# tensor decompositions of padded edges

def x_mn_decompose(sym: Sym, m: int, n: int):
    """A padded edge as a term, and a path whose edgewise tensor
    realization evaluates to the same element."""
    term = pad_term(tedge(sym), m, n)
    if sym.kind == "TX":
        return term, Path(m + n + 2, (s_(m + 1, m + n + 2),))
    if sym.kind == "bx":
        return term, Path(m + n + 1, (x_(sym.letter, m + 1, m + n + 1),))
    if sym.kind == "TU":
        edges = tuple(s_(k, m + n + 1) for k in range(m + 1, m + n + 1)) + (rho(m + n),)
        return term, Path(m + n + 1, edges)
    edges = (lam(m + n),) + tuple(s_(k, m + n + 1) for k in range(m + n, m, -1))
    return term, Path(m + n, edges)
