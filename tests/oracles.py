"""Oracles that only the tests read: code the program no longer needs,
kept so that what it checked is still checked.

- ``closure``: the breadth-first closure as it was before it kept a
  spanning tree, on any elements, with a dict from each element reached to
  its word: the reference for ``base._close``, which generation falls back
  to and the normal forms read.
- ``walk_keeping_words``: ``closure`` over a complete table, generation's
  walk as it was before it kept a spanning tree.
- ``rows``: a complete table's rows as lists, one per class, as the table
  held them before its entries were packed into one flat array.
- ``walk_starts``: the start classes of generation's walks of a table.
- ``act_on``: a translate table applied one code at a time, without
  ``str.translate``.
- ``enumerate_partial_bijections``: every partial bijection of a hom-set
  as a ``PartialBijection``, which no program code lists any more.
- ``enumerate_keys``: a hom-set's plain forms in ``sort_key`` order, built
  from image rows and label tuples, the reference for
  ``wreath.enumerate_codes`` and ``wreath.enumerate_wreath``.
- ``separate`` with its rule tables: prefix/suffix separation of mixed
  words, as the paper's normal-form arguments use it.
- ``tuple_mul`` and ``embed_tuple``: the entrywise tuple product and a
  bare tuple as a wreath element.
"""

from itertools import product

from invwreath import pperm
from invwreath.base import BasePresentation, MTuple, ZeroExtended
from invwreath.pperm import CompositionError, PartialBijection
from invwreath.words import e_, rho, s_, token, word_text, x_, xc
from invwreath.wreath import WreathElement


def closure(seeds, gens, mul) -> dict:
    """Breadth-first right-multiplication closure with one witness word per
    element.

    ``seeds`` is a sequence of ``(element, word)`` pairs; the first word
    given for an element wins.  ``gens`` is a sequence of ``(letter,
    element)`` pairs, tried in order level by level, so each element's word
    is a seed word extended by as few letters as possible.  ``mul(a, g)``
    returns the product, or ``None`` where it is undefined.
    """
    witness = {}
    frontier = []
    for elt, word in seeds:
        if elt not in witness:
            witness[elt] = word
            frontier.append(elt)
    while frontier:
        nxt = []
        for a in frontier:
            word = witness[a]
            for letter, g in gens:
                b = mul(a, g)
                if b is not None and b not in witness:
                    witness[b] = word + (letter,)
                    nxt.append(b)
        frontier = nxt
    return witness


def act_on(act, codes) -> str:
    """The code string ``codes`` multiplied by the translate table ``act``
    (``wreath.right_action``), one code at a time: a code beyond the table
    raises ``IndexError``, where ``str.translate`` would leave it as it is."""
    return "".join([act[ord(c)] for c in codes])


def rows(table) -> list:
    """The rows of the complete ``table``, one list per class: class
    ``c``'s runs from its start to the next class's, or to the end."""
    ends = list(table.starts[1:]) + [len(table.entries)]
    return [table.entries[b:e].tolist() for b, e in zip(table.starts, ends)]


def walk_starts(p, table) -> list:
    """The start classes of generation's walks, as ``check_generation``
    finds them: one walk for a flat kind, and one per object ``m`` of a
    category, from the class of ``rho_{C-1} ... rho_m`` under the root
    ``C``."""
    if p.flavor == "semigroup":
        return [[table.trace(0, (sym,)) for sym in p.alphabet]]
    if p.flavor == "category":
        return [[table.trace(p.cap, tuple(rho(k) for k in range(p.cap - 1, m - 1, -1)))]
                for m in range(p.cap + 1)]
    return [[0]]


def walk_keeping_words(table, walks, seeds, gens) -> dict:
    """``closure`` over a complete table: breadth-first over the classes,
    one walk per list of ``walks`` from its start classes (the classes of
    the next ``seeds``), one product per class a walk reaches.  The walks
    share one queue, so they go together.  A class whose image is new
    takes its parent's word plus one letter; a class whose image is
    already known adds no witness, and neither do its children's images,
    which its first holder has added.  Only the letters of ``gens`` that
    leave a class's object are followed, so a category table is walked
    within the cap."""
    # per object, the column, letter, action and codomain of each letter
    # of ``gens`` that leaves it
    leaving = [[(cols[letter], letter, act, cod) for letter, (_, act, cod) in gens
                if letter in cols]
               for cols in table.columns]
    queue = []
    witness = {}
    seed_pairs = iter(seeds)
    transitions = rows(table)
    for starts in walks:
        image = [None] * len(transitions)     # per class, in this walk
        for c, (elt, word) in zip(starts, seed_pairs):
            if image[c] is None:
                image[c] = elt
                queue.append((image, c))
            witness.setdefault(elt, word)
    for image, c in queue:         # grows while it is read
        a = image[c]
        codes = a[0]
        row = transitions[c]
        for col, letter, act, cod in leaving[table.objects[c]]:
            t = row[col]
            if image[t] is not None:
                continue
            b = image[t] = (act_on(act, codes), cod)
            queue.append((image, t))
            if b not in witness:
                witness[b] = witness[a] + (letter,)
    return witness


def enumerate_partial_bijections(m, n):
    """All partial bijections ``{1..m} -> {1..n}``, in lexicographic order of
    the image row with "undefined" sorting first.
    """
    return (PartialBijection(m, n, tuple(map(ord, row))) for row in pperm.code_rows(m, n))


def enumerate_keys(monoid, m, n, variant="full"):
    """The plain forms of all elements of the chosen variant of the hom-set
    ``(m, n)``, ordered lexicographically by (map images, tuple entries).
    The hom-set is not checked against a cap or the variant.

    Variants: ``full`` (the whole hom-set), ``singular-monoid`` (endo
    elements whose map is not a permutation), ``singular-tuples`` (tuples
    with a zero entry, embedded via their partial identity).
    """
    values = range(1, monoid.size + 1)
    for row in (tuple(map(ord, codes)) for codes in pperm.code_rows(m, n)):
        rank = m - row.count(0)
        if variant == "singular-monoid" and rank == n:
            continue
        if variant == "singular-tuples" and (
                rank == n or any(v and v != i for i, v in enumerate(row, start=1))):
            continue
        # slot i reads label number spread[i] of (0,) + labels: 0 off the domain
        spread, k = [], 0
        for v in row:
            if v:
                k += 1
            spread.append(k if v else 0)
        for labels in product(values, repeat=rank):
            yield row, tuple(map(((0,) + labels).__getitem__, spread)), n


# ---------------------------------------------------------------------------
# separation of mixed words

def _split_rule(rep, is_x):
    k = 0
    while k < len(rep) and is_x(rep[k]):
        k += 1
    u, v = rep[:k], rep[k:]
    if any(is_x(s) for s in v):
        raise ValueError(f"replacement {word_text(rep)} is not of shape X* Y*")
    return u, v


def separate(word, is_x, rules, condition: str = "prefix"):
    """Rewrite a mixed word into X-part then Y-part using the rule table
    ``rules[(y, x)] -> replacement`` for ``y x``.

    ``condition="prefix"`` requires every replacement to carry at most one
    X letter; ``condition="suffix"`` at most one Y letter.  The result is a
    single flat word ``u + v``.
    """
    if condition not in ("prefix", "suffix"):
        raise ValueError(f"unknown condition {condition!r}")
    # the loops run on letters numbered as ints: int pairs hash fast
    ids: dict = {}

    def num(w):
        return [ids.setdefault(sym, len(ids)) for sym in w]

    split = {}
    for key, rep in rules.items():
        u, v = _split_rule(rep, is_x)
        if condition == "prefix" and len(u) > 1:
            raise ValueError(
                f"rule for {token(key[0])} {token(key[1])} has X part longer than 1")
        if condition == "suffix" and len(v) > 1:
            raise ValueError(
                f"rule for {token(key[0])} {token(key[1])} has Y part longer than 1")
        split[tuple(num(key))] = (num(u), num(v))
    word = num(word)
    syms = list(ids)
    xs = [is_x(sym) for sym in syms]

    # Loops, not recursion, so the length of a word is not bounded by
    # Python's recursion limit.
    try:
        if condition == "prefix":
            u, v = [], []
            for z in word:
                if not xs[z]:
                    v.append(z)
                    continue
                # push z left through v; a rule leaves at most one X letter to
                # push on, and its Y part lands after what is left of v
                tail = []
                while z is not None and v:
                    u1, v1 = split[(v.pop(), z)]
                    tail.append(v1)
                    z = u1[0] if u1 else None
                if z is not None:
                    u.append(z)
                for piece in reversed(tail):
                    v.extend(piece)
            return tuple(syms[k] for k in u + v)

        # suffix: read the word backwards, keeping u and v reversed so their
        # first letters sit at the ends of the lists
        u, v = [], []
        for z in reversed(word):
            if xs[z]:
                u.append(z)
                continue
            # push z right through u; a rule leaves at most one Y letter to
            # push on, and its X part lands before what is left of u
            head = []
            while z is not None and u:
                u1, v1 = split[(z, u.pop())]
                head.extend(u1)
                z = v1[0] if v1 else None
            u.extend(reversed(head))
            if z is not None:
                v.append(z)
        return tuple(syms[k] for k in u[::-1] + v[::-1])
    except KeyError as exc:
        # no rule for this pair: name the symbols, not their numbers
        raise KeyError(tuple(syms[k] for k in exc.args[0])) from None


def min_separation_rules(base: BasePresentation, n: int):
    """Rules pushing slot letters left past swaps and omissions; every
    replacement has at most one slot letter, so the prefix condition holds."""
    rules = {}
    for x in base.alphabet:
        for i in range(1, n):
            for j in range(1, n + 1):
                if j == i:
                    rules[(s_(i), x_(x, i))] = (x_(x, i + 1), s_(i))
                elif j == i + 1:
                    rules[(s_(i), x_(x, i + 1))] = (x_(x, i), s_(i))
                else:
                    rules[(s_(i), x_(x, j))] = (x_(x, j), s_(i))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if j == i:
                    rules[(e_(i), x_(x, i))] = (e_(i),)
                else:
                    rules[(e_(i), x_(x, j))] = (x_(x, j), e_(i))
    return (lambda sym: sym.kind == "x"), rules


def sing_separation_rules(base: BasePresentation, n: int):
    """Rules pushing omissions left past pinned letters; replacements have
    at most one pinned letter, so the suffix condition holds."""
    rules = {}
    for x in base.alphabet:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in range(1, n + 1):
                    if k == j:
                        rules[(xc(x, i, j), e_(k))] = (e_(j), xc(x, i, j))
                    elif k == i:
                        rules[(xc(x, i, j), e_(k))] = (e_(i), e_(j))
                    else:
                        rules[(xc(x, i, j), e_(k))] = (e_(k), xc(x, i, j))
    return (lambda sym: sym.kind == "e"), rules


# ---------------------------------------------------------------------------
# tuples

def tuple_mul(m0: ZeroExtended, a: MTuple, b: MTuple) -> MTuple:
    """Entrywise product; supports intersect."""
    if len(a) != len(b):
        raise CompositionError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    return MTuple(tuple(m0.mul(x, y) for x, y in zip(a.entries, b.entries)))


def embed_tuple(a: MTuple) -> WreathElement:
    """A bare tuple, as the pair with the partial identity on its support."""
    return WreathElement(a, pperm.partial_identity(a.support, len(a)))
