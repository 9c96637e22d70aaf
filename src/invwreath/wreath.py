"""Labelled partial bijections: pairs of a tuple and a map with matching
support and domain.

An element is a tuple over the zero-extended base monoid together with a
partial bijection whose domain equals the tuple's support.  Composition
twists the right tuple along the left map before multiplying; the tensor
stacks blocks side by side.

Products are computed in one plain form, the key ``(images, entries, n)``:
the map's image row, the tuple's label row and the codomain size.  The
domain size is the length of the rows; the codomain size keeps apart
hom-sets whose rows agree, such as the empty maps ``0 -> 1`` and
``0 -> 2``.  Keys are tuples of ints, so they hash and compare in C.
``compose_keys`` multiplies two keys without building or validating
anything, and ``from_key`` is the one constructor that validates.  Within
a hom-set, keys order as ``sort_key`` does.

Generation multiplies in a second form, on position codes.  Over the
zero-extended table ``z``, position ``i`` of a key with image ``v`` and
label ``l`` has the code ``v * len(z) + l``, which is 0 off the domain.
An element of hom-set ``(m, n)`` is the pair ``(codes, n)`` of its code
string, one code point per position, and its codomain size.  Right
multiplication by ``b`` moves each position on its own, so it is one
translate table on code points (``right_action``), and a product is one
``codes.translate(table)``.  A string covers every base and level in one
form: ``bytes.translate`` would stop at code 255.  ``enumerate_codes``
streams a hom-set's code strings in increasing order, which is not
``sort_key`` order; ``encode_key`` and ``decode_key`` convert, and
``enumerate_wreath`` decodes a hom-set and sorts it into that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import getitem
from typing import Iterator

from . import pperm
from .base import FiniteMonoid, MTuple, ZeroExtended, ones_on, tuple_tensor
from .pperm import CompositionError, PartialBijection

__all__ = [
    "WreathElement",
    "from_key",
    "compose_keys",
    "right_action",
    "encode_key",
    "decode_key",
    "level_mismatch",
    "identity_key",
    "compose",
    "tensor",
    "embed_map",
    "identity_element",
    "enumerate_codes",
    "enumerate_wreath",
    "rank_counts",
    "count_wreath",
    "hom_count",
]


@dataclass(frozen=True)
class WreathElement:
    """A tuple/map pair with ``supp(tup) == dom(pmap)``."""

    tup: MTuple
    pmap: PartialBijection

    def __post_init__(self):
        if len(self.tup) != self.pmap.m:
            raise ValueError(
                f"tuple length {len(self.tup)} != source size {self.pmap.m}")
        if self.tup.support != self.pmap.dom:
            raise ValueError(
                f"support {self.tup.support} != domain {self.pmap.dom}")

    @property
    def dom_size(self) -> int:
        return self.pmap.m

    @property
    def cod_size(self) -> int:
        return self.pmap.n

    def sort_key(self):
        return (self.pmap.images, self.tup.entries)

    @property
    def key(self) -> tuple:
        """The plain form ``(images, entries, n)``."""
        return (self.pmap.images, self.tup.entries, self.pmap.n)

    def to_json(self) -> dict:
        return {"tuple": list(self.tup.entries), "map": self.pmap.to_json()}


def from_key(key) -> WreathElement:
    """The element with plain form ``key``, validated."""
    images, entries, n = key
    return WreathElement(MTuple(entries), PartialBijection(len(images), n, images))


def compose_keys(z, a, b):
    """Left-to-right product of the plain forms ``a`` and ``b`` over the
    zero-extended table ``z`` (``ZeroExtended.table``), or ``None`` when
    ``a``'s codomain is not ``b``'s domain.

    Position ``i`` goes where ``b`` sends ``a``'s image of ``i``, labelled
    by ``a``'s label at ``i`` times ``b``'s label at that image.  ``b``'s
    rows get a leading ``0``, so an undefined image reads ``0`` for both,
    and ``a``'s label there is ``0`` too, a zero of ``z``."""
    images, entries, n = a
    b_images, b_entries, b_n = b
    if n != len(b_images):
        return None
    b_images = (0,) + b_images
    b_entries = (0,) + b_entries
    return (tuple(map(b_images.__getitem__, images)),
            tuple(map(getitem, map(z.__getitem__, entries), map(b_entries.__getitem__, images))),
            b_n)


def right_action(z, b) -> str:
    """The translate table of right multiplication by the plain form ``b``
    on code strings over the zero-extended table ``z``: the character at
    ``c`` is the code that a position with code ``c`` has in the product,
    so ``codes.translate(right_action(z, b))`` is the product.  A position
    with image ``v`` and label ``l`` goes to ``b``'s image of ``v`` with the
    label ``l`` times ``b``'s label there; ``b``'s rows get a leading ``0``,
    as in ``compose_keys``, so a position off the domain stays at ``0``.
    The table has ``(len(b[0]) + 1) * len(z)`` characters, one per code of
    ``b``'s domain; ``str.translate`` leaves a code beyond it unchanged."""
    images, entries, _ = b
    width = len(z)
    return "".join([chr(v * width + z[label][e])
                    for v, e in zip((0,) + images, (0,) + entries)
                    for label in range(width)])


def encode_key(width: int, key) -> tuple:
    """The pair ``(codes, n)`` of the plain form ``key``, with ``width``
    the size of the zero-extended table and ``codes`` a string of one code
    point per position.  A label that is no element of that table raises
    ``ValueError``."""
    images, entries, n = key
    if any(label >= width for label in entries):
        raise ValueError(f"labels {entries} outside a table of {width - 1} elements")
    return "".join([chr(v * width + label) for v, label in zip(images, entries)]), n


def decode_key(width: int, coded) -> tuple:
    """The plain form of the pair ``(codes, n)``, read from the code
    points of ``codes``."""
    codes, n = coded
    codes = tuple(map(ord, codes))
    return tuple(c // width for c in codes), tuple(c % width for c in codes), n


def level_mismatch(a, b) -> CompositionError:
    """The error for composing the plain forms ``a`` and ``b``."""
    return CompositionError(f"cannot compose {len(a[0])}->{a[2]} with {len(b[0])}->{b[2]}")


def compose(m0: ZeroExtended, p: WreathElement, q: WreathElement) -> WreathElement:
    """Left-to-right composition: twist ``q``'s tuple along ``p``'s map,
    multiply tuples, compose maps."""
    out = compose_keys(m0.table, p.key, q.key)
    if out is None:
        raise level_mismatch(p.key, q.key)
    return from_key(out)


def tensor(p: WreathElement, q: WreathElement) -> WreathElement:
    return WreathElement(tuple_tensor(p.tup, q.tup), p.pmap.tensor(q.pmap))


def embed_map(monoid: FiniteMonoid, alpha: PartialBijection) -> WreathElement:
    """A bare map, labelled by identities on its domain."""
    return WreathElement(ones_on(monoid, alpha.dom, alpha.m), alpha)


def identity_key(monoid: FiniteMonoid, n: int) -> tuple:
    return (tuple(range(1, n + 1)), (monoid.identity + 1,) * n, n)


def identity_element(monoid: FiniteMonoid, n: int) -> WreathElement:
    return from_key(identity_key(monoid, n))


def _ranks(m: int, n: int, variant: str) -> range:
    """The ranks of the maps in the variant's hom-set ``(m, n)``; an
    unknown variant, or a singular one with ``m != n``, raises ``ValueError``."""
    if variant == "full":
        return range(min(m, n) + 1)
    if variant not in ("singular-monoid", "singular-tuples"):
        raise ValueError(f"unknown variant {variant!r}")
    if m != n:
        raise ValueError("singular variants need m == n")
    return range(n)


def rank_counts(monoid: FiniteMonoid, m: int, n: int, variant: str = "full") -> Iterator[int]:
    """The variant's closed-form cardinality split by the rank ``k`` of
    the map, ``k`` ascending: ``C(m,k) C(n,k) k! |M|^k`` labelled maps, or
    for ``singular-tuples`` ``C(n,k) |M|^k`` tuples with ``k`` nonzero
    entries.  The singular variants stop below rank ``n``.  The terms are
    computed one at a time, so a caller may stop summing early."""
    ranks = _ranks(m, n, variant)
    size = monoid.size
    if variant == "singular-tuples":
        return (math.comb(n, k) * size ** k for k in ranks)
    return (math.comb(m, k) * math.comb(n, k) * math.factorial(k) * size ** k for k in ranks)


def count_wreath(monoid: FiniteMonoid, m: int, n: int, variant: str = "full") -> int:
    """Closed-form cardinalities for the enumeration variants."""
    return sum(rank_counts(monoid, m, n, variant))


def hom_count(monoid: FiniteMonoid, m: int, n: int) -> int:
    """Number of labelled partial bijections ``m -> n``:
    sum over rank k of C(m,k) C(n,k) k! |M|^k."""
    return count_wreath(monoid, m, n)


def enumerate_codes(monoid: FiniteMonoid, m: int, n: int, variant: str = "full") -> Iterator[str]:
    """The code strings (``encode_key``) of the hom-set ``(m, n)`` of the
    chosen variant, in increasing order, streamed with the state of one
    string.

    Variants: ``full`` (the whole hom-set), ``singular-monoid`` (endo
    elements whose map is not a permutation), ``singular-tuples`` (tuples
    with a zero entry, embedded via their partial identity).
    """
    _ranks(m, n, variant)
    return pperm.code_rows(m, n, monoid.size, fixed=variant == "singular-tuples",
                           singular=variant != "full")


def enumerate_wreath(monoid: FiniteMonoid, m: int, n: int,
                     variant: str = "full") -> Iterator[WreathElement]:
    """The elements of ``enumerate_codes``, decoded and ordered by
    ``sort_key``."""
    width = monoid.size + 1
    keys = sorted(decode_key(width, (codes, n))
                  for codes in enumerate_codes(monoid, m, n, variant))
    return map(from_key, keys)
