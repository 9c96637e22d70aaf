"""Labelled partial bijections: pairs of a tuple and a map with matching
support and domain.

An element is a tuple over the zero-extended base monoid together with a
partial bijection whose domain equals the tuple's support.  Composition
twists the right tuple along the left map before multiplying; the tensor
stacks blocks side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import pperm
from .base import (
    FiniteMonoid,
    MTuple,
    ZeroExtended,
    act,
    ones_on,
    tuple_mul,
    tuple_tensor,
)
from .pperm import CapExceededError, CompositionError, PartialBijection

__all__ = [
    "WreathElement",
    "compose",
    "tensor",
    "embed_tuple",
    "embed_map",
    "identity_element",
    "enumerate_wreath",
    "count_wreath",
    "hom_count",
    "default_level_cap",
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

    def to_json(self) -> dict:
        return {"tuple": list(self.tup.entries), "map": self.pmap.to_json()}


def compose(m0: ZeroExtended, p: WreathElement, q: WreathElement) -> WreathElement:
    """Left-to-right composition: twist ``q``'s tuple along ``p``'s map,
    multiply tuples, compose maps.  The support/domain match of the result
    is re-checked by construction."""
    if p.cod_size != q.dom_size:
        raise CompositionError(
            f"cannot compose {p.dom_size}->{p.cod_size} with {q.dom_size}->{q.cod_size}")
    return WreathElement(tuple_mul(m0, p.tup, act(p.pmap, q.tup)), p.pmap.compose(q.pmap))


def tensor(p: WreathElement, q: WreathElement) -> WreathElement:
    return WreathElement(tuple_tensor(p.tup, q.tup), p.pmap.tensor(q.pmap))


def embed_tuple(a: MTuple) -> WreathElement:
    """A bare tuple, as the pair with the partial identity on its support."""
    return WreathElement(a, pperm.partial_identity(a.support, len(a)))


def embed_map(monoid: FiniteMonoid, alpha: PartialBijection) -> WreathElement:
    """A bare map, labelled by identities on its domain."""
    return WreathElement(ones_on(monoid, alpha.dom, alpha.m), alpha)


def identity_element(monoid: FiniteMonoid, n: int) -> WreathElement:
    return embed_map(monoid, pperm.identity(n))


def default_level_cap(monoid: FiniteMonoid) -> int:
    """Conservative enumeration cap by base size."""
    if monoid.size == 1:
        return 4
    if monoid.size <= 3:
        return 3
    return 2


def count_wreath(monoid: FiniteMonoid, m: int, n: int, variant: str = "full") -> int:
    """Closed-form cardinalities for the enumeration variants."""
    if variant == "full":
        return hom_count(monoid, m, n)
    if variant == "singular-monoid":
        if m != n:
            raise ValueError("singular variant needs m == n")
        import math
        return hom_count(monoid, n, n) - math.factorial(n) * monoid.size ** n
    if variant == "singular-tuples":
        if m != n:
            raise ValueError("singular variant needs m == n")
        return (monoid.size + 1) ** n - monoid.size ** n
    raise ValueError(f"unknown variant {variant!r}")


def hom_count(monoid: FiniteMonoid, m: int, n: int) -> int:
    """Number of labelled partial bijections ``m -> n``:
    sum over rank k of C(m,k) C(n,k) k! |M|^k."""
    import math
    return sum(
        math.comb(m, k) * math.comb(n, k) * math.factorial(k) * monoid.size ** k
        for k in range(min(m, n) + 1)
    )


def enumerate_wreath(monoid: FiniteMonoid, m: int, n: int, variant: str = "full",
                     cap: int | None = None) -> Iterator[WreathElement]:
    """All elements of the chosen variant, ordered lexicographically by
    (map images, tuple entries).

    Variants: ``full`` (the whole hom-set), ``singular-monoid`` (endo
    elements whose map is not a permutation), ``singular-tuples`` (tuples
    with a zero entry, embedded via their partial identity).
    """
    if cap is None:
        cap = default_level_cap(monoid)
    if m > cap or n > cap:
        raise CapExceededError(f"enumeration of ({m},{n}) exceeds cap {cap}")
    if variant in ("singular-monoid", "singular-tuples") and m != n:
        raise ValueError("singular variants need m == n")

    size = monoid.size

    def labelled(alpha: PartialBijection) -> Iterator[WreathElement]:
        dom = alpha.dom
        def rec(k: int, entries: list[int]) -> Iterator[WreathElement]:
            if k == len(dom):
                row = [0] * m
                for pos, v in zip(dom, entries):
                    row[pos - 1] = v
                yield WreathElement(MTuple(tuple(row)), alpha)
                return
            for v in range(1, size + 1):
                entries.append(v)
                yield from rec(k + 1, entries)
                entries.pop()
        return rec(0, [])

    for alpha in pperm.enumerate_partial_bijections(m, n, cap=cap):
        if variant == "singular-monoid" and alpha.is_total_bijection():
            continue
        if variant == "singular-tuples" and alpha != pperm.partial_identity(alpha.dom, n):
            continue
        if variant == "singular-tuples" and len(alpha.dom) == n:
            continue
        yield from labelled(alpha)
