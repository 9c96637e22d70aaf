"""Partial bijections between finite chains.

A partial bijection from ``{1,...,m}`` to ``{1,...,n}`` is stored as a row of
``m`` image entries, with ``0`` marking positions outside the domain and
positive entries giving 1-based targets.  Nonzero entries are pairwise
distinct.  These maps compose relationally, stack horizontally, and include
the named diagrams (adjacent swaps, domain omissions, transfers, inclusions)
used as generators throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterator

__all__ = [
    "CompositionError",
    "CapExceededError",
    "PartialBijection",
    "identity",
    "partial_identity",
    "swap_adjacent",
    "omit",
    "transfer",
    "inclusion",
    "projection",
    "swap2",
    "drop1",
    "lift1",
    "enumerate_partial_bijections",
    "image_rows",
    "code_rows",
    "DEFAULT_ENUM_CAP",
]

DEFAULT_ENUM_CAP = 6


class CompositionError(ValueError):
    """Composing (or acting with) maps whose middle objects disagree."""


class CapExceededError(ValueError):
    """An enumeration request exceeded its configured size cap."""


@dataclass(frozen=True)
class PartialBijection:
    """Injective partial map ``{1..m} -> {1..n}``.

    ``images[i-1]`` is the image of ``i``, or ``0`` when ``i`` has none.
    Instances are immutable and hashable; the encoding matches the JSON wire
    form exactly.
    """

    m: int
    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"negative chain size: m={self.m}, n={self.n}")
        if len(self.images) != self.m:
            raise ValueError(f"expected {self.m} image entries, got {len(self.images)}")
        seen = set()
        for v in self.images:
            if not 0 <= v <= self.n:
                raise ValueError(f"image entry {v} outside 0..{self.n}")
            if v:
                if v in seen:
                    raise ValueError(f"target {v} hit twice; map not injective")
                seen.add(v)

    def __call__(self, i: int) -> int | None:
        """Image of ``i``, or ``None`` when undefined."""
        v = self.images[i - 1]
        return v if v else None

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.m + 1) if self.images[i - 1])

    @property
    def im(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.images if v))

    def is_total_bijection(self) -> bool:
        return self.m == self.n and all(self.images)

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """Relational composition, left to right: ``i -> (i self) other``."""
        if self.n != other.m:
            raise CompositionError(
                f"cannot compose {self.m}->{self.n} with {other.m}->{other.n}"
            )
        row = tuple(
            other.images[v - 1] if v else 0
            for v in self.images
        )
        return PartialBijection(self.m, other.n, row)

    def tensor(self, other: "PartialBijection") -> "PartialBijection":
        """Horizontal sum: ``self`` on the first block, ``other`` shifted after it."""
        row = self.images + tuple(v + self.n if v else 0 for v in other.images)
        return PartialBijection(self.m + other.m, self.n + other.n, row)

    def invert(self) -> "PartialBijection":
        """Transpose of the graph: maps ``i self`` back to ``i`` on the image."""
        row = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v:
                row[v - 1] = i
        return PartialBijection(self.n, self.m, tuple(row))

    def restrict(self, keep) -> "PartialBijection":
        """Restriction of the map to the positions in ``keep``."""
        keep = set(keep)
        row = tuple(
            v if (i in keep and v) else 0
            for i, v in enumerate(self.images, start=1)
        )
        return PartialBijection(self.m, self.n, row)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "images": list(self.images)}

    @staticmethod
    def from_json(obj: dict) -> "PartialBijection":
        return PartialBijection(int(obj["m"]), int(obj["n"]), tuple(int(v) for v in obj["images"]))

    def render(self) -> str:
        """Two-row ASCII diagram with the edge list between the rows."""
        top = " ".join(str(i) for i in range(1, self.m + 1)) or "(empty)"
        bottom = " ".join(str(j) for j in range(1, self.n + 1)) or "(empty)"
        edges = " ".join(f"{i}-{v}" for i, v in enumerate(self.images, start=1) if v) or "(no edges)"
        return f"{top}\n{edges}\n{bottom}"


def identity(n: int) -> PartialBijection:
    return PartialBijection(n, n, tuple(range(1, n + 1)))


def partial_identity(positions, n: int) -> PartialBijection:
    """Identity on ``positions``, undefined elsewhere on ``{1..n}``."""
    keep = set(positions)
    if not keep <= set(range(1, n + 1)):
        raise ValueError(f"positions {sorted(keep)} not within 1..{n}")
    return PartialBijection(n, n, tuple(i if i in keep else 0 for i in range(1, n + 1)))


def swap_adjacent(i: int, n: int) -> PartialBijection:
    """Total bijection on ``{1..n}`` exchanging ``i`` and ``i+1``."""
    if not 1 <= i < n:
        raise ValueError(f"swap index {i} needs 1 <= i < n={n}")
    row = list(range(1, n + 1))
    row[i - 1], row[i] = row[i], row[i - 1]
    return PartialBijection(n, n, tuple(row))


def omit(i: int, n: int) -> PartialBijection:
    """Identity on ``{1..n}`` with ``i`` removed from the domain."""
    if not 1 <= i <= n:
        raise ValueError(f"omit index {i} needs 1 <= i <= n={n}")
    return partial_identity(set(range(1, n + 1)) - {i}, n)


def transfer(i: int, j: int, n: int) -> PartialBijection:
    """Send ``j`` to ``i``, remove ``i`` from the domain, fix the rest.

    Domain is the complement of ``{i}``, image the complement of ``{j}``.
    """
    if i == j:
        raise ValueError("transfer needs distinct indices")
    if not (1 <= i <= n and 1 <= j <= n) or n < 2:
        raise ValueError(f"transfer indices ({i},{j}) invalid at size {n}")
    row = [k for k in range(1, n + 1)]
    row[i - 1] = 0
    row[j - 1] = i
    return PartialBijection(n, n, tuple(row))


def inclusion(n: int) -> PartialBijection:
    """The inclusion ``{1..n} -> {1..n+1}``."""
    return PartialBijection(n, n + 1, tuple(range(1, n + 1)))


def projection(n: int) -> PartialBijection:
    """Partial identity ``{1..n+1} -> {1..n}`` dropping the last point."""
    return PartialBijection(n + 1, n, tuple(range(1, n + 1)) + (0,))


def swap2() -> PartialBijection:
    return swap_adjacent(1, 2)


def drop1() -> PartialBijection:
    """The unique map ``{1} -> {}``."""
    return PartialBijection(1, 0, (0,))


def lift1() -> PartialBijection:
    """The unique map ``{} -> {1}``."""
    return PartialBijection(0, 1, ())


def enumerate_partial_bijections(m: int, n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[PartialBijection]:
    """All partial bijections ``{1..m} -> {1..n}``, in lexicographic order of
    the image row with "undefined" sorting first.
    """
    if m > cap or n > cap:
        raise CapExceededError(f"enumeration of ({m},{n}) exceeds cap {cap}")
    return (PartialBijection(m, n, row) for row in image_rows(m, n))


def image_rows(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The image rows of ``enumerate_partial_bijections``, in its order,
    as plain tuples."""
    return code_rows(m, n)


def code_rows(m: int, n: int, labels: int = 0, fixed: bool = False,
              singular: bool = False) -> Iterator[tuple[int, ...]]:
    """The partial bijections ``{1..m} -> {1..n}``, each defined position
    labelled ``1..labels``, as rows of position codes in increasing order.
    A position off the domain holds ``0``; one with image ``v`` and label
    ``l`` holds ``v * (labels + 1) + l``, or ``v`` when there are no
    labels, so the unlabelled rows are the image rows.  With ``fixed``
    each position maps to itself or nowhere; with ``singular`` a row has a
    position off the domain.

    An odometer runs over the first ``m - 1`` positions and completes each
    prefix with every code the last position can take, so the state is
    one prefix and its free images: no recursion, and no list of rows."""
    if m < 0 or n < 0:
        raise ValueError(f"negative chain size: m={m}, n={n}")
    return _code_rows(m, n, labels, fixed, singular)


def _code_rows(m, n, labels, fixed, singular):
    width = labels + 1
    first = 1 if labels else 0
    # per image, the one-position rows that take it, labels ascending
    block = [()] + [tuple((v * width + label,) for label in range(first, width))
                    for v in range(1, n + 1)]
    if not m:
        if not singular:
            yield ()
        return
    off = ((0,),)
    last = m - 1                    # the position that completes a prefix
    row = [0] * last
    free = [False] + [True] * n + [True]    # per image; the last entry stops a search
    zeros = last                    # prefix positions off the domain
    while True:
        prefix = tuple(row)
        if singular and not zeros:
            tail = off
        elif fixed:
            tail = off + block[m] if m <= n else off
        else:
            tail = chain(off, chain.from_iterable(compress(block, free)))
        yield from map(prefix.__add__, tail)
        # the next prefix: the rightmost position that can grow grows, and
        # the positions after it are back off the domain
        i = last - 1
        while True:
            if i < 0:
                return
            c = row[i]
            if c and c % width < labels:
                row[i] = c + 1                  # the next label
                break
            v = c // width
            if v:
                free[v] = True
            if fixed:
                v = i + 1 if not v and i < n else n + 1
            else:
                v = free.index(True, v + 1)     # the next free image
            if v <= n:
                free[v] = False
                row[i] = v * width + first
                zeros -= not c
                break
            row[i] = 0
            zeros += c > 0
            i -= 1
