"""Seeded word-problem queries over a presentation's alphabet.

Half the pairs are equal by construction: both words share a random
skeleton of letters, and ``k`` times the two sides of a random relation are
inserted at the same place of the skeleton, one side into each word.  The
construction needs only the relations as token lists, never a call that
decides equality.  The other half are independent random words.  Target
lengths are spread evenly over ``1..MAX_LETTERS`` so that every seed has
the same mix of short and long words and the high percentiles come from
long ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_LETTERS = 32


@dataclass(frozen=True)
class Query:
    left: str
    right: str
    equal_by_construction: bool


def _text(tokens) -> str:
    return " ".join(tokens) if tokens else "1"


def _equal_pair(rng: random.Random, length: int, alphabet, relations):
    k = rng.randint(1, 3)
    # one chunk per skeleton letter or inserted relation: (left side, right side)
    chunks = [([x], [x]) for x in rng.choices(alphabet, k=max(0, length - 2 * k))]
    for _ in range(k):
        lhs, rhs = rng.choice(relations)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        chunks.insert(rng.randint(0, len(chunks)), (list(lhs), list(rhs)))
    left = [x for chunk, _ in chunks for x in chunk]
    right = [x for _, chunk in chunks for x in chunk]
    return _text(left), _text(right)


def make_queries(seed: int, count: int, alphabet, relations) -> list[Query]:
    """``count`` queries from ``seed``.  ``alphabet`` is a list of letter
    tokens and ``relations`` a list of (lhs tokens, rhs tokens)."""
    rng = random.Random(seed)
    lengths = [1 + i % MAX_LETTERS for i in range(count)]
    equal = [i % 2 == 0 for i in range(count)]
    rng.shuffle(lengths)
    rng.shuffle(equal)
    out = []
    for length, eq in zip(lengths, equal):
        if eq:
            left, right = _equal_pair(rng, length, alphabet, relations)
        else:
            left = _text(rng.choices(alphabet, k=length))
            right = _text(rng.choices(alphabet, k=rng.randint(1, MAX_LETTERS)))
        out.append(Query(left, right, eq))
    return out
