"""Deterministic RNG stream derivation.

All randomness in the package flows through ``numpy.random.Generator``
instances seeded by :func:`mix64`, a splitmix64-based combiner over 64-bit
words.  The mix is pinned (and documented in the README) so serialized runs
can be reproduced exactly: ``mix64(a, b, ...)`` folds each word into the
state with xor and applies the splitmix64 finalizer after each fold.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(value: int | str) -> int:
    if isinstance(value, str):
        return _fold_tag(value)
    return int(value) & _MASK64


@functools.lru_cache(maxsize=256)
def _fold_tag(tag: str) -> int:
    # cached: the same few tags ("trajectory", "tb-traj", ...) are folded
    # for every RNG stream, and the bytewise fold costs about 8 us per call
    acc = 0
    for byte in tag.encode("utf-8"):
        acc = splitmix64(acc ^ byte)
    return acc


def mix64(*values: int | str) -> int:
    """Combine integers and short string tags into one 64-bit seed."""
    state = _GOLDEN
    for value in values:
        state = splitmix64(state ^ _fold(value))
    return state


def rng_from(*values: int | str) -> np.random.Generator:
    return np.random.default_rng(mix64(*values))
