"""Deterministic stream splitting for reproducible experiments.

All randomness flows through Python's Mersenne Twister seeded by a splitmix64
derivation of (seed, index...) so that independent trials get independent,
reproducible streams: derive(seed, k) feeds each trial k its own generator
and results are bit-identical across runs and platforms.

On the harmonic sampler's path a stream is defined by its 32-bit words:
``stochastics._random_stabilizer_matrix`` draws each entry below its bound
n as getrandbits(k), k = n.bit_length(), drawn again while at least n, which
is the algorithm of CPython's ``randrange(n)``, so it consumes the same
words.
For k <= 32 an entry draw is the top k bits of one word, and
getrandbits(32 n) is the next n words, the first drawn in the lowest 32
bits.  ``stochastics._stabilizer_hit_count`` relies on both: for q < 256
and p <= 13 it reads the top byte of each word of a block, deletes the
bytes of rejected draws and shifts the others, decides the candidates of a
round together on byte lanes, and never draws a word past the last entry
the per-draw loop would take.
"""

from __future__ import annotations

import random

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x):
    """One splitmix64 step; the generator named in the output records."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed, *indices):
    """64-bit stream seed for a (seed, index...) path."""
    x = seed & _MASK
    x = splitmix64(x)
    for k in indices:
        x = splitmix64(x ^ (k & _MASK))
    return x


def make_rng(seed, *indices):
    return random.Random(derive_seed(seed, *indices))
