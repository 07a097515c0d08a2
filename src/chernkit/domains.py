"""Sampling domains for metric definitions.

A domain knows whether a point of C^n belongs to it and how to draw
reproducible uniform samples from it.  `contains` takes one point or a batch
(the coordinates on the last axis) and returns a numpy bool or a bool array
of the batch shape; it allows 1e-12 of slack at the boundary.  Sampling is
by rejection from a bounding cube (per the chunked loop in
:func:`_rejection`), keeping the draws that `contains` accepts, so a fixed
seed always yields the same points in the same order.  A domain that fills
under ~1/_DRAWS_PER_POINT of its cube raises ValueError instead of looping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Ball", "Annulus", "Polydisc", "Product", "Domain"]


_DRAWS_PER_POINT = 2**20  # candidate rows a sample may draw per requested point before giving up
_CHUNK_VALUES = 2**20  # a later round draws at most this many coordinates (rows times 2n), or as many as the last


def _rejection(rng, n, count, half_width, domain):
    """Draw uniform points from [-w, w]^(2n) until `count` lie in the domain.

    The first round draws max(4 count, 256) rows.  Each later round is sized from the share accepted
    so far, with a margin of 2: at most 16 times the last round, and never past the budget of
    _DRAWS_PER_POINT draws per point.  The rows come from one stream and the first `count` accepted
    are kept, so the points do not depend on the rounds; what is left of the stream after them does.
    """
    out, have, drawn = [], 0, 0
    chunk = max(4 * count, 256)
    while have < count:
        if drawn >= _DRAWS_PER_POINT * count:  # e.g. a ball in C^n fills pi^n/(n! 4^n) of its cube
            raise ValueError(f"{domain} in n={n}: {have} of {count} sample points accepted in {drawn} "
                             "draws; the domain fills too little of its bounding cube, so pass points with --point")
        xy = rng.uniform(-half_width, half_width, size=(chunk, 2 * n))
        z = xy[:, :n] + 1j * xy[:, n:]
        good = z[domain.contains(z)]
        out.append(good)
        have, drawn = have + len(good), drawn + chunk
        want = 16 * chunk if have == 0 else max(256, math.ceil(2 * (count - have) * drawn / have))
        grown = min(want, 16 * chunk, max(chunk, _CHUNK_VALUES // (2 * n)))
        chunk = min(grown, _DRAWS_PER_POINT * count - drawn)
    return np.concatenate(out)[:count]


@dataclass(frozen=True)
class Ball:
    """|z| <= radius (Euclidean norm on C^n)."""

    radius: float

    def contains(self, z):
        return np.linalg.norm(z, axis=-1) <= self.radius + 1e-12

    def sample(self, n: int, count: int, rng) -> np.ndarray:
        return _rejection(rng, n, count, self.radius, self)


@dataclass(frozen=True)
class Annulus:
    """r_inner <= |z| <= r_outer; excludes the origin."""

    r_inner: float
    r_outer: float

    def contains(self, z):
        r = np.linalg.norm(z, axis=-1)
        return (self.r_inner - 1e-12 <= r) & (r <= self.r_outer + 1e-12)

    def sample(self, n: int, count: int, rng) -> np.ndarray:
        return _rejection(rng, n, count, self.r_outer, self)


@dataclass(frozen=True)
class Polydisc:
    """|z_k| <= radius for every coordinate."""

    radius: float

    def contains(self, z):
        return np.all(np.abs(z) <= self.radius + 1e-12, axis=-1)

    def sample(self, n: int, count: int, rng) -> np.ndarray:
        return _rejection(rng, n, count, self.radius, self)


@dataclass(frozen=True)
class Product:
    """Cartesian product of one-dimensional factors, one per coordinate."""

    factors: tuple

    def contains(self, z):
        z = np.asarray(z)
        return np.logical_and.reduce([f.contains(z[..., k, None]) for k, f in enumerate(self.factors)])

    def sample(self, n: int, count: int, rng) -> np.ndarray:
        if n != len(self.factors):
            raise ValueError(f"product domain has {len(self.factors)} factors but the metric has n={n}")
        return np.stack([f.sample(1, count, rng)[:, 0] for f in self.factors], axis=1)


Domain = Ball | Annulus | Polydisc | Product
