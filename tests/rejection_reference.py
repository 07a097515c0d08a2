"""Domain sampling with the fixed-size rejection rounds the samplers used to draw.

Every round drew max(4 count, 256) rows, so a domain that fills little of
its bounding cube took many rounds.  The tests compare domains._rejection's
points against these bit for bit.
"""

import numpy as np

from chernkit.domains import Product


def rejection(rng, n, count, half_width, domain):
    """The first `count` uniform draws from [-w, w]^(2n) that lie in the domain, as the old loop took them."""
    out, have = [], 0
    chunk = max(4 * count, 256)
    while have < count:
        xy = rng.uniform(-half_width, half_width, size=(chunk, 2 * n))
        z = xy[:, :n] + 1j * xy[:, n:]
        good = z[domain.contains(z)]
        out.append(good)
        have += len(good)
    return np.concatenate(out)[:count]


def sample(domain, n, count, rng):
    """domain.sample(n, count, rng) with the old rounds; a product samples its factors in turn from one rng."""
    if isinstance(domain, Product):
        return np.stack([sample(f, 1, count, rng)[:, 0] for f in domain.factors], axis=1)
    half_width = getattr(domain, "radius", None) or domain.r_outer
    return rejection(rng, n, count, half_width, domain)
