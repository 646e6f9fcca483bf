"""Seeded generator of document-like token dumps for the benchmark.

A crop holds two kinds of tokens:

* content tokens: independent Gaussian keys. At D=1024 two of them have
  cosine similarity near 0 (standard deviation about 0.03), far below the
  density threshold alpha=0.7, so they are never redundant;
* background tokens: 1-3 clusters per crop, each a shared direction plus
  noise, with pairwise cosine about 0.8. Every cluster holds at least
  MIN_CLUSTER tokens, so each member has more than limit_k=50 similar peers
  and is redundant.

The realized density of a crop is therefore 1 - background/N, exactly.
`tokzip.generate` cannot build these shapes: it needs dim >= unique tokens,
which N=2304, D=1024 breaks.

All arrays are drawn in float32, the on-disk precision, and held as float64
like loaded tensors, so an in-memory document holds exactly the values a
written and reloaded one would.
"""

import numpy as np

from tokzip.pipeline import SubImageBundle

DIM = 1024
# limit_k + 2: a member of a cluster this size has limit_k + 1 similar peers.
MIN_CLUSTER = 52
# Background noise scale; member-member cosine is about 1 / (1 + 0.5**2) = 0.8.
CLUSTER_NOISE = 0.5
# Background tokens draw this fraction of a content token's low-layer attention.
BACKGROUND_ATTENTION = 0.2
# Jitter added to every crop's target density, so seeds differ in R as well.
DENSITY_JITTER = 0.02

# kind -> (tokens per crop, grid, target density per crop before jitter).
# The global image (density 0.5) comes last and is passed through uncompressed.
KINDS = {
    "doc576": (576, (24, 24), tuple(np.linspace(0.9, 0.15, 9).round(4))),
    "text2304": (2304, (48, 48), (0.94, 0.90, 0.86, 0.82)),
    "blank2304": (2304, (48, 48), (0.12, 0.15, 0.18, 0.20)),
}
GLOBAL_DENSITY = 0.5
_KIND_CODE = {name: i for i, name in enumerate(KINDS)}


def _gaussian(rng, shape, scale=1.0):
    """Gaussian draws in float32."""
    g = rng.standard_normal(shape, dtype=np.float32)
    if scale != 1.0:
        g *= np.float32(scale)
    return g


def _cluster_sizes(n_background, rng):
    """Split background tokens into 1-3 clusters of at least MIN_CLUSTER each."""
    most = min(3, n_background // MIN_CLUSTER)
    if most == 0:
        return []
    k = int(rng.integers(1, most + 1))
    extra = rng.multinomial(n_background - k * MIN_CLUSTER, np.full(k, 1.0 / k))
    return [MIN_CLUSTER + int(e) for e in extra]


def _crop(n, grid, density, rng, image_id, is_global=False):
    n_background = round((1.0 - density) * n)
    sizes = _cluster_sizes(n_background, rng)
    scale = 1.0 / np.sqrt(DIM)
    keys = _gaussian(rng, (n, DIM), scale)
    background = np.zeros(n, dtype=bool)
    order = rng.permutation(n)  # background patches scattered over the grid
    pos = 0
    for size in sizes:
        members = order[pos:pos + size]
        centre = _gaussian(rng, DIM, scale)
        keys[members] = centre + CLUSTER_NOISE * keys[members]
        background[members] = True
        pos += size

    def attention(weights):
        return (weights / weights.sum()).astype(np.float32).astype(np.float64)

    low = rng.exponential(size=n)
    low[background] *= BACKGROUND_ATTENTION
    return SubImageBundle(
        y_last=_gaussian(rng, (n, DIM)).astype(np.float64),
        keys_low=keys.astype(np.float64),
        attn_low=attention(low),
        keys_deep=(keys + _gaussian(rng, (n, DIM), 0.5 * scale)).astype(np.float64),
        attn_deep=attention(rng.exponential(size=n)),
        grid_shape=grid,
        is_global=is_global,
        dataset="perfbench",
        image_id=image_id,
    )


def make_document(kind, seed):
    """Build the document of `kind` for `seed`: crops first, global image last.

    The same (kind, seed) always gives the same arrays.
    """
    n, grid, targets = KINDS[kind]
    rng = np.random.default_rng([seed, _KIND_CODE[kind]])
    jitter = rng.uniform(-DENSITY_JITTER, DENSITY_JITTER, size=len(targets))
    crops = [
        _crop(n, grid, float(t + j), rng, f"crop{i}")
        for i, (t, j) in enumerate(zip(targets, jitter))
    ]
    crops.append(_crop(n, grid, GLOBAL_DENSITY, rng, "global", is_global=True))
    return crops
