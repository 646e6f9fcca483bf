"""Synthetic bundles, baseline compressors, and independent oracles.

The oracles re-derive every checkable quantity from scratch (separate code,
no reuse of the main modules' kernels) so that equivalence tests actually
test something. The generator builds key matrices with a known redundancy
structure: clusters of near-identical vectors against mutually orthogonal
unique vectors, so the expected information density is known by construction.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_ROWS
from .density import DensityConfig, compute_density
from .errors import InfeasibleSpecError
from .pipeline import SubImageBundle
from .selection import (
    SelectionConfig,
    SelectionResult,
    global_select,
    local_sample_count,
    local_select,
    merge_indices,
)

CLUSTER_NOISE = 0.05  # within-cluster cosine stays above 0.99
UNIQUE_NOISE = 0.01


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic sub-image bundle.

    redundancy_fraction of the tokens are split across n_clusters of
    near-identical keys; the rest are mutually (near-)orthogonal. Cluster
    tokens come first in index order, unique tokens last.
    """

    n_tokens: int
    dim: int
    redundancy_fraction: float
    n_clusters: int = 1
    attention_profile: str = "uniform"  # uniform | concentrated | outliers
    outlier_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.redundancy_fraction <= 1.0:
            raise ValueError("redundancy_fraction must be in [0, 1]")
        if self.attention_profile not in ("uniform", "concentrated", "outliers"):
            raise ValueError(f"unknown attention_profile {self.attention_profile!r}")


def _grid_shape(n):
    root = int(math.isqrt(n))
    for r in range(root, 0, -1):
        if n % r == 0:
            return (r, n // r)
    return (1, n)


def generate(spec):
    """Realize a SyntheticSpec as a fully populated SubImageBundle."""
    n = spec.n_tokens
    rng = np.random.default_rng(spec.seed)
    n_red = round(spec.redundancy_fraction * n)
    n_unique = n - n_red
    n_clusters = min(spec.n_clusters, n_red) if n_red else 0
    if spec.dim < n_unique + n_clusters:
        raise InfeasibleSpecError(
            f"dim={spec.dim} cannot host {n_unique} orthogonal unique tokens "
            f"plus {n_clusters} cluster centroids"
        )

    keys = np.zeros((n, spec.dim))
    pos = 0
    for c in range(n_clusters):
        size = n_red // n_clusters + (1 if c < n_red % n_clusters else 0)
        centroid = np.zeros(spec.dim)
        centroid[n_unique + c] = 1.0
        for _ in range(size):
            g = rng.standard_normal(spec.dim)
            v = centroid + CLUSTER_NOISE * g / np.linalg.norm(g)
            keys[pos] = v / np.linalg.norm(v)
            pos += 1
    for u in range(n_unique):
        v = np.zeros(spec.dim)
        v[u] = 1.0
        g = rng.standard_normal(spec.dim)
        v += UNIQUE_NOISE * g / np.linalg.norm(g)
        keys[pos] = v / np.linalg.norm(v)
        pos += 1

    unique_ix = np.arange(n_red, n)
    if spec.attention_profile == "uniform":
        attn_low = np.full(n, 1.0 / n)
        attn_deep = attn_low.copy()
    elif spec.attention_profile == "concentrated":
        w = np.ones(n)
        w[unique_ix] = 100.0
        attn_low = w / w.sum()
        attn_deep = attn_low.copy()
    else:  # outliers
        w = np.ones(n)
        boosted = unique_ix[: spec.outlier_count] if n_unique else np.arange(spec.outlier_count)
        w[boosted] = 10.0 * n
        attn_deep = w / w.sum()
        attn_low = np.full(n, 1.0 / n)

    y_last = rng.standard_normal((n, spec.dim))
    return SubImageBundle(
        y_last=y_last,
        keys_low=keys,
        attn_low=attn_low,
        keys_deep=keys.copy(),
        attn_deep=attn_deep,
        grid_shape=_grid_shape(n),
        dataset=f"synthetic_rho{spec.redundancy_fraction:g}",
        image_id=f"synthetic_{spec.seed}",
    )


# ---------------------------------------------------------------------------
# Baseline selectors (ablation axes: random / uniform stride / fixed ratio)
# ---------------------------------------------------------------------------

def baseline_select(method, attn_deep, attn_low, density, cfg=SelectionConfig(), ratio=None):
    """Non-adaptive selection baselines, emitted as ordinary SelectionResults.

    random  - m uniform indices without replacement, m from the adaptive path
    uniform - the m evenly spaced indices floor(i * N / m), i < m
    fixed   - attention-guided sampling at count round(ratio * N)

    Each ends in merge_indices, as the adaptive path does: a crop that would
    keep nothing keeps cfg.min_retained tokens, tagged fallback.

    Bound to method and ratio (functools.partial), it is a `select` step for
    compress_subimage. cfg.seed drives random and fixed; attn_deep is unused.
    """
    n = np.size(attn_low)
    if method in ("random", "uniform"):
        m = local_sample_count(density, n)
        if method == "random":
            chosen = np.sort(np.random.default_rng(cfg.seed).choice(n, size=m, replace=False))
        else:
            chosen = (np.arange(m, dtype=np.intp) * n) // m
    elif method == "fixed":
        if ratio is None or not 0.0 <= ratio <= 1.0:
            raise ValueError("fixed baseline needs ratio in [0, 1]")
        chosen = local_select(attn_low, local_sample_count(ratio, n), cfg)
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    return SelectionResult(
        global_indices=np.empty(0, dtype=np.intp),
        local_indices=chosen,
        merged_indices=merge_indices(np.empty(0, dtype=np.intp), chosen, attn_low, cfg),
    )


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _unit_rows(keys):
    """float64 unit rows, each scaled by a power of two first, so that no square overflows."""
    k = np.array(keys, dtype=np.float64)  # the one N x D copy: scaled and divided in place
    _, e = np.frexp(np.maximum(k.max(axis=1), -k.min(axis=1)))
    np.ldexp(k, -e[:, None], out=k)
    k /= np.sqrt(np.einsum("ij,ij->i", k, k))[:, None]
    return k


def oracle_density(keys, alpha, limit_k, count_self=False):
    """Naive per-row threshold count; returns (n_redundant, redundant_mask)."""
    kn = _unit_rows(keys)
    n = kn.shape[0]
    mask = np.zeros(n, dtype=bool)
    for i in range(n):
        similar = kn @ kn[i] > alpha
        if not count_self:
            similar[i] = False
        mask[i] = np.count_nonzero(similar) > limit_k
    return int(mask.sum()), mask


def oracle_global_select(scores, iqr_factor=1.5):
    """Sort-based fence computation with explicit order-statistic interpolation."""
    v = sorted(float(x) for x in scores)
    n = len(v)

    def q(frac):
        p = frac * (n - 1)
        lo = math.floor(p)
        hi = math.ceil(p)
        return v[lo] + (p - lo) * (v[hi] - v[lo])

    fence = q(0.75) + iqr_factor * (q(0.75) - q(0.25))
    return [i for i, x in enumerate(scores) if x > fence]


def oracle_aggregate(tokens, keys, attn, retained, knn_k, include_self=True, normalize=True):
    """Exhaustive neighbor search + explicit weighted sums, one row per index."""
    y = np.asarray(tokens, dtype=np.float64)
    kn = _unit_rows(keys)
    n = y.shape[0]
    rows = []
    for l in sorted(int(i) for i in retained):
        sims = [float(kn[l] @ kn[j]) for j in range(n)]
        candidates = sorted((j for j in range(n) if j != l), key=lambda j: (-sims[j], j))
        group = candidates[:knn_k]
        if include_self:
            group = [l] + group
        w = [float(attn[p]) for p in group]
        if normalize:
            total = sum(w)
            w = [x / total for x in w] if total > 0 else [1.0 / len(w)] * len(w)
        acc = np.zeros(y.shape[1])
        for weight, p in zip(w, group):
            acc += weight * y[p]
        rows.append(acc)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Self-test suite
# ---------------------------------------------------------------------------

def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _clustered_keys(rng, n, d, n_clusters):
    """Keys scattered around a few random centroids, so peer counts run high."""
    centroids = rng.standard_normal((n_clusters, d))
    return centroids[rng.integers(0, n_clusters, size=n)] + 0.3 * rng.standard_normal((n, d))


def _density_matches(keys, alpha, limit_k, count_self):
    cfg = DensityConfig(alpha=alpha, limit_k=limit_k, count_self=count_self)
    rep = compute_density(keys, cfg)
    n_red, mask = oracle_density(keys, alpha, limit_k, count_self)
    n = len(keys)
    return (rep.n_redundant == n_red and np.array_equal(rep.redundant_mask, mask)
            and rep.redundancy == n_red / n and rep.density == 1 - n_red / n)


def _density_equivalence(rng, n_instances):
    for t in range(n_instances):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        keys = rng.standard_normal((n, d))
        alpha = float(rng.uniform(-0.5, 0.95))
        limit_k = int(rng.integers(0, 8))
        count_self = bool(rng.integers(0, 2))
        if not _density_matches(keys, alpha, limit_k, count_self):
            return _check("density_oracle", False, f"mismatch at instance {t}")
    # N spans two BLOCK_ROWS row blocks and part of a third; clusters of ~27
    # tokens against limit_k=25 leave about half the tokens redundant.
    keys = _clustered_keys(rng, 2 * BLOCK_ROWS + 37, 16, 20)
    if not _density_matches(keys, 0.8, 25, False):
        return _check("density_oracle", False, "mismatch at the multi-block instance")
    # Clusters of ~180 tokens against limit_k=5: after the first block most
    # tokens have more than limit_k peers, so the later blocks skip their
    # pairs. ~30% are scattered further, so some of them count their peers
    # among the later tokens of a cluster only.
    keys = _clustered_keys(rng, 2 * BLOCK_ROWS + 37, 16, 3)
    loose = rng.random(len(keys)) < 0.3
    keys[loose] += 0.8 * rng.standard_normal((int(loose.sum()), 16))
    if not _density_matches(keys, 0.8, 5, False):
        return _check("density_oracle", False, "mismatch at the early-stop instance")
    return _check("density_oracle", True, f"{n_instances + 2} instances, exact match")


def _iqr_equivalence(rng, n_instances):
    cases = [np.full(8, 0.125), np.array([1.0, 1, 1, 1, 1, 1, 1, 10])]
    for t in range(n_instances):
        n = int(rng.integers(1, 129))
        cases.append(rng.uniform(0.0, 1.0, size=n) + 1e-9)
    for t, scores in enumerate(cases):
        got = global_select(scores).tolist()
        want = oracle_global_select(scores)
        if got != want:
            return _check("iqr_oracle", False, f"mismatch at instance {t}")
    return _check("iqr_oracle", True, f"{len(cases)} instances, exact match")


def _aggregation_equivalence(rng, n_instances):
    from .aggregation import AggregationConfig, aggregate

    for t in range(n_instances):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        tokens = rng.standard_normal((n, d))
        keys = rng.standard_normal((n, d))
        attn = rng.uniform(0.01, 1.0, size=n)
        knn_k = int(rng.integers(0, min(5, n)))
        n_ret = int(rng.integers(1, n + 1))
        retained = np.sort(rng.choice(n, size=n_ret, replace=False))
        include_self = bool(t % 2) or knn_k == 0
        cfg = AggregationConfig(knn_k=knn_k, include_self=include_self)
        got = aggregate(tokens, keys, attn, retained, cfg)
        want = oracle_aggregate(tokens, keys, attn, retained, knn_k, include_self)
        if not np.allclose(got, want, atol=1e-6, rtol=0):
            return _check("aggregation_oracle", False, f"mismatch at instance {t}")
    # More than BLOCK_ROWS retained rows, so aggregate runs two row blocks.
    n, d = BLOCK_ROWS + 37, 8
    tokens = rng.standard_normal((n, d))
    keys = _clustered_keys(rng, n, d, 6)
    attn = rng.uniform(0.01, 1.0, size=n)
    retained = np.sort(rng.choice(n, size=BLOCK_ROWS + 3, replace=False))
    got = aggregate(tokens, keys, attn, retained, AggregationConfig(knn_k=4))
    want = oracle_aggregate(tokens, keys, attn, retained, 4)
    if not np.allclose(got, want, atol=1e-6, rtol=0):
        return _check("aggregation_oracle", False, "mismatch at the multi-block instance")
    return _check("aggregation_oracle", True, f"{n_instances + 1} instances, within 1e-6")


def first_draw_frequency(weights, index, trials, seed=0):
    """Empirical frequency of drawing `index` first under m=1 sampling."""
    cfg = SelectionConfig(seed=seed)
    rng = np.random.default_rng(seed)
    attn = np.asarray(weights, dtype=np.float64)
    hits = sum(int(local_select(attn, 1, cfg, rng=rng)[0] == index) for _ in range(trials))
    return hits / trials


def chi2_sf(x, df):
    """Chi-square survival function P(X > x) for a finite x and an integer df >= 1.

    The regularized upper incomplete gamma Q(df/2, x/2) as its finite series:
    exp(-y) * sum y^a / a! over a = 0 .. df/2 - 1 for even df, and
    erfc(sqrt(y)) plus the same sum over a = 1/2 .. df/2 - 1 for odd df, with
    y = x/2. Each term is taken in log space, so large df neither overflows
    nor underflows before the sum.
    """
    if x <= 0:
        return 1.0
    y = x / 2.0
    a0 = (df % 2) / 2.0
    head = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    log_y = math.log(y)
    return head + math.fsum(math.exp((a0 + j) * log_y - y - math.lgamma(a0 + j + 1))
                            for j in range(df // 2))


def uniform_subset_chisquare(n, m, trials, seed=0):
    """Chi-square p-value for equal likelihood of all size-m subsets under uniform attention."""
    cfg = SelectionConfig(seed=seed)
    rng = np.random.default_rng(seed)
    attn = np.full(n, 1.0 / n)
    counts = Counter(tuple(local_select(attn, m, cfg, rng=rng).tolist()) for _ in range(trials))
    n_subsets = math.comb(n, m)
    observed = np.zeros(n_subsets)
    observed[: len(counts)] = list(counts.values())
    expected = trials / n_subsets
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return chi2, chi2_sf(chi2, n_subsets - 1)


def _sampling_checks(seed, first_draw_trials, subset_trials):
    freq = first_draw_frequency([0.7, 0.2, 0.1], 0, first_draw_trials, seed=seed)
    ok_freq = abs(freq - 0.7) <= 0.01
    chi2, p = uniform_subset_chisquare(5, 2, subset_trials, seed=seed)
    ok_chi = p > 0.001
    return [
        _check("sampling_first_draw", ok_freq, f"freq={freq:.4f} (target 0.70 +/- 0.01)"),
        _check("sampling_uniform_subsets", ok_chi, f"chi2={chi2:.2f}, p={p:.4f} (alpha=0.001)"),
    ]


def _random_baseline_marginal(seed, trials):
    # rho=2/3 with one 4-clone cluster and limit_k=2 gives density 1/3, so the
    # adaptive m at N=6 is 2; each index then has hypergeometric marginal 1/3.
    n, m = 6, 2
    bundle = generate(SyntheticSpec(n_tokens=n, dim=n, redundancy_fraction=2 / 3, seed=seed))
    d = compute_density(bundle.keys_low, DensityConfig(alpha=0.7, limit_k=2)).density
    hits = np.zeros(n)
    for t in range(trials):
        sel = baseline_select("random", bundle.attn_deep, bundle.attn_low, d,
                              SelectionConfig(seed=seed + t))
        assert sel.merged_indices.size == m
        hits[sel.merged_indices] += 1
    freqs = hits / trials
    dev = float(np.max(np.abs(freqs - m / n)))
    return _check("random_baseline_marginal", dev <= 0.01, f"max deviation {dev:.4f}")


def oracle_suite(seed=0, n_instances=200, first_draw_trials=100_000,
                 subset_trials=50_000, marginal_trials=30_000):
    """Run every oracle-equivalence and distribution check; returns a report list."""
    rng = np.random.default_rng(seed)
    report = [
        _density_equivalence(rng, n_instances),
        _iqr_equivalence(rng, n_instances),
        _aggregation_equivalence(rng, n_instances),
    ]
    report.extend(_sampling_checks(seed, first_draw_trials, subset_trials))
    report.append(_random_baseline_marginal(seed, marginal_trials))
    return report
