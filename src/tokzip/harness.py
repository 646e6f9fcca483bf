"""Synthetic bundles, baseline compressors, and independent oracles.

The oracles re-derive every checkable quantity from scratch (separate code,
no reuse of the main modules' kernels) so that equivalence tests actually
test something. They are exact: a cosine decision is screened on float64
products and made in Python integers when the product falls within a wide
margin of the threshold (oracle_margin), and the IQR fence is a Fraction.
The generator builds key matrices with a known redundancy structure:
clusters of near-identical vectors against mutually orthogonal unique
vectors, so the expected information density is known by construction.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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

# Rows per block product in oracle_density: one block's float64 products and
# masks take a few MiB at N = 2304, whatever the document.
ORACLE_BLOCK_ROWS = 64


def _unit_rows(keys):
    """float64 unit rows, each scaled by a power of two first, so that no square overflows."""
    k = np.array(keys, dtype=np.float64)  # the one N x D copy: scaled and divided in place
    _, e = np.frexp(np.maximum(k.max(axis=1), -k.min(axis=1)))
    np.ldexp(k, -e[:, None], out=k)
    k /= np.sqrt(np.einsum("ij,ij->i", k, k))[:, None]
    return k


def oracle_margin(d):
    """Width d 2^-40 of the band, around alpha or a k-th cosine, that the oracles decide exactly.

    It bounds |float64 dot product of two _unit_rows rows - exact cosine of
    the two keys| many times over. With u = 2^-53 and gamma_d = d u / (1 - d u):
    the power-of-two scaling is exact but for entries that become subnormal,
    each off by at most 2^-1075 in a row of norm at least 1/2, which moves a
    cosine by at most sqrt(d) 2^-1073. The sum of d squares, in any order, is
    off by a relative gamma_d, plus d 2^-1072 for squares that underflow; its
    square root and the division add one rounding each. So a unit entry is
    a_t / |a| (1 + rho_t) + eta_t with |rho_t| <= rho = gamma_d / 2 + 2u
    (+ d 2^-1073), to first order, and |eta_t| <= 2^-1075, and the exact dot
    product of two such rows is within 2 rho + rho^2 + sqrt(d) 2^-1073 of
    their cosine. The float64 dot product, in any summation order, with or
    without FMA, adds gamma_d (1 + rho)^2, plus d 2^-1074 for products and
    sums that underflow. The total is below (2d + 6) u + 16 d 2^-1074.
    d 2^-40 = 8192 d u covers it at least 1,000 times at d = 1 and about
    4,000 times from d = 100 on (9.3e-10 at d = 1024), and with it the
    float64 rounding of the screens' own differences, x - alpha and kth +- 2
    margin.
    """
    return d * 2.0**-40


def _exact_cosines(keys, i, j, rows):
    """sign(cos) cos^2 of each pair of key rows (keys[i[t]], keys[j[t]]), exactly.

    The rows are taken as given, in float64. Each becomes Python integers once
    per oracle call, cached in the dict `rows`: its entries' ratios scaled by
    their largest denominator, a power of two, which leaves every cosine as it
    is. sign(cos) cos^2 orders as the cosine does.
    """
    for r in set(i) | set(j):
        if r not in rows:
            ratios = [x.as_integer_ratio() for x in np.asarray(keys[r], dtype=np.float64).tolist()]
            scale = max(q for _, q in ratios)
            ints = [p * (scale // q) for p, q in ratios]
            rows[r] = ints, sum(map(mul, ints, ints))
    out = []
    for a, b in zip(i, j):
        x = sum(map(mul, rows[a][0], rows[b][0]))
        out.append(Fraction(x * abs(x), rows[a][1] * rows[b][1]))
    return out


def oracle_density(keys, alpha, limit_k, count_self=False):
    """Each row's peers above alpha, counted in full; returns (n_redundant, redundant_mask).

    Blocks of ORACLE_BLOCK_ROWS unit rows are multiplied in float64 with all N
    unit rows, and every pair, (i, j) and (j, i) alike, is decided on its own:
    by its float64 value when that is more than oracle_margin(d) from alpha,
    and otherwise exactly, by _exact_cosines against sign(alpha) alpha^2. No
    N x N matrix is formed: only one block of products and its masks at a time.
    """
    keys = np.asarray(keys)
    kn = _unit_rows(keys)
    n, margin = kn.shape[0], oracle_margin(kn.shape[1])
    a = Fraction(float(alpha))
    bar, rows = a * abs(a), {}
    mask = np.zeros(n, dtype=bool)
    for lo in range(0, n, ORACLE_BLOCK_ROWS):
        hi = min(lo + ORACLE_BLOCK_ROWS, n)
        sim = kn[lo:hi] @ kn.T
        similar = sim > alpha
        sim -= alpha
        near = ~(np.abs(sim, out=sim) > margin)
        if near.any():
            r, c = np.nonzero(near)
            exact = _exact_cosines(keys, (lo + r).tolist(), c.tolist(), rows)
            similar[r, c] = [x > bar for x in exact]
        if not count_self:
            similar[np.arange(hi - lo), np.arange(lo, hi)] = False
        mask[lo:hi] = np.count_nonzero(similar, axis=1) > limit_k
    return int(mask.sum()), mask


def oracle_global_select(scores, iqr_factor=1.5):
    """Indices whose score exceeds the exact upper fence Q3 + iqr_factor (Q3 - Q1).

    The quartiles interpolate between the sorted scores at p = q (n - 1)
    (type 7); they and the fence are Fractions of the float scores and of
    iqr_factor as a double, and each score is compared with the fence
    exactly. A fence beyond the float range keeps nothing.
    """
    x = [float(s) for s in scores]
    v = sorted(x)

    def q(frac):
        p = frac * (len(v) - 1)
        lo = math.floor(p)
        return Fraction(v[lo]) + (p - lo) * (Fraction(v[math.ceil(p)]) - Fraction(v[lo]))

    q1, q3 = q(Fraction(1, 4)), q(Fraction(3, 4))
    fence = q3 + Fraction(float(iqr_factor)) * (q3 - q1)
    return [i for i, s in enumerate(x) if s > fence]


def oracle_aggregate(tokens, keys, attn, retained, knn_k, include_self=True, normalize=True):
    """Each retained row's exact knn_k nearest neighbours and their weighted sum, in order.

    Row t of the result is for retained[t]. Each retained row's float64
    products with all N unit rows give its k-th largest, kth, among the
    other rows; every row more than 2 oracle_margin(d) above kth is a
    neighbour, every row more than that below it is not, and the rest fill
    the group's remaining places in (exact cosine desc, index asc) order,
    from _exact_cosines. The group's weights are summed explicitly, row by row.
    """
    y = np.asarray(tokens, dtype=np.float64)
    keys = np.asarray(keys)
    kn = _unit_rows(keys)
    n, margin = kn.shape[0], 2 * oracle_margin(kn.shape[1])
    k = min(knn_k, n - 1)
    rows, out = {}, []
    for l in (int(i) for i in retained):
        group = []
        if k:
            sims = kn @ kn[l]
            sims[l] = -np.inf
            kth = np.partition(sims, n - k)[n - k]
            above = np.flatnonzero(sims > kth + margin)
            band = np.flatnonzero(~(np.abs(sims - kth) > margin))
            group = above[np.lexsort((above, -sims[above]))].tolist()
            band = band[np.lexsort((band, -sims[band]))].tolist()
            if len(band) > k - len(group):
                exact = _exact_cosines(keys, [l] * len(band), band, rows)
                band = [b for _, b in sorted(zip([-x for x in exact], band))]
            group += band[: k - len(group)]
        if include_self:
            group = [l] + group
        w = [float(attn[p]) for p in group]
        if normalize:
            total = sum(w)
            w = [x / total for x in w] if total > 0 else [1.0 / len(w)] * len(w)
        acc = np.zeros(y.shape[1])
        for weight, p in zip(w, group):
            acc += weight * y[p]
        out.append(acc)
    return np.vstack(out)


# ---------------------------------------------------------------------------
# Self-test suite
# ---------------------------------------------------------------------------

def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def tie_keys_7_10():
    """60 keys [4, 2, 1, 0, .., 3, .., 0] whose every cosine is exactly 7/10.

    That is just above alpha = 0.7, a double below 7/10, and a float64 product
    rounds it either way, so at limit_k = 58 only an exact decision finds
    every row redundant.
    """
    keys = np.zeros((60, 63))
    keys[:, :3] = [4, 2, 1]
    keys[np.arange(60), 3 + np.arange(60)] = 3
    return keys


# Rows 6 and 9 both have cosine exactly 0 with row 0, and float64 gives them
# -2e-17 and 3e-17: at knn_k = 5, row 0's 5th neighbour is row 6, decided exactly.
TIE_KNN_KEYS = ((1, 2, 2, -3), (-2, -3, 0, 3), (2, 2, 2, -1), (3, -3, -3, -1), (0, -1, 0, 3),
                (0, -1, 1, -3), (3, 3, -3, 1), (3, -3, -2, -3), (3, 0, 3, -3), (1, 1, 0, 1),
                (-3, -3, 1, 2), (3, 2, 0, 3))

# Score lists whose exact IQR fence and its float64 evaluation fall on either
# side of a score, with the indices an exact fence keeps: the first fence is
# 0.80000000000000001665, just below the double 0.8.
IQR_TIES = (((0.8, 0.4, 0.3, 0.6, 0.5, 0.2, 0.4, 0.1, 0.3), [0]),
            ((0.4, 0.1, 0.4, 0.7), []))


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
    if not _density_matches(tie_keys_7_10(), 0.7, 58, False):
        return _check("density_oracle", False, "mismatch at the 7/10 tie")
    return _check("density_oracle", True,
                  f"{n_instances + 3} instances, exact match, the 7/10 tie decided exactly")


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
    for t, (scores, want) in enumerate(IQR_TIES):
        if global_select(scores).tolist() != want or oracle_global_select(scores) != want:
            return _check("iqr_oracle", False, f"mismatch at fence tie {t}")
    return _check("iqr_oracle", True, f"{len(cases) + len(IQR_TIES)} instances, exact match, "
                                      f"the {len(IQR_TIES)} fence ties decided exactly")


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
    keys = np.array(TIE_KNN_KEYS, dtype=np.float64)
    tokens, attn = rng.standard_normal((len(keys), 4)), rng.uniform(0.01, 1.0, size=len(keys))
    got = aggregate(tokens, keys, attn, [0], AggregationConfig(knn_k=5))
    if not np.allclose(got, oracle_aggregate(tokens, keys, attn, [0], 5), atol=1e-6, rtol=0):
        return _check("aggregation_oracle", False, "mismatch at the cosine-0 tie")
    return _check("aggregation_oracle", True,
                  f"{n_instances + 2} instances within 1e-6, the cosine-0 tie decided exactly")


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
