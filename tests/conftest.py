import numpy as np
import pytest

from tokzip import DensityConfig, SelectionConfig, SyntheticSpec, generate


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _lattice_keys(rng, n, d=16):
    """Copies of about n/8 rows, each with four entries of +-1.

    Cosines are then exact multiples of 1/4, so copies tie exactly and a
    threshold like alpha=0.5 is decided without rounding. Copies of gaussian
    rows would not tie: BLAS rounds their dot products differently column by
    column, and differently per kernel and thread count.
    """
    base = np.zeros((max(1, n // 8), d))
    for row in base:
        row[rng.choice(d, size=4, replace=False)] = rng.choice([-1.0, 1.0], size=4)
    return base[rng.integers(0, len(base), size=n)]


@pytest.fixture
def lattice_keys():
    return _lattice_keys


@pytest.fixture
def clone_bundle():
    """16 tokens: one 12-clone cluster plus 4 near-orthogonal uniques,
    attention concentrated on the unique quarter."""
    return generate(
        SyntheticSpec(
            n_tokens=16,
            dim=24,
            redundancy_fraction=0.75,
            attention_profile="concentrated",
            seed=7,
        )
    )


@pytest.fixture
def clone_density_cfg():
    # limit_k below the clone peer count (11) so exactly the clones trip it
    return DensityConfig(alpha=0.7, limit_k=3)


@pytest.fixture
def selection_cfg():
    return SelectionConfig(seed=0)
