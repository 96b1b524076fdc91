"""Gaussian scale mixtures over station size: moments, distances, modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from urnstats.mixture import (
    GaussianComponent,
    SizeMeasure,
    gaussian_sum_modes,
    kolmogorov_gaussian_distance,
    mixture_cdf,
    mixture_density,
    mixture_moments,
)


# ---------------------------------------------------------------- measures


def test_size_measure_validation():
    with pytest.raises(ValueError):
        SizeMeasure({0: 1.0})
    with pytest.raises(ValueError):
        SizeMeasure({10: -1.0})
    with pytest.raises(ValueError):
        SizeMeasure({10: 2.0}, normalized=True)


def test_normalize():
    mu = SizeMeasure({10: 1.0, 40: 3.0}).normalize()
    assert mu.normalized
    assert mu.atoms == {10: 0.25, 40: 0.75}
    assert mu.total() == pytest.approx(1.0)


def test_normalize_empty_measure_raises():
    with pytest.raises(ValueError, match="empty"):
        SizeMeasure({}).normalize()


def test_sizes_and_weights_are_sorted_together():
    mu = SizeMeasure({40: 3.0, 10: 1.0})
    assert mu.sizes().tolist() == [10, 40]
    assert mu.weights().tolist() == [1.0, 3.0]


# ---------------------------------------------------------------- density/cdf


def test_density_requires_normalized_measure():
    with pytest.raises(ValueError, match="normalized"):
        mixture_density(SizeMeasure({10: 2.0}), 0.5, 0.5)


def test_p_must_be_interior():
    mu = SizeMeasure({10: 1.0}, normalized=True)
    for p in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            mixture_density(mu, p, 0.5)


def test_density_closed_form_at_half():
    # single atom n at p = 1/2: density(x) = sqrt(2n/pi) * exp(-2n (x-1/2)^2)
    for n in (10, 100, 3000):
        mu = SizeMeasure({n: 1.0}, normalized=True)
        for x in (0.5, 0.52, 0.4):
            expected = math.sqrt(2 * n / math.pi) * math.exp(-2 * n * (x - 0.5) ** 2)
            assert mixture_density(mu, 0.5, x) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(5, 5000), st.floats(0.1, 10.0), min_size=1, max_size=100),
    st.floats(0.1, 0.9),
)
def test_density_integrates_to_one(atoms, p):
    mu = SizeMeasure(atoms).normalize()
    smax = math.sqrt(p * (1 - p) / min(atoms))
    xs = np.linspace(p - 10 * smax, p + 10 * smax, 20001)
    integral = np.trapezoid(mixture_density(mu, p, xs), xs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_cdf_monotone_and_normalized():
    mu = SizeMeasure({100: 0.5, 400: 0.5}, normalized=True)
    xs = np.linspace(0.2, 0.8, 501)
    cdf = mixture_cdf(mu, 0.5, xs)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[0] == pytest.approx(0.0, abs=1e-9)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- moments


def test_single_atom_is_gaussian():
    for n in (10, 100, 3000):
        mu = SizeMeasure({n: 1.0}, normalized=True)
        mean, var, excess = mixture_moments(mu, 0.5)
        assert mean == 0.5
        assert var == pytest.approx(0.25 / n, rel=1e-12)
        assert abs(excess) <= 1e-10


def test_two_point_excess_kurtosis_exact():
    mu = SizeMeasure({100: 0.5, 400: 0.5}, normalized=True)
    _, _, excess = mixture_moments(mu, 0.5)
    # 3 E[s^4]/E[s^2]^2 - 3 with s^2 proportional to 1/n: 3*17/12.5 - 3 = 1.08
    assert excess == pytest.approx(1.08, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(2, 5000), st.floats(0.05, 5.0), min_size=1, max_size=20),
    st.floats(0.05, 0.95),
)
def test_excess_kurtosis_nonnegative(atoms, p):
    mu = SizeMeasure(atoms).normalize()
    _, _, excess = mixture_moments(mu, p)
    assert excess >= -1e-12
    if len(atoms) == 1:
        assert abs(excess) <= 1e-10


# ---------------------------------------------------------------- distance


def test_kolmogorov_distance_single_vs_mixture():
    for n in (10, 100, 3000):
        mu = SizeMeasure({n: 1.0}, normalized=True)
        assert kolmogorov_gaussian_distance(mu, 0.5) < 1e-6
    two = SizeMeasure({100: 0.5, 400: 0.5}, normalized=True)
    assert kolmogorov_gaussian_distance(two, 0.5) > 1e-3


@pytest.mark.parametrize("p", [0.3, 0.5, 0.77])
@pytest.mark.parametrize("grid_points", [1, 255, 256, 257, 4001])
def test_kolmogorov_distance_in_blocks_equals_whole_grid(p, grid_points):
    """The grid is evaluated a block of points at a time; the maximum over
    the blocks is bit for bit the maximum over one (points, atoms) array."""
    rng = np.random.default_rng(7)
    sizes = np.unique(rng.integers(10, 3000, 500))
    mu = SizeMeasure(dict(zip(sizes.tolist(), rng.random(len(sizes)).tolist()))).normalize()
    _, var, _ = mixture_moments(mu, p)
    smax = math.sqrt(p * (1 - p) / sizes.min())
    xs = np.linspace(p - 10.0 * smax, p + 10.0 * smax, grid_points)
    whole = np.max(np.abs(mixture_cdf(mu, p, xs) - norm.cdf((xs - p) / math.sqrt(var))))
    assert kolmogorov_gaussian_distance(mu, p, grid_points) == float(whole)


# ---------------------------------------------------------------- modes


def test_single_component_single_mode():
    res = gaussian_sum_modes([GaussianComponent(1.0, 0.5, 0.05)], grid_step=0.001)
    assert res.mode_count == 1
    assert res.mode_locations[0] == pytest.approx(0.5, abs=0.002)


def test_separated_components_two_modes():
    comps = [GaussianComponent(1.0, 0.3, 0.02), GaussianComponent(1.0, 0.7, 0.02)]
    res = gaussian_sum_modes(comps, grid_step=0.001)
    assert res.mode_count == 2
    assert res.mode_locations[0] == pytest.approx(0.3, abs=0.005)
    assert res.mode_locations[1] == pytest.approx(0.7, abs=0.005)


def test_overlapping_components_merge_to_one_mode():
    comps = [GaussianComponent(1.0, 0.50, 0.1), GaussianComponent(1.0, 0.52, 0.1)]
    res = gaussian_sum_modes(comps, grid_step=0.005)
    assert res.mode_count == 1


def test_mode_weight_scaling_invariance():
    comps = [GaussianComponent(1.0, 0.3, 0.02), GaussianComponent(0.5, 0.7, 0.03)]
    base = gaussian_sum_modes(comps, grid_step=0.001)
    scaled = gaussian_sum_modes(
        [GaussianComponent(c.weight * 37.0, c.mean, c.sigma) for c in comps],
        grid_step=0.001,
    )
    assert scaled.mode_count == base.mode_count
    assert scaled.mode_locations == base.mode_locations


def test_mode_grid_validation():
    with pytest.raises(ValueError, match="at least one"):
        gaussian_sum_modes([], grid_step=0.001)
    with pytest.raises(ValueError, match="too coarse"):
        gaussian_sum_modes([GaussianComponent(1.0, 0.5, 0.01)], grid_step=0.01)


def test_component_validation():
    with pytest.raises(ValueError):
        GaussianComponent(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        GaussianComponent(0.0, 0.5, 0.1)
