import math

import numpy as np
import pytest

from polyperim.errors import GridMismatch, InsufficientSamples, VolumeOutOfRange
from polyperim.profiles import (
    Profile,
    cone_profile,
    dominates,
    euclidean_profile,
    fit_power_law,
    sphere_measure,
    sphere_profile,
    unit_ball_volume,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-15)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, abs=1e-15)


def test_sphere_measures():
    assert sphere_measure(1) == pytest.approx(2 * math.pi, abs=1e-15)
    assert sphere_measure(2) == pytest.approx(4 * math.pi, abs=1e-15)
    assert sphere_measure(3) == pytest.approx(2 * math.pi**2, abs=1e-15)


def test_euclidean_closed_forms():
    assert euclidean_profile(2, 1.0) == pytest.approx(2 * math.sqrt(math.pi), abs=1e-12)
    for v in (0.1, 1.0, 7.3):
        assert euclidean_profile(2, v) == pytest.approx(
            2 * math.sqrt(math.pi * v), abs=1e-12
        )
        assert euclidean_profile(3, v) == pytest.approx(
            (36 * math.pi) ** (1 / 3) * v ** (2 / 3), abs=1e-12
        )
    with pytest.raises(VolumeOutOfRange):
        euclidean_profile(3, 0.0)


def test_cone_profile_with_full_link_is_flat():
    """omega = |S^(n-1)| must reproduce round balls exactly."""
    for n in (2, 3, 4):
        omega = sphere_measure(n - 1)
        for v in np.geomspace(1e-3, 5.0, 64):
            assert cone_profile(omega, n, v) == pytest.approx(
                euclidean_profile(n, v), abs=1e-12
            )


def test_cone_profile_values_and_guards():
    # cube-corner link: A = sqrt(3 pi V)
    assert cone_profile(1.5 * math.pi, 2, 0.04) == pytest.approx(
        math.sqrt(3 * math.pi * 0.04), abs=1e-12
    )
    with pytest.raises(ValueError):
        cone_profile(7.0, 2, 1.0)  # exceeds |S^1|
    with pytest.raises(ValueError):
        cone_profile(-1.0, 2, 1.0)
    with pytest.raises(VolumeOutOfRange):
        cone_profile(math.pi, 2, 0.0)


def test_sphere_hemisphere_and_symmetry():
    # hemisphere of S^2 has volume 2 pi and boundary the equator, length 2 pi
    assert sphere_profile(2, 2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-9)
    for v in (0.5, 1.0, 2.0):
        a = sphere_profile(2, v)
        b = sphere_profile(2, 4 * math.pi - v)
        assert a == pytest.approx(b, abs=1e-8)
    with pytest.raises(VolumeOutOfRange):
        sphere_profile(2, 4 * math.pi)
    with pytest.raises(VolumeOutOfRange):
        sphere_profile(2, 0.0)


def test_sphere_small_caps_look_euclidean():
    for v in (1e-6, 1e-5):
        assert sphere_profile(2, v) == pytest.approx(
            euclidean_profile(2, v), rel=1e-3
        )


def test_profile_sampling_and_interpolation():
    prof = Profile.euclidean(2, 0.01, 10.0)
    grid = np.geomspace(0.02, 9.0, 17)
    assert np.allclose(prof.evaluate(grid), 2 * np.sqrt(math.pi * grid), atol=1e-10)
    sampled_only = Profile(2, prof.volumes, prof.areas)
    assert np.allclose(
        sampled_only.evaluate(grid), 2 * np.sqrt(math.pi * grid), rtol=1e-5
    )
    with pytest.raises(GridMismatch):
        sampled_only.evaluate([20.0])


def test_dominates_cone_under_euclidean():
    """A smaller link can only lower the profile."""
    flat = Profile.euclidean(2, 0.01, 1.0)
    corner = Profile.cone(1.5 * math.pi, 2, 0.01, 1.0)
    res = dominates(flat, corner)
    assert res.holds
    assert res.min_margin >= 0.0
    rev = dominates(corner, flat)
    assert not rev.holds
    assert rev.min_margin < -1e-3


def test_dominates_is_reflexive_within_slack():
    prof = Profile.cone(math.pi, 2, 0.05, 0.5)
    res = dominates(prof, prof)
    assert res.holds
    assert res.min_margin == pytest.approx(0.0, abs=1e-15)


def test_dominates_dimension_mismatch():
    with pytest.raises(GridMismatch):
        dominates(Profile.euclidean(2, 0.1, 1.0), Profile.euclidean(3, 0.1, 1.0))
    with pytest.raises(GridMismatch):
        dominates(
            Profile.euclidean(2, 0.1, 1.0), Profile.euclidean(2, 5.0, 9.0)
        )


def test_fit_power_law_recovers_exact_data():
    v = np.geomspace(0.01, 2.0, 24)
    a = 1.7 * v**0.66
    fit = fit_power_law(v, a)
    assert fit.coefficient == pytest.approx(1.7, rel=1e-12)
    assert fit.exponent == pytest.approx(0.66, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_power_law_guards():
    v = np.geomspace(0.1, 5.0, 12)
    with pytest.raises(InsufficientSamples):
        fit_power_law(v[:4], v[:4])
    with pytest.raises(InsufficientSamples):
        fit_power_law(np.linspace(1.0, 2.0, 12), np.ones(12))  # < one decade
    with pytest.raises(InsufficientSamples):
        fit_power_law(v, -np.ones(12))


def test_profile_rejects_unsorted_volumes():
    with pytest.raises(ValueError):
        Profile(2, np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
