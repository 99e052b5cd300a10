import math
import sys

import numpy as np
import pytest

from polyperim.errors import DimensionTooHigh, InsufficientSamples, VolumeOutOfRange
from polyperim.profiles import (
    Profile,
    cone_profile,
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
    assert unit_ball_volume(435) >= sys.float_info.min
    for n in (436, 900, 3000):
        with pytest.raises(DimensionTooHigh):
            unit_ball_volume(n)


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


def test_sphere_caps_match_closed_forms():
    # S^2: a cap of area V has boundary length sqrt(V (4 pi - V)), from the
    # tiniest caps through the hemisphere to their complements
    total = 4 * math.pi
    for v in total * np.geomspace(1e-12, 0.5, 200):
        for cap in (v, total - v):
            exact = math.sqrt(cap * (total - cap))
            assert sphere_profile(2, cap) == pytest.approx(exact, rel=1e-13)
    # S^3: colatitude theta gives V = 2 pi (theta - sin theta cos theta) and
    # A = 4 pi sin^2 theta (kept off the poles, where V cancels)
    for theta in np.linspace(0.1, math.pi - 0.1, 50):
        cap = 2 * math.pi * (theta - math.sin(theta) * math.cos(theta))
        exact = 4 * math.pi * math.sin(theta) ** 2
        assert sphere_profile(3, cap) == pytest.approx(exact, rel=1e-12)


def test_profile_sampling_and_interpolation():
    prof = Profile.euclidean(2, 0.01, 10.0)
    assert prof.volumes[0] == 0.01 and prof.volumes[-1] == pytest.approx(10.0)
    assert len(prof.volumes) == 256
    assert np.allclose(prof.areas, 2 * np.sqrt(math.pi * prof.volumes), atol=1e-10)
    cap = Profile.sphere(2, 0.1, 4 * math.pi - 0.1, points=9)
    assert np.allclose(
        cap.areas, np.sqrt(cap.volumes * (4 * math.pi - cap.volumes)), rtol=1e-13
    )


def test_smaller_link_gives_smaller_profile():
    """A link below the full circle can only lower the profile."""
    for omega in (0.5, math.pi, 1.5 * math.pi, 2 * math.pi - 1e-3):
        for v in np.geomspace(0.01, 1.0, 64):
            assert cone_profile(omega, 2, v) < euclidean_profile(2, v)


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
