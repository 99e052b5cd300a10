import math
import sys

import numpy as np
import pytest

from polyperim import shapes
from polyperim.errors import (
    DimensionTooHigh,
    InsufficientSamples,
    InvalidPolytope,
    UnsupportedDimension,
    ValidationError,
    VolumeOutOfRange,
)
from polyperim.gallery import double_pyramid_report, spiked_cone_report, suspension_area
from polyperim.polytope import Polytope
from polyperim.profiles import (
    MAX_GRID_POINTS,
    cone_profile,
    euclidean_profile,
    fit_power_law,
    sphere_measure,
    sphere_profile,
    unit_ball_volume,
    volume_grid,
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


@pytest.mark.parametrize("volume", [1e-300, 1e-3, 0.5, 1.0, 7.3, 1e300])
def test_one_dimensional_profiles_are_exact_constants(volume):
    # a 1-ball has two boundary points, and an apex ball on a 1-cone as
    # many as the link measures
    assert euclidean_profile(1, volume) == 2.0
    for omega in (0.25, 1.0, 1.7, 2.0):
        assert cone_profile(omega, 1, volume) == omega


def test_cone_profile_with_full_link_is_flat():
    """omega = |S^(n-1)| must reproduce round balls exactly."""
    for n in (2, 3, 4):
        omega = sphere_measure(n - 1)
        for v in np.geomspace(1e-3, 5.0, 64):
            assert cone_profile(omega, n, v) == pytest.approx(
                euclidean_profile(n, v), abs=1e-12
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit_ball_volume(-1),
        lambda: sphere_measure(-1),
        lambda: euclidean_profile(0, 1.0),
        lambda: cone_profile(1.0, 0, 1.0),
        lambda: sphere_profile(0, 1.0),
    ],
    ids=["unit-ball", "sphere-measure", "euclidean", "cone", "sphere"],
)
def test_a_dimension_below_the_range_is_unsupported(call):
    with pytest.raises(UnsupportedDimension):
        call()


def test_cone_profile_values_and_guards():
    # cube-corner link: A = sqrt(3 pi V)
    assert cone_profile(1.5 * math.pi, 2, 0.04) == pytest.approx(
        math.sqrt(3 * math.pi * 0.04), abs=1e-12
    )
    with pytest.raises(ValidationError):
        cone_profile(7.0, 2, 1.0)  # exceeds |S^1|
    with pytest.raises(ValidationError):
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
    volumes = volume_grid(0.01, 10.0, 256)
    assert volumes[0] == 0.01 and volumes[-1] == pytest.approx(10.0)
    assert len(volumes) == 256
    areas = np.array([euclidean_profile(2, v) for v in volumes])
    assert np.allclose(areas, 2 * np.sqrt(math.pi * volumes), atol=1e-10)
    caps = volume_grid(0.1, 4 * math.pi - 0.1, 9)
    areas = np.array([sphere_profile(2, v) for v in caps])
    assert np.allclose(areas, np.sqrt(caps * (4 * math.pi - caps)), rtol=1e-13)


def test_volume_grid_holds_at_most_max_grid_points():
    assert len(volume_grid(0.1, 1.0, MAX_GRID_POINTS)) == MAX_GRID_POINTS
    for points in (0, MAX_GRID_POINTS + 1):
        with pytest.raises(ValidationError, match=f"got {points}$"):
            volume_grid(0.1, 1.0, points)


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
    with pytest.raises(InsufficientSamples, match="matching 1-d"):
        fit_power_law(v, v[:-1])


def _with(array, index, value):
    array = np.array(array, dtype=float)
    array[index] = value
    return array


_V = np.geomspace(0.1, 5.0, 12)
_CUBE = shapes.cube().vertices
_CURVE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: fit_power_law(_V, _with(_V, 3, math.nan)), InsufficientSamples,
                     id="fit-nan-area"),
        pytest.param(lambda: fit_power_law(_with(_V, 3, math.nan), _V), InsufficientSamples,
                     id="fit-nan-volume"),
        pytest.param(lambda: fit_power_law(_with(_V, 11, math.inf), _V), InsufficientSamples,
                     id="fit-inf-volume"),
        pytest.param(lambda: fit_power_law(_V, _with(_V, 11, math.inf)), InsufficientSamples,
                     id="fit-inf-area"),
        pytest.param(lambda: euclidean_profile(2, math.nan), VolumeOutOfRange,
                     id="euclidean-nan"),
        pytest.param(lambda: euclidean_profile(2, math.inf), VolumeOutOfRange,
                     id="euclidean-inf"),
        pytest.param(lambda: euclidean_profile(1, math.nan), VolumeOutOfRange,
                     id="euclidean-1d-nan"),
        pytest.param(lambda: Polytope.from_vertices(_with(_CUBE, (2, 1), math.nan)),
                     InvalidPolytope, id="vertices-nan"),
        pytest.param(lambda: Polytope.from_vertices(_with(_CUBE, (5, 0), -math.inf)),
                     InvalidPolytope, id="vertices-inf"),
        pytest.param(lambda: suspension_area(_with(_CURVE, 1, math.nan)), ValidationError,
                     id="suspension-nan"),
        pytest.param(lambda: suspension_area(_with(_CURVE, (2, 2), math.inf)), ValidationError,
                     id="suspension-inf"),
        pytest.param(lambda: suspension_area(_with(_CURVE, 1, 0.0)), ValidationError,
                     id="suspension-zero"),
    ],
)
def test_non_finite_inputs_end_in_a_documented_error(call, error, capfd):
    """Each of these returned NaN or inf, raised a RuntimeWarning or a bare
    LAPACK or scipy error, or printed to stderr."""
    # a profile names the open interval its volume must lie in
    with pytest.raises(error, match=r"finite|must be in \(0\.0, inf\)"):
        call()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: cone_profile(4.7, 2, 1.7e308), id="cone"),
        pytest.param(lambda: cone_profile(4.7, 2, np.float64(1.7e308)), id="cone-numpy"),
        pytest.param(lambda: cone_profile(1.0, 3, 1e308), id="cone-n3"),
        pytest.param(lambda: spiked_cone_report(0.45, reference_volume=1.7e308),
                     id="spiked-cone"),
        pytest.param(lambda: double_pyramid_report(6.0, 1.7e308), id="double-pyramid"),
        pytest.param(lambda: double_pyramid_report(1.0, 1e308), id="double-pyramid-glued"),
    ],
)
def test_overflowing_perimeters_end_in_a_documented_error(call, capfd):
    """Each of these returned inf or nan, with a RuntimeWarning for numpy
    volumes."""
    with pytest.raises(VolumeOutOfRange, match="overflows"):
        call()
    assert capfd.readouterr().err == ""


def test_perimeters_just_below_overflow_are_finite():
    assert cone_profile(4.7, 2, 8.9e307) == pytest.approx(math.sqrt(4.7) * math.sqrt(1.78e308))
    report = double_pyramid_report(1.0, 4e307)
    assert math.isfinite(report.glued_ball_area) and report.ratio == pytest.approx(math.sqrt(2))


def test_profile_rejects_unsorted_volumes():
    # geomspace repeats 1.0 between two adjacent floats
    with pytest.raises(ValidationError, match="--vmin 1.0 and --vmax 1.0000000000000002 .* --points 3"):
        volume_grid(1.0, 1.0000000000000002, 3)
