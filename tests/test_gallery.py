import math

import numpy as np
import pytest

from polyperim.errors import ProjectionDegenerate, ValidationError, VolumeOutOfRange
from polyperim.gallery import (
    SPIKE_MAX_HALF_ANGLE,
    cube_competitors,
    double_pyramid_report,
    modified_cube_faces,
    projection_area_of_triangle,
    spike_link_from_half_angle,
    spiked_cone_report,
    suspension_area,
    winner_crossovers,
)

#: where the vertex ball's perimeter sqrt(3 pi V) reaches the face collar's 4
VB_COLLAR = 16.0 / (3.0 * math.pi)


def test_competitors_small_volume():
    report = cube_competitors(0.1)
    assert report.winner.name == "vertex-ball"
    assert report.winner.perimeter == pytest.approx(
        math.sqrt(0.3 * math.pi), abs=1e-12
    )
    names = [e.name for e in report.entries]
    assert len(names) == 7 and len(set(names)) == 7
    assert "face-collar-complement" not in names
    flat = next(e for e in report.entries if e.name == "flat-disc")
    assert flat.valid and flat.perimeter == pytest.approx(
        math.sqrt(0.4 * math.pi), abs=1e-12
    )


def test_competitors_band_regime():
    report = cube_competitors(3.0)
    assert report.winner.name == "face-collar"
    assert report.winner.perimeter == 4.0
    band = next(e for e in report.entries if e.name == "band")
    assert band.valid and band.perimeter == 8.0
    assert not any(
        e.valid for e in report.entries if e.name.startswith("vertex-ball")
    )


def test_competitors_face_collar_range():
    for v, valid in ((0.99, False), (1.0, True), (5.0, True), (5.01, False)):
        collar = next(e for e in cube_competitors(v).entries if e.name == "face-collar")
        assert collar.valid == valid and collar.perimeter == 4.0


def test_competitors_complement_symmetry():
    for v, own_complement in ((0.3, False), (1.0, False), (2.0, True)):
        a = cube_competitors(v)
        b = cube_competitors(6.0 - v)
        if own_complement:
            assert a.winner.name == b.winner.name == "face-collar"
        else:
            assert b.winner.name == a.winner.name + "-complement"
        assert b.winner.perimeter == pytest.approx(a.winner.perimeter, abs=1e-12)


def test_competitors_domain():
    with pytest.raises(VolumeOutOfRange):
        cube_competitors(0.0)
    with pytest.raises(VolumeOutOfRange):
        cube_competitors(6.0)


def test_winner_crossovers_bracket_the_transitions():
    grid = np.linspace(0.2, 5.8, 113)
    crossings = winner_crossovers([cube_competitors(float(v)) for v in grid])
    assert len(crossings) == 2
    (lo1, hi1, from1, to1), (lo2, hi2, from2, to2) = crossings
    assert (from1, to1) == ("vertex-ball", "face-collar")
    assert (from2, to2) == ("face-collar", "vertex-ball-complement")
    assert lo1 < VB_COLLAR <= hi1
    assert lo2 < 6.0 - VB_COLLAR <= hi2


def test_double_pyramid_ratio_is_sqrt2():
    for theta in (0.3, 1.0, 2.5, 5.0):
        for vol in (0.01, 0.4):
            rep = double_pyramid_report(theta, vol)
            assert rep.ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)
            assert not rep.metric_ball_minimizing
            assert rep.one_sided_area == pytest.approx(
                math.sqrt(2 * theta * vol), abs=1e-12
            )


def test_double_pyramid_base_comparison():
    assert double_pyramid_report(0.5, 0.1, base_link=0.7).one_sided_beats_base
    assert not double_pyramid_report(0.9, 0.1, base_link=0.7).one_sided_beats_base
    assert double_pyramid_report(0.9, 0.1).one_sided_beats_base is None
    with pytest.raises(ValidationError):
        double_pyramid_report(0.0, 0.1)
    with pytest.raises(ValidationError):
        double_pyramid_report(2 * math.pi, 0.1)
    with pytest.raises(VolumeOutOfRange):
        double_pyramid_report(1.0, -0.5)


def test_projection_of_octant_triangle():
    area = projection_area_of_triangle([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert area == pytest.approx(math.pi / 2, abs=1e-15)


def test_projection_of_cube_about_origin_is_whole_sphere():
    h = 0.5
    squares = [
        [(-h, -h, -h), (h, -h, -h), (h, h, -h), (-h, h, -h)],
        [(-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h)],
        [(-h, -h, -h), (h, -h, -h), (h, -h, h), (-h, -h, h)],
        [(h, -h, -h), (h, h, -h), (h, h, h), (h, -h, h)],
        [(h, h, -h), (-h, h, -h), (-h, h, h), (h, h, h)],
        [(-h, h, -h), (-h, -h, -h), (-h, -h, h), (-h, h, h)],
    ]
    tris = []
    for sq in squares:
        p = np.asarray(sq, float)
        tris += [p[[0, 1, 2]], p[[0, 2, 3]]]
    total = sum(projection_area_of_triangle(*t) for t in tris)
    assert total == pytest.approx(4 * math.pi, abs=1e-12)


def test_projection_area_survives_rotation_into_r4():
    rng = np.random.default_rng(11)
    tri = rng.normal(size=(3, 3)) + 1.5
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lifted = np.column_stack([tri, np.zeros(3)]) @ rotation.T
    assert projection_area_of_triangle(*lifted) == pytest.approx(
        projection_area_of_triangle(*tri), abs=1e-12
    )


def test_projection_of_triangle_in_a_plane_through_the_center():
    # the plane z = 0 holds the center, the triangle misses it: an arc
    assert projection_area_of_triangle([1, 0, 0], [2, 1, 0], [2, -1, 0]) == 0.0


def test_projection_matches_spherical_cap():
    """Fan of a flat polygon at height 1 projects to a cap of known area."""
    radius = 0.75
    n = 192
    ang = 2 * math.pi * np.arange(n + 1) / n
    rim = np.stack(
        [radius * np.cos(ang), radius * np.sin(ang), np.ones(n + 1)], axis=1
    )
    tris = [np.stack([[0.0, 0.0, 1.0], rim[i], rim[i + 1]]) for i in range(n)]
    cap = 2 * math.pi * (1 - 1 / math.sqrt(1 + radius**2))
    assert sum(projection_area_of_triangle(*t) for t in tris) == pytest.approx(
        cap, rel=2e-3
    )


def test_projection_scale_invariance():
    rng = np.random.default_rng(4)
    tri = rng.normal(size=(3, 4)) + 2.0
    a = projection_area_of_triangle(*tri)
    b = projection_area_of_triangle(*(3.5 * tri))
    assert a == pytest.approx(b, rel=1e-12)


def test_projection_degenerate_inputs():
    with pytest.raises(ProjectionDegenerate):
        projection_area_of_triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
    with pytest.raises(ProjectionDegenerate):
        # plane through the origin with the origin interior
        projection_area_of_triangle(
            [1.0, 0, 0], [-0.5, 0.866, 0], [-0.5, -0.866, 0]
        )


def test_suspension_area_doubles_curve_length():
    for length in (0.1, 0.5, 1.0, 2 * math.pi):
        alpha = math.asin(length / (2 * math.pi))
        phi = 2 * math.pi * np.arange(1024) / 1024
        curve = np.stack(
            [
                np.full(1024, math.cos(alpha)),
                math.sin(alpha) * np.cos(phi),
                math.sin(alpha) * np.sin(phi),
            ],
            axis=1,
        )
        assert suspension_area(curve) == pytest.approx(2 * length, abs=1e-4)


def test_suspension_area_nonplanar_curve():
    phi = 2 * math.pi * np.arange(2048) / 2048
    raw = np.stack(
        [np.cos(phi), np.sin(phi), 0.3 * np.sin(3 * phi)], axis=1
    )
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    chord_length = float(
        np.linalg.norm(np.roll(unit, -1, axis=0) - unit, axis=1).sum()
    )
    assert suspension_area(unit) == pytest.approx(2 * chord_length, abs=1e-3)
    with pytest.raises(ValidationError):
        suspension_area(unit[:2])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_suspension_area_does_not_depend_on_the_curve_scale(scale):
    # the curve is normalized row by row; squaring 1e200 overflowed and
    # squaring 1e-200 underflowed to a zero row
    phi = 2 * math.pi * np.arange(64) / 64
    circle = np.stack([np.cos(phi), np.sin(phi), np.zeros(64)], axis=1)
    area = suspension_area(circle)
    assert area == pytest.approx(4 * math.pi, abs=0.02)
    assert suspension_area(scale * circle) == pytest.approx(area, rel=1e-14)


def test_spike_link_roundtrip():
    for theta_p in (0.1, 0.45, 1.5):
        alpha = theta_p / 3.0
        gamma = math.asin(2.0 * math.sin(alpha / 2.0) / math.sqrt(3.0))
        assert spike_link_from_half_angle(gamma) == pytest.approx(
            theta_p, abs=1e-12
        )
    with pytest.raises(ValidationError):
        spike_link_from_half_angle(0.0)
    with pytest.raises(ValidationError):
        spike_link_from_half_angle(math.pi / 2)
    # from asin(1/sqrt(3)) on the link reaches pi, which spiked_cone_report
    # rejects: 40 degrees would give a link of about 3.54
    for gamma in (SPIKE_MAX_HALF_ANGLE, math.radians(40.0)):
        with pytest.raises(ValidationError):
            spike_link_from_half_angle(gamma)
    # a few ulps below the bound rounding lifts the link to pi; those
    # half-angles are rejected too, so every accepted link is below pi
    links, gamma = [], SPIKE_MAX_HALF_ANGLE
    for _ in range(8):
        gamma = math.nextafter(gamma, 0.0)
        try:
            links.append(spike_link_from_half_angle(gamma))
        except ValidationError:
            pass
    assert links and max(links) < math.pi


def test_modified_cube_faces_area_budget():
    rho, spike = 0.2, 1.5
    added, base = modified_cube_faces(rho, spike)
    assert len(added) == 15
    assert all(f.shape == (3, 4) for f in added + [base])
    assert all(np.allclose(f[:, 3], 1.0) for f in added + [base])

    def flat_area(f):
        v = f[:, :3]
        return 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))

    total = sum(flat_area(f) for f in added) - flat_area(base)
    side = rho * math.sqrt(3.0)
    slant = math.sqrt(spike**2 + (rho / 2.0) ** 2)
    expected = (
        5.0
        + (1.0 - (3.0 * math.sqrt(3.0) / 4.0) * rho**2)
        + 3.0 * 0.5 * side * slant
    )
    assert total == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValidationError):
        modified_cube_faces(0.5, 1.0)


def test_spiked_cone_report_small_half_angle():
    theta_p = spike_link_from_half_angle(math.radians(5.0))
    rep = spiked_cone_report(theta_p)
    assert rep.q_link == pytest.approx(2 * theta_p, abs=1e-12)
    assert rep.q_wins
    assert rep.q_link < rep.apex_link
    assert rep.apex_link > 4.0  # nearly the full cube link survives
    assert rep.hypercube_link == pytest.approx(2 * math.pi, abs=1e-12)
    assert rep.q_perimeter < rep.apex_perimeter
    with pytest.raises(ValidationError):
        spiked_cone_report(0.0)
    with pytest.raises(ValidationError):
        spiked_cone_report(math.pi)


@pytest.mark.parametrize(
    "degrees, limit",
    # Richardson limits of the earlier centroid quadrature (64 and 128
    # subdivisions per face), independent of the closed form
    [(5.0, 4.480344826), (3.0, 4.313629015), (1.0, 4.122926385)],
)
def test_spiked_cone_apex_link_is_exact(degrees, limit):
    rep = spiked_cone_report(spike_link_from_half_angle(math.radians(degrees)))
    assert rep.apex_link == pytest.approx(limit, abs=1e-8)
    assert rep.q_wins
