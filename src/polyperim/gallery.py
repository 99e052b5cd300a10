"""Analytic competitor families and the counterexample gallery.

Three exhibits:

* ``cube_competitors`` — closed-form competitor families on the unit-cube
  surface (total area 6): vertex balls, flat discs (interior or across an
  edge, which unfolds flat), bands around four faces, one face plus a
  collar on its four neighbours, and the complements of the first three
  (the face-collar family is its own complement).  Among these families,
  winners over a volume grid locate the crossovers from vertex balls to
  face collars at V = 16/(3 pi) and from face collars to vertex-ball
  complements at V = 6 - 16/(3 pi).  The list leaves out the regions about
  one edge (L^2 = 2 pi (V + 1/2)), which beat the vertex ball from V = 1
  on, so V = 16/(3 pi) is not the cube's first crossover (ROADMAP item 17).

* ``double_pyramid_report`` — two skinny cones glued at their apices.  A
  metric ball about the glued point (link 2*theta) costs sqrt(2) times the
  one-sided ball living in a single cone (link theta), for every theta and
  volume: metric vertex balls are not minimizing there.

* ``spiked_cone_report`` — a cube surface at height x4 = 1 whose top face
  is surmounted by a tall skinny spike with apex link theta_p.  A point q
  on the ray over the spike apex has link 2*theta_p (spherical suspension
  doubles length), while the cone point 0 has link |K-hat|, the area of the
  radial projection of the modified cube surface to S^3.  q undercuts 0
  exactly when 2*theta_p < |K-hat|.

The projection areas are exact.  The radial projection of a flat triangle
(a, b, c) is a geodesic triangle on the great 2-sphere of span{a, b, c},
and its area is the solid angle of the cone over (a, b, c): written in an
orthonormal basis of that span, it is ``tet_solid_angle``'s arctangent
formula.  The projection is one-to-one on each flat face, so area adds up
over a face's pieces, and the top face minus the spike base costs
Omega(top square) - Omega(base triangle) with no triangulation of the
annulus between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionDegenerate, ValidationError, VolumeOutOfRange, checked_real
from .profiles import cone_profile

CUBE_SURFACE_AREA = 6.0
ORIGIN_TOL = 1e-9
SUSPENSION_NODES = 64  # Gauss-Legendre nodes in the suspension parameter s
CUBE_LIFT = 1.0  # x4 of the spiked cube's hyperplane


# ---------------------------------------------------------------------------
# cube competitor families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompetitorEntry:
    name: str
    perimeter: float
    valid: bool


@dataclass(frozen=True)
class CompetitorReport:
    volume: float
    entries: tuple[CompetitorEntry, ...]
    winner: CompetitorEntry


_FAMILIES = (
    # name, perimeter(V), validity(V), its own complement
    ("vertex-ball", lambda v: math.sqrt(3.0 * math.pi * v),
     lambda v: v <= 3.0 * math.pi / 4.0, False),
    ("flat-disc", lambda v: math.sqrt(4.0 * math.pi * v),
     lambda v: v <= math.pi / 4.0, False),
    ("band", lambda v: 8.0, lambda v: 0.0 < v < 4.0, False),
    # a face and a collar of height (V - 1) / 4 on its neighbours, cut off by
    # a unit-square loop; the rest is the opposite face with a collar
    ("face-collar", lambda v: 4.0, lambda v: 1.0 <= v <= 5.0, True),
)


def cube_competitors(volume: float) -> CompetitorReport:
    """Evaluate the analytic families at one volume on the unit cube."""
    volume = checked_real(volume, "volume", 0.0, CUBE_SURFACE_AREA, VolumeOutOfRange)
    co_volume = CUBE_SURFACE_AREA - volume
    entries = [CompetitorEntry(name, area(volume), valid(volume))
               for name, area, valid, _ in _FAMILIES]
    entries += [
        CompetitorEntry(name + "-complement", area(co_volume), valid(co_volume))
        for name, area, valid, own_complement in _FAMILIES if not own_complement
    ]
    winner = min((e for e in entries if e.valid), key=lambda e: e.perimeter)
    return CompetitorReport(volume=volume, entries=tuple(entries), winner=winner)


def winner_crossovers(reports: list[CompetitorReport]) -> list[tuple[float, float, str, str]]:
    """Volume brackets where the winning family changes between grid points."""
    out = []
    for a, b in zip(reports, reports[1:]):
        if a.winner.name != b.winner.name:
            out.append((a.volume, b.volume, a.winner.name, b.winner.name))
    return out


# ---------------------------------------------------------------------------
# double pyramid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublePyramidReport:
    theta: float
    volume: float
    one_sided_area: float
    glued_ball_area: float
    ratio: float
    metric_ball_minimizing: bool
    base_link: float | None
    one_sided_beats_base: bool | None


def double_pyramid_report(
    theta: float, volume: float, base_link: float | None = None
) -> DoublePyramidReport:
    """Compare the one-sided ball with the metric ball at the glued apex.

    The glued point has link 2*theta, so its metric ball costs
    sqrt(2*(2*theta)*V) = sqrt(2) * sqrt(2*theta*V): the ratio is sqrt(2)
    independent of theta and V, and the metric vertex ball is never
    minimizing.  Optionally also compares against a ball at a base vertex
    of link ``base_link``.
    """
    theta = checked_real(theta, "theta", 0.0, 2.0 * math.pi - 1e-9)
    if base_link is not None:
        base_link = checked_real(base_link, "base_link", 0.0, 2.0 * math.pi)
    volume = checked_real(volume, "volume", 0.0, error=VolumeOutOfRange)
    one_sided = math.sqrt(2.0 * theta * volume)
    if one_sided == 0.0:
        raise VolumeOutOfRange(f"theta * volume = {theta} * {volume} underflows")
    glued = math.sqrt(4.0 * theta * volume)
    if glued == math.inf:
        raise VolumeOutOfRange(f"theta * volume = {theta} * {volume} overflows")
    beats = None if base_link is None else theta < base_link
    return DoublePyramidReport(
        theta=theta,
        volume=volume,
        one_sided_area=one_sided,
        glued_ball_area=glued,
        ratio=glued / one_sided,
        metric_ball_minimizing=False,
        base_link=base_link,
        one_sided_beats_base=beats,
    )


# ---------------------------------------------------------------------------
# radial projection to S^3
# ---------------------------------------------------------------------------

def _wedge_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a ^ b| for batches of vectors in any ambient dimension."""
    aa = np.einsum("...i,...i->...", a, a)
    bb = np.einsum("...i,...i->...", b, b)
    ab = np.einsum("...i,...i->...", a, b)
    return np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))


def tet_solid_angle(a, b, c) -> float:
    """Solid angle of the trihedral cone spanned by three rays.

    Arctangent form: with unit rays, ``tan(omega/2) = |det[a b c]| /
    (1 + a.b + a.c + b.c)``, evaluated with atan2 so flat and wide cones are
    handled without branching.
    """
    a, b, c = (np.asarray(x, float) / np.linalg.norm(x) for x in (a, b, c))
    num = abs(float(np.linalg.det(np.stack([a, b, c]))))
    den = 1.0 + float(a @ b) + float(a @ c) + float(b @ c)
    return 2.0 * math.atan2(num, den)


def projection_area_of_triangle(a, b, c) -> float:
    """Spherical area of the radial projection of a flat triangle.

    The solid angle of the cone over (a, b, c), with the rays written in an
    orthonormal basis of their span.  A triangle whose plane passes through
    the center, but not the triangle itself, projects to an arc of area 0.
    """
    rays = np.array([a, b, c], dtype=float)
    norms = np.linalg.norm(rays, axis=1)
    if norms.min() < ORIGIN_TOL:
        raise ProjectionDegenerate("face vertex at the projection center")
    # the columns of coords are the unit rays in that orthonormal basis
    _, coords = np.linalg.qr((rays / norms[:, None]).T)
    gram = coords.T @ coords
    if (
        abs(np.linalg.det(coords)) < ORIGIN_TOL
        and 1.0 + gram[0, 1] + gram[0, 2] + gram[1, 2] <= 0.0
    ):
        # dependent rays around the center: tet_solid_angle would read 2*pi
        raise ProjectionDegenerate("face passes through the projection center")
    return tet_solid_angle(*coords.T)


def suspension_area(curve: np.ndarray) -> float:
    """Area of the spherical suspension of a closed curve on S^2.

    The curve is a closed polyline of unit vectors w_j; the suspension in
    S^3 is sigma(s, phi) = (cos s, sin s * w(phi)), s in [0, pi].  The area
    is integrated with Gauss-Legendre nodes in s and the polyline's chord
    differences in phi — no use of the analytic factorization, so the test
    against area = 2 * length is a genuine numerical check.  Raises
    ``ValidationError`` unless the curve is at least three finite, nonzero
    3-vectors.
    """
    w = np.asarray(curve, float)
    if w.ndim != 2 or w.shape[1] != 3 or len(w) < 3:
        raise ValidationError("curve must be a closed polyline of 3-vectors")
    # each row scaled by the power of two of its largest |component| first,
    # so the squares in the norm neither overflow nor underflow (and a
    # scale by 2^k leaves every bit of w / |w| as it was)
    w = np.ldexp(w, -np.frexp(np.abs(w).max(axis=1))[1][:, None])
    norms = np.linalg.norm(w, axis=1)
    if not ((norms > 0) & (norms < math.inf)).all():
        raise ValidationError("curve points must be finite and nonzero")
    w = w / norms[:, None]
    nxt = np.roll(w, -1, axis=0)
    mid = 0.5 * (w + nxt)
    dw = nxt - w
    sx, sw = np.polynomial.legendre.leggauss(SUSPENSION_NODES)
    s = 0.5 * math.pi * (sx + 1.0)
    ws = 0.5 * math.pi * sw
    total = 0.0
    for si, wi in zip(s, ws):
        # segment vector and s-tangent at the segment midpoint
        dsig = np.concatenate([np.zeros((len(w), 1)), math.sin(si) * dw], axis=1)
        tang = np.concatenate(
            [np.full((len(w), 1), -math.sin(si)), math.cos(si) * mid], axis=1
        )
        total += wi * float(_wedge_norm(tang, dsig).sum())
    return total


# ---------------------------------------------------------------------------
# spiked cone construction
# ---------------------------------------------------------------------------

#: widest spike half-angle (radians): there the apex link
#: 6 asin(sqrt(3)/2 sin(gamma)) reaches pi, the bound of ``spiked_cone_report``
SPIKE_MAX_HALF_ANGLE = math.asin(1.0 / math.sqrt(3.0))


def spike_link_from_half_angle(gamma: float) -> float:
    """Apex link of a 3-sided spike whose lateral edges make angle gamma
    with the axis: three face angles of 2*asin(sqrt(3)/2 * sin(gamma))."""
    gamma = checked_real(gamma, "gamma", 0.0, SPIKE_MAX_HALF_ANGLE)
    link = 3.0 * 2.0 * math.asin(math.sqrt(3.0) / 2.0 * math.sin(gamma))
    # rounding lifts the link to pi within a few ulps of the bound
    if not link < math.pi:
        raise ValidationError(
            f"gamma must be below {SPIKE_MAX_HALF_ANGLE!r} by more than "
            f"rounding, got {gamma}: its link rounds to pi"
        )
    return link


def modified_cube_faces(
    rho: float, spike_height: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Cube surface with a spike replacing a top-face triangle.

    The unit cube [-1/2, 1/2]^3 sits in the hyperplane x4 = CUBE_LIFT.  The top
    face loses an inscribed equilateral triangle of circumradius rho, whose
    rim is joined to the spike apex at height 1/2 + spike_height.  Returns
    the added faces (the cube's 12 triangles and the 3 spike faces) and the
    subtracted spike base, as 4D triangles (rows are vertices).
    """
    rho = checked_real(rho, "rho", 0.0, 0.5)
    spike_height = checked_real(spike_height, "spike_height", 0.0)
    h = 0.5
    squares = [
        [(-h, -h, -h), (h, -h, -h), (h, h, -h), (-h, h, -h)],
        [(-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h)],
        [(-h, -h, -h), (h, -h, -h), (h, -h, h), (-h, -h, h)],
        [(h, -h, -h), (h, h, -h), (h, h, h), (h, -h, h)],
        [(h, h, -h), (-h, h, -h), (-h, h, h), (h, h, h)],
        [(-h, h, -h), (-h, -h, -h), (-h, -h, h), (-h, h, h)],
    ]
    tris3: list[np.ndarray] = []
    for sq in squares:
        p = np.asarray(sq, float)
        tris3.append(p[[0, 1, 2]])
        tris3.append(p[[0, 2, 3]])
    angles = np.array([math.pi / 2, math.pi * 7 / 6, math.pi * 11 / 6])
    base = np.column_stack(
        [rho * np.cos(angles), rho * np.sin(angles), np.full(3, h)]
    )
    apex = np.array([0.0, 0.0, h + spike_height])
    for i in range(3):
        tris3.append(np.stack([base[i], base[(i + 1) % 3], apex]))

    def lift(t):
        return np.column_stack([t, np.full(3, CUBE_LIFT)])

    return [lift(t) for t in tris3], lift(base)


@dataclass(frozen=True)
class SpikedConeReport:
    theta_p: float
    q_link: float
    apex_link: float
    hypercube_link: float
    q_wins: bool
    reference_volume: float
    q_perimeter: float
    apex_perimeter: float


def spiked_cone_report(
    theta_p: float,
    spike_height: float = 3.0,
    reference_volume: float = 1e-3,
) -> SpikedConeReport:
    """Compare the link at q (over the spike apex) with the cone point.

    q has link 2*theta_p by the suspension identity; the cone point has
    link |K-hat|, the projected area of the modified cube surface.  Smaller
    link means smaller cone profile at every volume, so the verdict reduces
    to the decisive inequality 2*theta_p < |K-hat|, reported alongside the
    two perimeters at a reference volume.
    """
    theta_p = checked_real(theta_p, "theta_p", 0.0, math.pi)
    spike_height = checked_real(spike_height, "spike_height", 0.0)
    reference_volume = checked_real(reference_volume, "reference_volume", 0.0,
                                    error=VolumeOutOfRange)
    # the projection normalizes every face vertex, and the norm of the spike
    # apex (0, 0, 1/2 + spike_height, CUBE_LIFT) overflows first
    top = 0.5 + spike_height
    if not math.isfinite(top * top + CUBE_LIFT * CUBE_LIFT):
        raise ValidationError(
            f"spike height {spike_height} out of range: the squared norm "
            "of the spike apex must be finite"
        )
    alpha = theta_p / 3.0
    gamma = math.asin(2.0 * math.sin(alpha / 2.0) / math.sqrt(3.0))
    rho = spike_height * math.tan(gamma)
    added, base = modified_cube_faces(rho, spike_height)
    apex_link = sum(projection_area_of_triangle(*t) for t in added)
    apex_link -= projection_area_of_triangle(*base)
    q_link = 2.0 * theta_p
    return SpikedConeReport(
        theta_p=theta_p,
        q_link=q_link,
        apex_link=apex_link,
        hypercube_link=4.0 * (math.pi / 2.0),
        q_wins=q_link < apex_link,
        reference_volume=reference_volume,
        q_perimeter=cone_profile(q_link, 3, reference_volume),
        apex_perimeter=cone_profile(apex_link, 3, reference_volume),
    )
