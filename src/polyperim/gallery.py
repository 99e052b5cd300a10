"""Analytic competitor families and the counterexample gallery.

Three exhibits:

* ``cube_competitors`` — closed-form competitor families on the unit-cube
  surface (total area 6): vertex balls, flat discs (interior or across an
  edge, which unfolds flat), bands around four faces, and the complements
  of all three.  Winners over a volume grid locate the empirical crossover
  from vertex balls to bands.

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

The projection areas are computed by the exact differential of x -> x/|x|:
for a parametrized face, the spherical area element is |P x_u ^ P x_v| /
|x|^2 with P = I - unit(x) unit(x)^T, integrated by centroid quadrature on
a barycentric grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionDegenerate, ValidationError, VolumeOutOfRange
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
    # name, perimeter(V), validity(V)
    ("vertex-ball", lambda v: math.sqrt(3.0 * math.pi * v),
     lambda v: v <= 3.0 * math.pi / 4.0),
    ("flat-disc", lambda v: math.sqrt(4.0 * math.pi * v),
     lambda v: v <= math.pi / 4.0),
    ("band", lambda v: 8.0, lambda v: 0.0 < v < 4.0),
)


def cube_competitors(volume: float) -> CompetitorReport:
    """Evaluate the analytic families at one volume on the unit cube."""
    if not 0.0 < volume < CUBE_SURFACE_AREA:
        raise VolumeOutOfRange(
            f"volume {volume} outside (0, {CUBE_SURFACE_AREA})"
        )
    entries: list[CompetitorEntry] = []
    for name, area, valid in _FAMILIES:
        entries.append(CompetitorEntry(name, area(volume), valid(volume)))
    co_volume = CUBE_SURFACE_AREA - volume
    for name, area, valid in _FAMILIES:
        entries.append(
            CompetitorEntry(name + "-complement", area(co_volume), valid(co_volume))
        )
    winner = min(
        (e for e in entries if e.valid),
        key=lambda e: e.perimeter,
    )
    return CompetitorReport(volume=volume, entries=tuple(entries), winner=winner)


def competitor_table(volumes) -> list[CompetitorReport]:
    return [cube_competitors(float(v)) for v in volumes]


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
    if not 0.0 < theta < 2.0 * math.pi - 1e-9:
        raise ValueError(f"apex link {theta} outside (0, 2*pi)")
    if base_link is not None and not 0.0 < base_link < 2.0 * math.pi:
        raise ValueError(f"base link {base_link} outside (0, 2*pi)")
    if not 0.0 < volume < math.inf:
        raise VolumeOutOfRange(f"volume must be positive and finite, got {volume}")
    one_sided = math.sqrt(2.0 * theta * volume)
    if one_sided == 0.0:
        raise VolumeOutOfRange(f"theta * volume = {theta} * {volume} underflows")
    glued = math.sqrt(4.0 * theta * volume)
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


def projection_area_of_triangle(
    a, b, c, subdivisions: int = 32
) -> float:
    """Spherical area of the radial projection of a flat triangle.

    Centroid quadrature on a barycentric grid of ``subdivisions^2`` equal
    parameter cells; the integrand is the exact Jacobian of x -> x/|x|.
    """
    if subdivisions < 1:
        raise ValidationError(f"subdivisions must be at least 1, got {subdivisions}")
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    if min(np.linalg.norm(p) for p in (a, b, c)) < ORIGIN_TOL:
        raise ProjectionDegenerate("face vertex at the projection center")
    xu = b - a
    xv = c - a
    n = subdivisions
    cents = []
    for i in range(n):
        for j in range(n - i):
            # upward cell (i, j) and its downward partner when present
            cents.append(((i + 1 / 3) / n, (j + 1 / 3) / n))
            if j < n - i - 1:
                cents.append(((i + 2 / 3) / n, (j + 2 / 3) / n))
    uv = np.array(cents)
    x = a + uv[:, :1] * xu + uv[:, 1:] * xv
    norms = np.linalg.norm(x, axis=1)
    if norms.min() < ORIGIN_TOL:
        raise ProjectionDegenerate("face passes through the projection center")
    unit = x / norms[:, None]
    pu = xu - unit * (unit @ xu)[:, None]
    pv = xv - unit * (unit @ xv)[:, None]
    weights = 0.5 / n**2
    return float(np.sum(_wedge_norm(pu, pv) / norms**2) * weights)


def radial_projection_area(triangles, subdivisions: int = 32) -> float:
    return sum(
        projection_area_of_triangle(t[0], t[1], t[2], subdivisions)
        for t in triangles
    )


def suspension_area(curve: np.ndarray) -> float:
    """Area of the spherical suspension of a closed curve on S^2.

    The curve is a closed polyline of unit vectors w_j; the suspension in
    S^3 is sigma(s, phi) = (cos s, sin s * w(phi)), s in [0, pi].  The area
    is integrated with Gauss-Legendre nodes in s and the polyline's chord
    differences in phi — no use of the analytic factorization, so the test
    against area = 2 * length is a genuine numerical check.
    """
    w = np.asarray(curve, float)
    if w.ndim != 2 or w.shape[1] != 3 or len(w) < 3:
        raise ValueError("curve must be a closed polyline of 3-vectors")
    w = w / np.linalg.norm(w, axis=1)[:, None]
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

def spike_link_from_half_angle(gamma: float) -> float:
    """Apex link of a 3-sided spike whose lateral edges make angle gamma
    with the axis: three face angles of 2*asin(sqrt(3)/2 * sin(gamma))."""
    if not 0.0 < gamma < math.pi / 2.0:
        raise ValueError("half-angle must be in (0, pi/2)")
    return 3.0 * 2.0 * math.asin(math.sqrt(3.0) / 2.0 * math.sin(gamma))


def _annulus_triangles(outer: np.ndarray, inner: np.ndarray) -> list[np.ndarray]:
    """Triangulate the region between two convex star-shaped polygons.

    Merges the two vertex cycles by angle about the common center; each
    merge event tents one triangle over the other cycle's current vertex,
    giving len(outer) + len(inner) pieces in total.
    """
    center = outer.mean(axis=0)

    def ordered(points):
        angles = np.arctan2(*(points - center).T[::-1])
        order = np.argsort(angles, kind="stable")
        return points[order], angles[order]

    outer, ao = ordered(outer)
    inner, ai = ordered(inner)
    events = sorted(
        [(a, "O", i) for i, a in enumerate(ao)]
        + [(a, "I", i) for i, a in enumerate(ai)]
    )
    # before the first event each cycle sits at its angularly last vertex
    cur = {"O": len(ao) - 1, "I": len(ai) - 1}
    cycle = {"O": outer, "I": inner}
    tris: list[np.ndarray] = []
    for _, kind, idx in events:
        other = "I" if kind == "O" else "O"
        tris.append(np.stack([
            cycle[kind][cur[kind]],
            cycle[kind][idx],
            cycle[other][cur[other]],
        ]))
        cur[kind] = idx
    return tris


def modified_cube_faces(rho: float, spike_height: float) -> list[np.ndarray]:
    """Triangulated cube surface with a spike replacing a top-face triangle.

    The unit cube [-1/2, 1/2]^3 sits in the hyperplane x4 = CUBE_LIFT.  The top
    face loses an inscribed equilateral triangle of circumradius rho, whose
    rim is joined to the spike apex at height 1/2 + spike_height.  Returns
    a list of 4D triangles (rows are vertices).
    """
    if not 0.0 < rho < 0.5:
        raise ValueError("spike base must fit inside the top face")
    h = 0.5
    squares = []
    # bottom (z = -h) and the four side faces
    squares.append([(-h, -h, -h), (h, -h, -h), (h, h, -h), (-h, h, -h)])
    squares.append([(-h, -h, -h), (h, -h, -h), (h, -h, h), (-h, -h, h)])
    squares.append([(h, -h, -h), (h, h, -h), (h, h, h), (h, -h, h)])
    squares.append([(h, h, -h), (-h, h, -h), (-h, h, h), (h, h, h)])
    squares.append([(-h, h, -h), (-h, -h, -h), (-h, -h, h), (-h, h, h)])
    tris3: list[np.ndarray] = []
    for sq in squares:
        p = np.asarray(sq, float)
        tris3.append(p[[0, 1, 2]])
        tris3.append(p[[0, 2, 3]])
    # top face minus the spike base
    corners = np.array([(h, h), (-h, h), (-h, -h), (h, -h)])
    base_angles = np.array([math.pi / 2, math.pi * 7 / 6, math.pi * 11 / 6])
    base2 = rho * np.stack([np.cos(base_angles), np.sin(base_angles)], axis=1)
    for t in _annulus_triangles(corners, base2):
        tris3.append(np.column_stack([t, np.full(3, h)]))
    # spike faces
    base3 = np.column_stack([base2, np.full(3, h)])
    apex = np.array([0.0, 0.0, h + spike_height])
    for i in range(3):
        tris3.append(np.stack([base3[i], base3[(i + 1) % 3], apex]))
    return [np.column_stack([t, np.full(3, CUBE_LIFT)]) for t in tris3]


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
    subdivisions: int = 32,
    reference_volume: float = 1e-3,
) -> SpikedConeReport:
    """Compare the link at q (over the spike apex) with the cone point.

    q has link 2*theta_p by the suspension identity; the cone point has
    link |K-hat|, the projected area of the modified cube surface.  Smaller
    link means smaller cone profile at every volume, so the verdict reduces
    to the decisive inequality 2*theta_p < |K-hat|, reported alongside the
    two perimeters at a reference volume.
    """
    if not 0.0 < theta_p < math.pi:
        raise ValueError(f"spike apex link {theta_p} outside (0, pi)")
    if not 0.0 < reference_volume < math.inf:
        raise VolumeOutOfRange(
            f"volume must be positive and finite, got {reference_volume}"
        )
    # the projection squares the norm of every face vertex; the spike apex
    # (0, 0, 1/2 + spike_height, CUBE_LIFT) has the largest
    top = 0.5 + spike_height
    if not math.isfinite(top * top + CUBE_LIFT * CUBE_LIFT):
        raise ValueError(
            f"spike height {spike_height} out of range: the squared norm "
            "of the spike apex must be finite"
        )
    alpha = theta_p / 3.0
    gamma = math.asin(2.0 * math.sin(alpha / 2.0) / math.sqrt(3.0))
    rho = spike_height * math.tan(gamma)
    faces = modified_cube_faces(rho, spike_height)
    apex_link = radial_projection_area(faces, subdivisions)
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
