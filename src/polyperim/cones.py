"""Tangent cones at polytope vertices.

At a vertex v of a polytope surface the nearby geometry is a metric cone over
the vertex link.  The link measure ``omega`` determines the apex-ball profile

    V(r) = omega * r^n / n,   A(r) = omega * r^(n-1)
    =>  A(V) = c * V^t,  c = cone_profile(omega, n, 1),  t = (n-1)/n,

where n = d-1 is the surface dimension.  Note the exponent: eliminating r
from the pair above forces t = (n-1)/n.  The variant (n-2)/(n-1) that
sometimes appears in print fails the elimination (for n = 2 it would make
apex balls have volume-independent perimeter) and is reported alongside the
working exponent by the CLI, not used.  For n = 1 the boundary is two points
whatever the volume, so the profile degenerates to the constant 2 (t = 0).

Link measures:

* n = 1 (polygon boundary): counting measure, always 2.
* n = 2 (polyhedron): sum of the incident facet angles at v, in radians.
* n = 3 (4-polytope): sum over incident cells of the interior solid angle
  at v, by Gauss-Bonnet on the vertex figure 2*pi less the turning angles
  at the cell edges through v.  A cell's 2-faces are the ridges it shares
  with other facets, read off the vertex-facet incidence (Kaibel-Pfetsch),
  so no cell is rebuilt as a polytope of its own.

``r_max`` is the conservative star-containment radius: the smallest distance
from v to a boundary face of its star, measured inside each incident facet
(facets are flat, so in-facet straight lines are intrinsic geodesics): the
far end of an edge (d = 2), the ring edges missing v (d = 3), or the cell's
2-faces missing v (d = 4, in 4-D coordinates), at the plane where the foot
lies in the face.

Links and star radii come from one corner table, an entry per (facet,
vertex) pair of the incidence: a vertex's cone adds its entries'
contributions in increasing facet order and takes the smallest of their
distances.  Polygon facets (d = 3) are measured together, one batch per
ring length with the star distances in blocks of corners, and the cells
(d = 4) in one pass over all of their ridges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import UnsupportedDimension
from .polytope import TOL, Polytope, _incidence
from .profiles import sphere_measure

LINK_RTOL = 1e-12  # relative; links this close count as equal

# columns of the four 3 x 3 minors of a 3 x 4 matrix
_MINORS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
# rows per block of the corner passes: (polygon corner, ring edge) rows in
# 3-D; (cell vertex, face pair) rows, and the face pairs whose shared edge is
# read off the ridges, in 4-D
_CELL_ROWS = 1 << 14


@dataclass(frozen=True)
class VertexCone:
    """Link data for one polytope vertex."""

    vertex_index: int
    surface_dim: int
    link_volume: float
    r_max: float

    @property
    def valid_volume_max(self) -> float:
        n = self.surface_dim
        return self.link_volume * self.r_max**n / n


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


# ---------------------------------------------------------------------------
# the corner table
# ---------------------------------------------------------------------------

def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each one bit for bit ``x_i @ y_i``
    (a batched matmul runs the same BLAS dot per pair)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points ``p`` to segments ``ab``, over the leading axes."""
    ab = b - a
    t = np.clip(_dot(p - a, ab) / _dot(ab, ab), 0.0, 1.0)
    r = p - (a + t[..., None] * ab)
    return np.sqrt(_dot(r, r))


def _facet_corners(poly: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Link contribution and star distance of every entry (facet, vertex) of
    the vertex-facet incidence, in the order of ``_incidence(poly.facets,
    m)``: facet by facet, each facet's vertices ascending.

    The distance runs from the vertex to the part of the facet's boundary
    away from it: the other end of an edge (d = 2), the ring edges not
    touching the vertex (d = 3), the cell's 2-faces not containing it
    (d = 4), which are its ridges with other facets: no cell gets a hull of
    its own.  This is the only place that branches on the dimension.
    """
    d = poly.dim
    pts = poly.vertices
    if d == 2:
        ends = np.array(poly.facets)
        e = pts[ends[:, 1]] - pts[ends[:, 0]]
        return np.ones(ends.size), np.repeat(np.sqrt(_dot(e, e)), 2)
    if d == 3:
        rings = [poly.facet_ring(fi) for fi in range(len(poly.facets))]
        return _ring_corners(pts, rings)
    return _cell_corners(poly)


def _ring_corners(pts: np.ndarray, rings: list) -> tuple[np.ndarray, np.ndarray]:
    """Corner angles and star distances of polygons, ring by ring and each
    ring's vertices ascending, measured in one batch per ring length (the
    distances, k - 2 edges per corner, in blocks of corners); every product
    and dot is taken row by row, as for one corner."""
    first = np.cumsum([0] + [len(ring) for ring in rings])
    angles = np.empty(first[-1])
    dist = np.empty(first[-1])
    by_length: dict[int, list[int]] = {}
    for n, ring in enumerate(rings):
        by_length.setdefault(len(ring), []).append(n)
    for k, members in by_length.items():
        ring = np.array([rings[n] for n in members])
        # each corner's entry: its ring's first entry plus its rank in the ring
        entry = first[members][:, None] + np.argsort(np.argsort(ring, axis=1), axis=1)
        v = pts[ring]
        u1 = np.roll(v, 1, axis=1) - v
        u2 = np.roll(v, -1, axis=1) - v
        cr = np.cross(u1, u2)
        wedges = np.sqrt(_dot(cr, cr)).ravel().tolist()
        angles[entry.ravel()] = list(map(math.atan2, wedges, _dot(u1, u2).ravel().tolist()))
        # corner i against the ring edges j -> j + 1 that miss it, in blocks
        # of corners of at most _CELL_ROWS (corner, edge) rows: a whole
        # batch would take k^2 rows per ring
        near = np.empty(ring.size)
        step = max(1, _CELL_ROWS // (k - 2))
        for lo in range(0, ring.size, step):
            n, i = np.divmod(np.arange(lo, min(lo + step, ring.size)), k)
            j = (i[:, None] + np.arange(1, k - 1)) % k
            near[lo:lo + step] = _segment_distances(
                v[n, i, None], v[n[:, None], j], v[n[:, None], (j + 1) % k]
            ).min(axis=1)
        dist[entry.ravel()] = near
    return angles, dist


def _by_cell(inc: csr_matrix, item_cell: np.ndarray):
    """Pairs (i, j) of each entry i of the cell-vertex incidence ``inc`` with
    each item j of the same cell, items sorted by cell; cell by cell, and
    entry-major within a cell.

    Yields them in blocks of whole cells, at most ``_CELL_ROWS`` pairs each
    unless one cell alone has more, with the entries each block covers.
    """
    count = np.bincount(item_cell, minlength=inc.shape[0])
    item_first = np.cumsum(count) - count
    size = np.diff(inc.indptr) * count
    end = np.cumsum(size)
    first = end - size
    lo = 0
    while lo < len(size):
        hi = max(lo + 1, int(np.searchsorted(end, first[lo] + _CELL_ROWS, side="right")))
        g = np.repeat(np.arange(lo, hi), size[lo:hi])
        j = np.arange(first[lo], end[hi - 1]) - first[g]
        yield (
            slice(inc.indptr[lo], inc.indptr[hi]),
            inc.indptr[g] + j // count[g],
            item_first[g] + j % count[g],
        )
        lo = hi


def _cell_corners(poly: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Solid angle and star distance of each 3-cell at each of its vertices,
    one per entry of the cell-vertex incidence, from the ridges of the
    4-polytope in one pass over all cells.

    A half-ridge (C, G) is the 2-face cell C shares with facet G (three or
    more common vertices).  Its in-cell unit normal u is the generalized
    cross product of n_C and two edges of the face, turned so u . n_G > 0
    (projecting n_G off n_C cancels on near-flat ridges).  Two half-ridges
    of a cell sharing two vertices meet in a cell edge, where the cell turns
    by the angle between their normals.  A point of a face's plane lies in
    the face when it is within ``TOL`` (scaled) of the inner side of each
    face across an edge of it.  The two faces on an edge missing the vertex
    meet only in that edge, so one misses the vertex too: the edges missing
    it are those of the faces missing it.
    """
    pts, normals = poly.vertices, poly.facet_normals
    m = len(pts)
    inc = _incidence(poly.facets, m)
    # the largest arrays are dropped once used: on large hulls they would
    # set the peak memory together
    shared = (inc @ inc.T).tocoo()
    keep = (shared.data >= 3) & (shared.row != shared.col)
    cell, other = shared.row[keep], shared.col[keep]
    del shared, keep
    order = np.lexsort((other, cell))
    cell, other = cell[order], other[order]
    ridge = inc[cell].multiply(inc[other]).tocsr()
    first = pts[ridge.indices[ridge.indptr[:-1, None] + np.arange(3)]]
    rows = np.stack([normals[cell], first[:, 1] - first[:, 0], first[:, 2] - first[:, 0]], 1)
    u = np.linalg.det(rows[:, :, _MINORS].transpose(0, 2, 1, 3)) * [1.0, -1.0, 1.0, -1.0]
    del rows
    u *= np.sign(_dot(u, normals[other]))[:, None] / np.sqrt(_dot(u, u))[:, None]
    offset = _dot(u, first[:, 0])
    del first, other

    # over columns (cell, vertex), numbered as the entries of inc, the
    # half-ridges h, k of one cell that share two vertices, both ways round;
    # they meet in the edge ``ends``
    key = np.repeat(np.arange(inc.shape[0]), np.diff(inc.indptr)) * m + inc.indices
    col = np.searchsorted(key, np.repeat(cell, np.diff(ridge.indptr)) * m + ridge.indices)
    in_cell = csr_matrix((ridge.data, col, ridge.indptr), shape=(len(cell), inc.nnz))
    meet = (in_cell @ in_cell.T).tocoo()
    edge = meet.data == 2
    h, k = meet.row[edge], meet.col[edge]
    del meet, edge
    order = np.lexsort((k, h))
    h, k = h[order], k[order]
    ends = np.empty((len(h), 2), dtype=ridge.indices.dtype)
    for lo in range(0, len(h), _CELL_ROWS):
        pairs = slice(lo, lo + _CELL_ROWS)
        ends[pairs] = ridge[h[pairs]].multiply(ridge[k[pairs]]).indices.reshape(-1, 2)
    del ridge
    cos = _dot(u[h], u[k])
    sin = u[h] - cos[:, None] * u[k]
    turn = np.where(h < k, np.arctan2(np.sqrt(_dot(sin, sin)), cos), 0.0)
    del sin

    # each cell vertex against each face h of its cell and each neighbour k
    # of h, across the edge (a, b); the foot on h is inside k when
    # depth_h (u_h . u_k) <= depth_k.  Blocks of whole cells keep each
    # entry's sums and each (entry, face) run in one block.
    angles = np.empty(inc.nnz)
    dist = np.full(inc.nnz, math.inf)
    tol = TOL * max(1.0, float(np.abs(pts).max()))
    for entries, i, e in _by_cell(inc, cell[h]):
        vertex, (a, b), hi, ki = inc.indices[i], ends[e].T, h[e], k[e]
        touch = (vertex == a) | (vertex == b)
        turned = np.bincount(i - entries.start, np.where(touch, turn[e], 0.0),
                             entries.stop - entries.start)
        angles[entries] = 2.0 * math.pi - turned
        span = _segment_distances(pts[vertex], pts[a], pts[b])
        np.minimum.at(dist, i, np.where(touch, math.inf, span))
        depth = offset[hi] - _dot(pts[vertex], u[hi])
        bad = touch | (depth * cos[e] > offset[ki] - _dot(pts[vertex], u[ki]) + tol)
        run = np.r_[True, (i[1:] != i[:-1]) | (hi[1:] != hi[:-1])]
        skip = np.bincount(np.cumsum(run) - 1, bad) > 0
        np.minimum.at(dist, i[run], np.where(skip, math.inf, depth[run]))
    return angles, dist


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def vertex_cones(poly: Polytope) -> list[VertexCone]:
    """Every vertex's cone, reduced from the corner table of
    ``_facet_corners``: a vertex's link adds its facets' contributions in
    increasing facet order, and its ``r_max`` is their smallest distance."""
    n = poly.surface_dim
    link, dist = _facet_corners(poly)
    vertex = np.concatenate(poly.facets)
    order = np.argsort(vertex, kind="stable")
    link, dist = link[order], dist[order]
    count = np.bincount(vertex, minlength=len(poly.vertices))
    start = np.cumsum(count) - count
    r_max = np.minimum.reduceat(dist, start)
    # left to right, one column of k-th facets at a time (``np.sum`` adds
    # pairwise and Python 3.12's ``sum`` compensates: either would move
    # links by an ulp)
    omega = np.zeros(len(count))
    for k in range(count.max()):
        live = count > k
        omega[live] += link[start[live] + k]
    if n >= 2:
        bad = np.flatnonzero(~((omega > 0.0) & (omega < sphere_measure(n - 1) + 1e-9)))
        if len(bad):
            raise ValueError(
                f"vertex {bad[0]}: link measure {float(omega[bad[0]])} outside (0, |S^{n-1}|)"
            )
    return [VertexCone(v, n, w, r) for v, (w, r) in enumerate(zip(omega.tolist(), r_max.tolist()))]


def rank_by_link(cones: list[VertexCone]) -> list[VertexCone]:
    """Cones by increasing link, each ranked as the smallest link within
    LINK_RTOL (relative) below its own and ties going to the lowest vertex
    index, so rounding never orders equal links (the hypercube's 2*pi)."""
    links = np.sort([c.link_volume for c in cones])
    return sorted(cones, key=lambda c: (
        links[np.searchsorted(links, c.link_volume / (1.0 + LINK_RTOL))],
        c.vertex_index,
    ))


def deficit_sum(poly: Polytope) -> float:
    """Sum of angle deficits 2*pi - omega over all vertices of a 3-polytope."""
    if poly.dim != 3:
        raise UnsupportedDimension("deficit sum is defined for d = 3")
    return float(sum(2.0 * math.pi - c.link_volume for c in vertex_cones(poly)))
