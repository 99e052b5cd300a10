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
distances.  Polygons (d = 3) and cells (d = 4) go through one pass that
pairs each entry with its facet's edges, in blocks of whole entries: a
polygon's ring edges (``Polytope.ring_edges``), a cell's edges read off
the ridges of the 4-polytope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NumericalError, UnsupportedDimension
from .polytope import TOL, Polytope
from .profiles import sphere_measure

LINK_RTOL = 1e-12  # relative; links this close count as equal

# columns of the four 3 x 3 minors of a 3 x 4 matrix
_MINORS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
# rows per block of the corner pass, (entry, facet edge) rows, and of the
# face pairs whose shared edge is read off the ridges in 4-D
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
    the vertex-facet incidence, in the order of ``poly.incidence``'s
    entries: facet by facet, each facet's vertices ascending.

    The distance runs from the vertex to the part of the facet's boundary
    away from it: the other end of an edge (d = 2), the ring edges not
    touching the vertex (d = 3), the cell's 2-faces not containing it
    (d = 4), which are its ridges with other facets: no cell gets a hull of
    its own.  For d >= 3 one pass pairs each entry with its facet's edges:
    those missing the vertex give its distance, those touching it its angle.
    """
    d = poly.dim
    pts = poly.vertices
    if d == 2:
        ends = np.array(poly.facets)
        e = pts[ends[:, 1]] - pts[ends[:, 0]]
        return np.ones(ends.size), np.repeat(np.sqrt(_dot(e, e)), 2)
    inc = poly.incidence
    if d == 3:
        ends, count = poly.ring_edges, np.diff(inc.indptr)
    else:
        ends, count, h, k, u, offset, cos, turn = _cell_edges(poly)
        tol = TOL * max(1.0, float(np.abs(pts).max()))
    angles = np.empty(inc.nnz)
    dist = np.full(inc.nnz, math.inf)
    for entries, i, e in _corner_pairs(inc, count):
        # ``take`` gathers rows faster than fancy indexing
        vertex, (a, b) = inc.indices[i], ends.take(e, axis=0).T
        at, pa, pb = (pts.take(x, axis=0) for x in (vertex, a, b))
        touch = (vertex == a) | (vertex == b)
        np.minimum.at(dist, i, np.where(touch, math.inf, _segment_distances(at, pa, pb)))
        if d == 3:
            # the ring edges into and out of each corner, one of each:
            # the angle between them is atan2(|u1 x u2|, u1 . u2)
            into, out = b == vertex, a == vertex
            u1, u2 = pa[into] - at[into], pb[out] - at[out]
            cr = np.cross(u1, u2)
            wedges = np.sqrt(_dot(cr, cr)).tolist()
            angles[entries] = list(map(math.atan2, wedges, _dot(u1, u2).tolist()))
            continue
        # face h and its neighbour k across the edge (a, b); the foot on h
        # is inside k when depth_h (u_h . u_k) <= depth_k
        hi, ki = h[e], k[e]
        turned = np.bincount(i - entries.start, np.where(touch, turn[e], 0.0),
                             entries.stop - entries.start)
        angles[entries] = 2.0 * math.pi - turned
        depth = offset[hi] - _dot(at, u[hi])
        bad = touch | (depth * cos[e] > offset[ki] - _dot(at, u[ki]) + tol)
        run = np.r_[True, (i[1:] != i[:-1]) | (hi[1:] != hi[:-1])]
        skip = np.bincount(np.cumsum(run) - 1, bad) > 0
        np.minimum.at(dist, i[run], np.where(skip, math.inf, depth[run]))
    return angles, dist


def _corner_pairs(inc: csr_matrix, count: np.ndarray):
    """Pairs (i, e) of each entry i of the facet-vertex incidence ``inc``
    with each edge e of the same facet, where facet f has ``count[f]``
    edges, numbered facet by facet; entry-major.

    Yields them in blocks of whole entries, at most ``_CELL_ROWS`` pairs
    each unless one entry alone has more, with the entries each block
    covers: every sum over an entry's pairs, and every run of them, lies in
    one block.
    """
    facet_size = np.diff(inc.indptr)
    rows = np.repeat(count, facet_size)
    end = np.cumsum(rows)
    start = end - rows
    # pair r belongs to entry i and to edge r - shift[i]
    shift = start - np.repeat(np.cumsum(count) - count, facet_size)
    lo = 0
    while lo < inc.nnz:
        hi = max(lo + 1, int(np.searchsorted(end, start[lo] + _CELL_ROWS, side="right")))
        i = np.repeat(np.arange(lo, hi), rows[lo:hi])
        yield slice(lo, hi), i, np.arange(start[lo], end[hi - 1]) - shift[i]
        lo = hi


def _cell_edges(poly: Polytope):
    """The cell edges of a 4-polytope as pairs of faces, read off its ridges.

    A half-ridge (C, G) is the 2-face cell C shares with facet G (three or
    more common vertices).  Its in-cell unit normal u is the generalized
    cross product of n_C and two edges of the face, turned so u . n_G > 0
    (projecting n_G off n_C cancels on near-flat ridges).  Two half-ridges
    h, k of a cell sharing two vertices meet in a cell edge, where the cell
    turns by the angle between their normals: Gauss-Bonnet on the vertex
    figure gives a corner's solid angle as 2*pi less the turning angles
    (each edge counted once, at h < k) of the edges through it.  A point of
    a face's plane lies in the face when it is within ``TOL`` (scaled) of
    the inner side of each face across an edge of it.  The two faces on an
    edge missing the vertex meet only in that edge, so one misses the
    vertex too: the edges missing it are those of the faces missing it.

    Returns the pairs (h, k) of one cell, both ways round and sorted, with
    each pair's edge ``ends``, the number of pairs in each cell, the faces'
    normals ``u`` and offsets, and each pair's ``cos`` and ``turn``.
    """
    pts, normals, inc = poly.vertices, poly.facet_normals, poly.incidence
    m = len(pts)
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
    # half-ridges h, k of one cell that share two vertices
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
    return ends, np.bincount(cell[h], minlength=inc.shape[0]), h, k, u, offset, cos, turn


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def vertex_cones(poly: Polytope) -> list[VertexCone]:
    """Every vertex's cone, reduced from the corner table of
    ``_facet_corners``: a vertex's link adds its facets' contributions in
    increasing facet order, and its ``r_max`` is their smallest distance."""
    n = poly.surface_dim
    link, dist = _facet_corners(poly)
    m = len(poly.vertices)
    vertex = poly.incidence.indices
    # np.bincount adds each vertex's entries left to right in facet order;
    # np.sum (pairwise) or Python 3.12's sum (compensated) could move an ulp
    omega = np.bincount(vertex, link, m)
    r_max = np.full(m, math.inf)
    np.minimum.at(r_max, vertex, dist)
    # a convex polytope has 0 < omega < |S^{n-1}| at every vertex, so a link
    # outside that range is a computation that failed
    if n >= 2:
        bad = np.flatnonzero(~((omega > 0.0) & (omega < sphere_measure(n - 1) + 1e-9)))
        if len(bad):
            raise NumericalError(
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
