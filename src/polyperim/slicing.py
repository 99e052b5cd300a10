"""Slicing space by the hyperplane arrangement of a regular-simplex frame.

A frame is a set of n+1 vectors a_1..a_{n+1} in R^n with

    a_i . a_i = n,   a_i . a_j = -1 (i != j),   sum_i a_i = 0,

i.e. Gram matrix (n+1) I - J.  These are outward normals of a regular
n-simplex, scaled so that the integer-level hyperplanes ``a_i . x = m`` slice
space into bounded pieces

    S_k = { x : -k_i < a_i . x < -k_i + 1  for all i },   k in Z^{n+1}.

Writing y_i = a_i . x maps R^n isometrically (up to the fixed factor
sqrt(n+1)) onto the plane sum(y) = 0, where S_k is a box slice; both the
nonemptiness criterion and the translation structure are read off there:

* S_k is nonempty  iff  0 < sum(k) < n + 1,
* pieces with equal sum(k) are translates of one another,
* translating x by a_i shifts k by the generator row g_i = (1,..,-n,..,1)
  with -n in slot i (so sum(k) is preserved).

In y-space each bounded piece is a hypersimplex shifted by -k: with
z = y + k its vertices are the 0/1 vectors z with sum(z) = sum(k) (Stanley,
*Eulerian partitions of a unit hypercube*, 1977).  Coordinates come back
through the pseudoinverse x = A^T y / (n+1), exact because
A A^T = (n+1) I - J acts as (n+1) I on sum-zero y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import DimensionTooHigh, EmptyPiece, NumericalError, UnsupportedDimension

MATCH_TOL = 1e-9
MAX_N = 4


def _frame_vectors(n: int) -> np.ndarray:
    """The (n+1) x n matrix of frame vectors (rows).

    Construction: take the n+1 vertices of a regular simplex centered at the
    origin (rows of sqrt(n+1) * Q where Q orthonormally spans the sum-zero
    hyperplane of R^{n+1}) — their Gram matrix is (n+1) I - J by symmetry.
    The basis sign is fixed so that n = 1 gives exactly (+1), (-1).
    """
    if n < 1:
        raise UnsupportedDimension("frame needs n >= 1")
    if n > MAX_N:
        raise DimensionTooHigh(f"frame limited to n <= {MAX_N}, got {n}")
    # Orthonormal basis of { y in R^{n+1} : sum(y) = 0 }.
    seed = np.eye(n + 1)[:, :n] - 1.0 / (n + 1)
    q, _ = np.linalg.qr(seed)
    # Canonicalize column signs: make the first nonzero entry positive.
    for j in range(n):
        col = q[:, j]
        lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
        if lead < 0:
            q[:, j] = -col
    frame = math.sqrt(n + 1) * q
    gram = frame @ frame.T
    target = (n + 1) * np.eye(n + 1) - np.ones((n + 1, n + 1))
    if not np.allclose(gram, target, atol=1e-9):
        raise NumericalError("frame construction lost the Gram identity")
    return frame


@dataclass(frozen=True)
class RegularSimplexFrame:
    """Frame vectors plus the derived slicing helpers."""

    n: int
    vectors: np.ndarray

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """y_i = a_i . x for each frame vector."""
        return np.asarray(x, float) @ self.vectors.T

    def generator(self, i: int) -> np.ndarray:
        """Index shift caused by translating x by frame vector a_i."""
        g = np.ones(self.n + 1, dtype=int)
        g[i] = -self.n
        return g


def build_frame(n: int) -> RegularSimplexFrame:
    return RegularSimplexFrame(n=n, vectors=_frame_vectors(n))


def piece_is_nonempty(k, n: int) -> bool:
    s = int(sum(k))
    return 0 < s < n + 1


@dataclass(frozen=True)
class SlicePiece:
    """One bounded cell of the arrangement."""

    index: tuple[int, ...]
    vertices: np.ndarray
    volume: float

    @property
    def level(self) -> int:
        return int(sum(self.index))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def _piece_vertices(frame: RegularSimplexFrame, k) -> np.ndarray:
    """Vertices of S_k: z = (sum(k) - sum(c), c) for c in {0,1}^n whose first
    entry is 0 or 1, mapped back through y = z - k."""
    n = frame.n
    k = np.asarray(k, dtype=float)
    tail = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    head = k.sum() - tail.sum(axis=1)
    keep = (head >= 0.0) & (head <= 1.0)
    z = np.column_stack([head[keep], tail[keep]])
    return (z - k) @ frame.vectors / (n + 1)


def make_piece(frame: RegularSimplexFrame, k) -> SlicePiece:
    """Construct S_k with its vertex set and volume."""
    k = tuple(int(m) for m in k)
    if len(k) != frame.n + 1:
        raise ValueError(f"index must have {frame.n + 1} entries")
    if not piece_is_nonempty(k, frame.n):
        raise EmptyPiece(
            f"piece {k} is empty: level {sum(k)} not in (0, {frame.n + 1})"
        )
    verts = _piece_vertices(frame, k)
    if frame.n == 1:
        vol = float(verts.max() - verts.min())
    else:
        vol = float(ConvexHull(verts).volume)
    return SlicePiece(index=k, vertices=verts, volume=vol)


def enumerate_pieces(n: int, slices: int) -> list[SlicePiece]:
    """All nonempty pieces S_k with k_i in [1, slices] for i <= n and
    k_{n+1} in [1 - slices, 0].

    This index window is exactly the dissection of the enlarged simplex
    ``slices * S_(1,..,1,0)``: the pieces partition it without gaps (checked
    by the volume-sum tests), and every level in {1, ..., n} eventually
    appears as ``slices`` grows.
    """
    if slices < 2:
        raise ValueError("need at least 2 slices per direction")
    frame = build_frame(n)
    pieces: list[SlicePiece] = []
    head = itertools.product(range(1, slices + 1), repeat=n)
    for ks in head:
        for last in range(1 - slices, 1):
            k = ks + (last,)
            if piece_is_nonempty(k, n):
                pieces.append(make_piece(frame, k))
    pieces.sort(key=lambda p: p.index)
    return pieces


def translate_piece(frame: RegularSimplexFrame, piece: SlicePiece, i: int) -> SlicePiece:
    """Image of a piece under translation by frame vector a_i."""
    k = np.asarray(piece.index, dtype=int) + frame.generator(i)
    return SlicePiece(
        index=tuple(int(m) for m in k),
        vertices=piece.vertices + frame.vectors[i],
        volume=piece.volume,
    )


def _diameter(points: np.ndarray) -> float:
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def congruent_shape(a: SlicePiece, b: SlicePiece) -> bool:
    """True when the pieces agree up to translation and positive homothety.

    Centers both vertex sets on their centroids, rescales to unit diameter,
    and greedily matches points; rotations and reflections are deliberately
    not granted, so inverted pieces form their own class.  Pieces are small
    (<= a few dozen vertices), so the quadratic scan is fine.
    """
    if a.vertex_count != b.vertex_count:
        return False
    pa = a.vertices - a.centroid
    pb = b.vertices - b.centroid
    if a.vertex_count > 1:
        pa = pa / _diameter(a.vertices)
        pb = pb / _diameter(b.vertices)
    used = np.zeros(len(pb), dtype=bool)
    for p in pa:
        dist = np.linalg.norm(pb - p, axis=1)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > MATCH_TOL:
            return False
        used[j] = True
    return bool(used.all())


def shape_class(piece: SlicePiece) -> int:
    """Congruence class of a piece: its level sum(k).

    Same level means exact translate (box-slice argument in y-space); the
    level-n piece is the upright simplex normalized as S_(1,..,1,0).
    """
    s = piece.level
    n = len(piece.index) - 1
    if not 0 < s < n + 1:
        raise EmptyPiece(f"piece {piece.index} is empty (level {s})")
    return s


@dataclass(frozen=True)
class ShapeClassSummary:
    level: int
    count: int
    vertex_count: int
    piece_volume: float
    representative: SlicePiece


def classify_pieces(pieces: list[SlicePiece]) -> list[ShapeClassSummary]:
    """Group pieces by congruence class and verify the translate property."""
    by_level: dict[int, list[SlicePiece]] = {}
    for p in pieces:
        by_level.setdefault(p.level, []).append(p)
    out: list[ShapeClassSummary] = []
    for level in sorted(by_level):
        group = sorted(by_level[level], key=lambda p: p.index)
        rep = group[0]
        for other in group[1:]:
            if not congruent_shape(rep, other):
                raise NumericalError(
                    f"pieces {rep.index} and {other.index} share level "
                    f"{level} but are not translates"
                )
        out.append(
            ShapeClassSummary(
                level=level,
                count=len(group),
                vertex_count=rep.vertex_count,
                piece_volume=rep.volume,
                representative=rep,
            )
        )
    return out
