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

Pieces are therefore built one level at a time.  :func:`enumerate_pieces`
lists the nonempty indices of its window k_i in [1, N] (i <= n),
k_{n+1} in [1 - N, 0] as one integer array, builds the level-s template
z_s once, maps every index of that level with one matrix product, and gives
all of them the Qhull volume of the level's first piece.
:func:`classify_pieces` checks each level against its first piece in blocks.
Two closed forms describe the window:

* level s holds C(N + s - 1, n) pieces, so the window holds
  sum_s C(N + s - 1, n) (:func:`piece_count`);
* a level-s piece has A(n, s - 1) times the volume of the level-n simplex,
  A being the Eulerian numbers (1:4:1 for n = 3, 1:11:11:1 for n = 4).

Windows of more than ``MAX_PIECES`` pieces are rejected from the count alone,
before any array is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (
    DimensionTooHigh,
    NumericalError,
    UnsupportedDimension,
    ValidationError,
)

MATCH_TOL = 1e-9
MAX_N = 4
MAX_PIECES = 100_000
# Pieces per block of the batched congruence check: a block of level-2
# pieces at n = 4 (10 vertices each) needs about 55 MB of temporaries.
CHECK_CHUNK = 4096


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

    def generator(self, i: int) -> np.ndarray:
        """Index shift caused by translating x by frame vector a_i."""
        g = np.ones(self.n + 1, dtype=int)
        g[i] = -self.n
        return g


def build_frame(n: int) -> RegularSimplexFrame:
    return RegularSimplexFrame(n=n, vectors=_frame_vectors(n))


def piece_count(n: int, slices: int) -> int:
    """Number of nonempty pieces in the window of :func:`enumerate_pieces`:
    sum over levels s = 1..n of C(slices + s - 1, n)."""
    return sum(math.comb(slices + s - 1, n) for s in range(1, n + 1))


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


def _piece_vertices(frame: RegularSimplexFrame, k) -> np.ndarray:
    """Vertices of S_k for one index k (shape (n+1,), giving (v, n)) or for a
    stack of indices of one level (shape (m, n+1), giving (m, v, n)).

    The level-s template z_s lists z = (s - sum(c), c) for c in {0,1}^n whose
    first entry is 0 or 1; each piece is z_s - k mapped back to x-space.
    """
    n = frame.n
    k = np.asarray(k, dtype=float)
    sums = k.sum(axis=-1)
    level = sums.flat[0]
    if np.any(sums != level):
        raise ValueError("a stack of indices must share one level")
    tail = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    head = level - tail.sum(axis=1)
    keep = (head >= 0.0) & (head <= 1.0)
    z = np.column_stack([head[keep], tail[keep]])
    return (z - k[..., None, :]) @ frame.vectors / (n + 1)


def _volume(vertices: np.ndarray) -> float:
    if vertices.shape[1] == 1:
        return float(vertices.max() - vertices.min())
    return float(ConvexHull(vertices).volume)


def _nonempty_indices(n: int, slices: int) -> np.ndarray:
    """The nonempty indices of the window as rows, in lexicographic order.

    A head (k_1..k_n) with sum h >= n takes the last entries
    max(1 - slices, 1 - h) .. n - h, in increasing order.
    """
    heads = np.indices((slices,) * n).reshape(n, -1).T + 1
    h = heads.sum(axis=1)
    first = np.maximum(1 - slices, 1 - h)
    runs = np.maximum(n - h - first + 1, 0)
    starts = np.cumsum(runs) - runs
    step = np.arange(runs.sum()) - np.repeat(starts, runs)
    return np.column_stack([np.repeat(heads, runs, axis=0), np.repeat(first, runs) + step])


def enumerate_pieces(n: int, slices: int) -> list[SlicePiece]:
    """All nonempty pieces S_k with k_i in [1, slices] for i <= n and
    k_{n+1} in [1 - slices, 0], in lexicographic order of k.

    This index window is exactly the dissection of the enlarged simplex
    ``slices * S_(1,..,1,0)``: the pieces partition it without gaps (checked
    by the volume-sum tests), and every level in {1, ..., n} eventually
    appears as ``slices`` grows.  Each level is built in one batch and all
    its pieces share the volume of its first piece.  Windows of more than
    ``MAX_PIECES`` pieces are rejected before anything is built.
    """
    if slices < 2:
        raise ValueError("need at least 2 slices per direction")
    frame = build_frame(n)
    count = piece_count(n, slices)
    if count > MAX_PIECES:
        raise ValidationError(
            f"--N {slices} gives {count} pieces at n = {n}, "
            f"above the limit of {MAX_PIECES}"
        )
    index = _nonempty_indices(n, slices)
    level = index.sum(axis=1)
    rows = index.tolist()
    pieces: list = [None] * len(rows)
    for s in range(1, n + 1):
        at = np.flatnonzero(level == s)
        if not len(at):
            continue
        verts = _piece_vertices(frame, index[at])
        vol = _volume(verts[0])
        for j, v in zip(at.tolist(), verts):
            pieces[j] = SlicePiece(index=tuple(rows[j]), vertices=v, volume=vol)
    return pieces


def _normalized(vertices: np.ndarray) -> np.ndarray:
    """A stack of vertex sets (m, v, n), each centred on its centroid and
    scaled to unit diameter (a set of diameter 0 is only centred)."""
    centred = vertices - vertices.mean(axis=1, keepdims=True)
    diff = vertices[:, :, None, :] - vertices[:, None, :, :]
    diameter = np.sqrt((diff**2).sum(axis=3)).max(axis=(1, 2))
    return centred / np.where(diameter > 0.0, diameter, 1.0)[:, None, None]


def _translates(ref: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """For each vertex set in ``stack`` (m, v, n), whether it equals ``ref``
    (v, n) up to translation and positive homothety.

    After :func:`_normalized`, join each vertex of ``ref`` to the vertices of
    the set within ``MATCH_TOL``.  The sets match when every vertex of ``ref``
    has a partner and both ends of every join have equal degree: each
    component is then regular, so a one-to-one match exists (Hall).  When
    distinct vertices lie more than 2 * MATCH_TOL apart, that is also
    necessary.
    """
    a = _normalized(ref[None])[0]
    b = _normalized(stack)
    close = ((a[None, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3) <= MATCH_TOL**2
    deg_a = close.sum(axis=2)
    deg_b = close.sum(axis=1)
    uneven = (close & (deg_a[:, :, None] != deg_b[:, None, :])).any(axis=(1, 2))
    return (deg_a > 0).all(axis=1) & ~uneven


def congruent_shape(a: SlicePiece, b: SlicePiece) -> bool:
    """True when the pieces agree up to translation and positive homothety.

    Centers both vertex sets on their centroids, rescales to unit diameter,
    and requires a one-to-one vertex match within ``MATCH_TOL``; rotations
    and reflections are deliberately not granted, so inverted pieces form
    their own class.
    """
    if a.vertex_count != b.vertex_count:
        return False
    return bool(_translates(a.vertices, b.vertices[None])[0])


@dataclass(frozen=True)
class ShapeClassSummary:
    level: int
    count: int
    vertex_count: int
    piece_volume: float
    representative: SlicePiece


def classify_pieces(pieces: list[SlicePiece]) -> list[ShapeClassSummary]:
    """Group pieces by congruence class and verify the translate property.

    Each level's pieces are checked against its first piece (in index order)
    in blocks of ``CHECK_CHUNK``; the first piece that fails is named.
    """
    by_level: dict[int, list[SlicePiece]] = {}
    for p in pieces:
        by_level.setdefault(p.level, []).append(p)
    out: list[ShapeClassSummary] = []
    for level in sorted(by_level):
        group = sorted(by_level[level], key=lambda p: p.index)
        rep = group[0]
        for start in range(1, len(group), CHECK_CHUNK):
            block = group[start : start + CHECK_CHUNK]
            ok = np.zeros(len(block), dtype=bool)
            sized = [j for j, p in enumerate(block) if p.vertex_count == rep.vertex_count]
            if sized:
                stack = np.stack([block[j].vertices for j in sized])
                ok[sized] = _translates(rep.vertices, stack)
            if not ok.all():
                other = block[int(np.argmin(ok))]
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
