import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from polyperim import slicing
from polyperim.errors import (
    DimensionTooHigh,
    NumericalError,
    UnsupportedDimension,
    ValidationError,
)
from polyperim.slicing import (
    MAX_PIECES,
    SlicePiece,
    _piece_vertices,
    build_frame,
    classify_pieces,
    congruent_shape,
    enumerate_pieces,
    piece_count,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frame_gram_identity(n):
    """Frame vectors must satisfy a_i . a_j = (n+1) delta_ij - 1."""
    frame = build_frame(n)
    gram = frame.vectors @ frame.vectors.T
    target = (n + 1) * np.eye(n + 1) - np.ones((n + 1, n + 1))
    assert np.allclose(gram, target, atol=1e-12)
    assert np.allclose(frame.vectors.sum(axis=0), 0.0, atol=1e-12)


def test_frame_dimension_limits():
    with pytest.raises(DimensionTooHigh):
        build_frame(5)
    with pytest.raises(UnsupportedDimension):
        build_frame(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translation_shifts_index_by_generator(n):
    rng = np.random.default_rng(100 + n)
    frame = build_frame(n)
    done = 0
    while done < 40:
        x = rng.uniform(-2, 2, size=n)
        i = int(rng.integers(0, n + 1))
        y = np.stack([x, x + frame.vectors[i]]) @ frame.vectors.T
        if np.any(np.abs(y - np.round(y)) < 1e-9):
            continue  # a point fell on a wall; draw again
        # S_k holds x exactly when -k_i < y_i < -k_i + 1
        before, after = np.floor(-y).astype(int) + 1
        assert np.array_equal(after, before + frame.generator(i))
        done += 1


@pytest.mark.parametrize(
    "n, slices, expected",
    [(2, 2, 4), (2, 5, 25), (3, 2, 5), (4, 2, 6)],
)
def test_piece_counts(n, slices, expected):
    assert len(enumerate_pieces(n, slices)) == expected


def test_plane_inventory_upright_and_inverted():
    pieces = enumerate_pieces(2, 3)
    summary = classify_pieces(pieces)
    assert [s.level for s in summary] == [1, 2]
    counts = {s.level: s.count for s in summary}
    assert counts == {1: 3, 2: 6}  # inverted n(n-1)/2, upright n(n+1)/2 at N=3
    by_level = {s.level: s for s in summary}
    assert by_level[1].piece_volume == pytest.approx(
        by_level[2].piece_volume, abs=1e-12
    )
    assert not congruent_shape(
        by_level[1].representative, by_level[2].representative
    )


def test_space_inventory_tets_and_octahedron():
    summary = classify_pieces(enumerate_pieces(3, 2))
    assert [(s.level, s.count, s.vertex_count) for s in summary] == [
        (2, 1, 6),
        (3, 4, 4),
    ]
    octa = next(s for s in summary if s.vertex_count == 6)
    tet = next(s for s in summary if s.vertex_count == 4)
    assert octa.piece_volume == pytest.approx(4 * tet.piece_volume, abs=1e-9)


def test_all_levels_appear_for_three_slices():
    summary = classify_pieces(enumerate_pieces(3, 3))
    assert [s.level for s in summary] == [1, 2, 3]
    # levels 1 and 3 are both tetrahedra of unit volume, oppositely oriented
    lv = {s.level: s for s in summary}
    assert lv[1].vertex_count == lv[3].vertex_count == 4
    assert lv[1].piece_volume == pytest.approx(lv[3].piece_volume, abs=1e-12)
    assert not congruent_shape(lv[1].representative, lv[3].representative)


@pytest.mark.parametrize("n, slices", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_volumes_fill_the_enlarged_simplex(n, slices):
    frame = build_frame(n)
    unit = ConvexHull(_piece_vertices(frame, (1,) * n + (0,))).volume
    total = sum(p.volume for p in enumerate_pieces(n, slices))
    assert total == pytest.approx(slices**n * unit, rel=1e-9)


def test_translates_within_level_3d():
    frame = build_frame(3)
    pieces = enumerate_pieces(3, 3)
    rng = np.random.default_rng(5)
    by_level = {}
    for p in pieces:
        by_level.setdefault(p.level, []).append(p)
    for group in by_level.values():
        rep = group[0]
        for other in rng.choice(len(group), size=min(4, len(group)), replace=False):
            assert congruent_shape(rep, group[int(other)])


def test_congruence_rejects_rotation():
    tri = next(p for p in enumerate_pieces(2, 2) if p.index == (1, 1, 0))
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    rot = np.array([[c, -s], [s, c]])
    spun = SlicePiece(index=tri.index, vertices=tri.vertices @ rot.T, volume=tri.volume)
    assert not congruent_shape(tri, spun)
    nudged = SlicePiece(
        index=tri.index, vertices=tri.vertices + [3.25, -1.5], volume=tri.volume
    )
    assert congruent_shape(tri, nudged)


def test_empty_piece_errors():
    with pytest.raises(ValueError):
        enumerate_pieces(2, 1)
    for n in (2, 3):
        assert {p.level for p in enumerate_pieces(n, 3)} == set(range(1, n + 1))


def test_generators_have_expected_pattern():
    for n in (2, 3, 4):
        frame = build_frame(n)
        for i in range(n + 1):
            g = frame.generator(i)
            assert g[i] == -n
            assert sum(g) == 0
            assert sorted(g)[1:] == [1] * n


def test_piece_vertex_counts_match_hull_structure():
    # every (2, N) piece is a triangle
    for p in enumerate_pieces(2, 4):
        assert p.vertex_count == 3
    counts = sorted({p.vertex_count for p in enumerate_pieces(3, 2)})
    assert counts == [4, 6]


def test_classify_rejects_same_level_pieces_that_are_not_translates():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pieces = [
        SlicePiece(index=(1, 1, -1), vertices=tri, volume=0.5),
        SlicePiece(index=(2, 0, -1), vertices=-tri, volume=0.5),
    ]
    with pytest.raises(NumericalError, match="not translates"):
        classify_pieces(pieces)


# Recorded from the earlier implementation, which clamped every choice of
# n walls and deduplicated the candidates; values and row order are pinned.
PIECE_VERTEX_DIGESTS = {
    1: "6eb3fb5109a9dfd5",
    2: "63fc4e012417504f",
    3: "1241c96ec1dbdcc6",
    4: "d414ca1eeb9e4d94",
}


@pytest.mark.parametrize("n", sorted(PIECE_VERTEX_DIGESTS))
def test_piece_vertices_are_pinned(n):
    frame = build_frame(n)
    h = hashlib.sha256()
    for piece in enumerate_pieces(n, 3):
        verts = _piece_vertices(frame, piece.index)
        h.update(np.int64(len(verts)).tobytes())
        h.update(np.ascontiguousarray(verts, "<f8").tobytes())
    assert h.hexdigest()[:16] == PIECE_VERTEX_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_piece_vertices_are_the_shifted_hypersimplex(n):
    frame = build_frame(n)
    for k in itertools.product(range(-1, 3), repeat=n + 1):
        if not 0 < sum(k) < n + 1:
            continue
        z = _piece_vertices(frame, k) @ frame.vectors.T + np.asarray(k)
        corners = [c for c in itertools.product((0, 1), repeat=n + 1) if sum(c) == sum(k)]
        assert sorted(map(tuple, np.round(z).astype(int))) == corners
        assert np.allclose(z, np.round(z), atol=1e-12)


def _eulerian(n: int, m: int) -> int:
    """A(n, m): permutations of n elements with m descents."""
    return sum((-1) ** j * math.comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_level_counts_and_volumes_follow_the_closed_forms(n):
    """Level s holds C(N+s-1, n) pieces, and its pieces are hypersimplices
    whose volume is A(n, s-1) times that of the level-n simplex."""
    for slices in range(2, 11):
        pieces = enumerate_pieces(n, slices)
        assert len(pieces) == piece_count(n, slices)
        by_level = {}
        for p in pieces:
            by_level.setdefault(p.level, []).append(p.volume)
        unit = by_level[n][0]
        for s in range(1, n + 1):
            assert len(by_level.get(s, [])) == math.comb(slices + s - 1, n)
            for volume in by_level.get(s, []):
                assert volume / unit == pytest.approx(_eulerian(n, s - 1), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_vertices_equal_single_piece_vertices(n):
    frame = build_frame(n)
    for slices in (2, 5):
        pieces = enumerate_pieces(n, slices)
        indices = [p.index for p in pieces]
        assert indices == sorted(set(indices))
        for p in pieces:
            single = _piece_vertices(frame, p.index)
            assert single.dtype == p.vertices.dtype and single.shape == p.vertices.shape
            assert single.tobytes() == p.vertices.tobytes()


def test_piece_vertices_stack_must_share_a_level():
    with pytest.raises(ValueError, match="one level"):
        _piece_vertices(build_frame(2), [(1, 1, -1), (1, 1, 0)])


def test_oversized_windows_are_rejected_before_building():
    assert piece_count(4, 27) <= MAX_PIECES < piece_count(4, 28)
    with pytest.raises(ValidationError, match=r"--N 200 gives 266700000 pieces"):
        enumerate_pieces(4, 200)
    with pytest.raises(ValidationError, match=r"--N 100001 gives 100001 pieces"):
        enumerate_pieces(1, MAX_PIECES + 1)


def _level_group(n, slices, level):
    return [p for p in enumerate_pieces(n, slices) if p.level == level]


@pytest.mark.parametrize("chunk", [None, 3])
def test_classify_names_a_reflected_piece_inside_a_level(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(slicing, "CHECK_CHUNK", chunk)
    group = _level_group(2, 4, 2)
    assert len(group) >= 3
    mid = len(group) // 2
    bad = group[mid]
    group[mid] = SlicePiece(index=bad.index, vertices=-bad.vertices, volume=bad.volume)
    with pytest.raises(NumericalError) as err:
        classify_pieces(group)
    assert f"pieces {group[0].index} and {bad.index} share level 2" in str(err.value)


def test_classify_accepts_permuted_translated_and_rescaled_copies():
    group = _level_group(3, 3, 2)
    assert len(group) >= 3
    rep = group[0]
    first, second = group[1], group[2]
    rows = np.random.default_rng(7).permutation(first.vertex_count)
    assert list(rows) != sorted(rows)
    group[1] = SlicePiece(first.index, first.vertices[rows], first.volume)
    group[2] = SlicePiece(second.index, 2.5 * second.vertices + [0.75, -3.0, 1.5], second.volume)
    for piece in group[1:3]:
        assert congruent_shape(rep, piece)
    (summary,) = classify_pieces(group)
    assert summary.count == len(group) and summary.representative is rep


def test_congruence_needs_a_one_to_one_match():
    # Same support, centroid and diameter, but 0 is a triple vertex in one
    # set and -1 and 1 are double vertices in the other.
    a = SlicePiece((1, 0), np.array([[-1.0], [0.0], [0.0], [0.0], [1.0]]), 2.0)
    b = SlicePiece((1, 0), np.array([[-1.0], [-1.0], [0.0], [1.0], [1.0]]), 2.0)
    assert not congruent_shape(a, b) and not congruent_shape(b, a)
    assert congruent_shape(a, SlicePiece((1, 0), a.vertices[::-1] + 4.0, 2.0))
