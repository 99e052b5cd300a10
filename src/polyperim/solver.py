"""Discrete perimeter minimization on subdivided polytope surfaces.

A *region* is a set of mesh triangles; its area is the triangle-area sum and
its cut perimeter the length of edges separating inside from outside.  The
solver looks for a region of prescribed area and small cut perimeter with
simulated annealing over single-triangle flips:

* the candidate set holds every triangle touching the current boundary
  (indexed list, O(1) uniform sampling and updates); each triangle keeps
  its side as its signed area (+area outside, -area inside, which is also
  the area change of flipping it) and the 3-bit pattern of its cut sides
  (bit j set when side j is cut).  A flip negates the signed area, XORs
  the triangle's own pattern with 7 and then each neighbour's with the bit
  of the shared side, adding or removing exactly those whose pattern left
  or reached zero; a removal pops the last candidate first and moves it
  into the leaving one's slot unless it is the leaving one.  The annealer
  writes this update out once, inline, and loops back through it for a
  swap's second flip; ``_toggle`` is the same update as a function, for
  the polish.  Masks are read off the sign bits only when a region leaves
  the flip state;
* moves are scored by the penalized cost  perimeter + mu * |area - V|  and
  accepted by the Metropolis rule under a geometric cooling schedule;
* whenever the state is volume-feasible (area within 2% of V) the best
  penalized cost and its mask are snapshotted;
* the best snapshot is polished by steepest-descent flips that price area
  only by its distance outside the band [V, 1.02 V], so a region in the
  band descends on perimeter alone (no flip takes it out of the band or
  over its top), then topped up so the final area is >= V (never below:
  the reported perimeter must stay an honest upper bound for the target
  volume, not for a slightly smaller one).

The flip loop reads four Python tables built by ``_tables`` on a mesh's
first solve and kept until the mesh is dropped: each triangle's neighbours, back bits (the bit of the shared side in each
neighbour's pattern), perimeter change under each of its 8 patterns (so a
proposal's is one lookup) and area.  Neighbour and shared side are the
quotient and remainder by 3 of the mesh's half-edge twins
(``SurfaceMesh.tri_twins``), so no side is matched again here.  All but
the neighbour rows, which hold one int per triangle id, are shared objects;
the tables take about 123 bytes per triangle (99 of them the neighbours),
and a solve peaks near 185.

Restarts use independent RNG streams seeded by (seed, restart index); warm
starts (typically vertex balls, regions of the mesh being solved) occupy
the first restarts, the rest begin from random connected blobs.  Each
restart reports its move counts (``MoveCounts``): flips and swaps proposed
and accepted, feasible snapshots and the flips polishing kept.

``anisotropy_bound`` returns the mesh constant kappa >= 1 comparing discrete
cut lengths to Euclidean lengths: a straight segment rendered as a staircase
of triangle edges is at most kappa times longer, where for each triangle
kappa_tri = 1 / cos(gap/2) and gap is the largest angular gap between its
edge directions (mod pi).  That gap is the triangle's largest interior
angle: the three edge lines meet pairwise at the three vertices, so the
gaps between their directions are the interior angles, which sum to pi.
kappa is therefore 1 / cos(A/2) for the largest interior angle A over the
mesh, read off the edge lengths.  Right isosceles triangles give sqrt(2),
equilateral ones 2/sqrt(3).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (NoFeasibleRegion, ValidationError, VolumeOutOfRange, VolumeTooLarge,
                     checked_int, checked_real)
from .mesh import SurfaceMesh

FEASIBILITY_FRACTION = 0.02
POLISH_MOVES = 5000  # cap on steepest-descent flips in one polish
# iterations per batch of uniform draws: 4096 floats, about 130 kB with
# their list, so memory stays flat in the iteration count; a Generator's
# stream does not depend on how draws are batched
DRAW_BLOCK = 1024


@dataclass(frozen=True)
class Region:
    """Triangle subset of a surface mesh."""

    mesh: SurfaceMesh
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.mesh.triangle_count,):
            raise ValidationError("mask length does not match the mesh")
        object.__setattr__(self, "mask", mask)

    @property
    def area(self) -> float:
        return float(self.mesh.areas[self.mask].sum())

    @property
    def cut_perimeter(self) -> float:
        """Length of the edges between the region and the rest of the mesh,
        summed in edge order.

        The cut edges are read off the smaller side's own triangles: an edge
        of that side is cut when it occurs once among the side's edges, as
        every edge lies on two triangles.  Sorting the edges puts the two
        copies of an uncut edge next to each other, and a run mask keeps
        the others in ascending order (``np.unique`` with counts took 27%
        longer on level-7 cube vertex balls).
        """
        mesh = self.mesh
        side = self.mask if 2 * self.mask.sum() <= len(self.mask) else ~self.mask
        edges = np.sort(mesh.tri_edges.take(np.flatnonzero(side), axis=0), axis=None)
        once = np.ones(len(edges), dtype=bool)
        repeat = edges[1:] == edges[:-1]
        once[1:] &= ~repeat
        once[:-1] &= ~repeat
        return float(mesh.edge_lengths[edges[once]].sum())

    @property
    def triangle_count(self) -> int:
        return int(self.mask.sum())

    @property
    def centroid(self) -> np.ndarray:
        """Area-weighted mean of the region's triangle centroids."""
        tris = np.flatnonzero(self.mask)
        if len(tris) == 0:
            raise ValidationError("an empty region has no centroid")
        a = self.mesh.areas[tris]
        return (a[:, None] * self.mesh.triangle_centroids(tris)).sum(axis=0) / a.sum()


def anisotropy_bound(mesh: SurfaceMesh) -> float:
    """Worst-case discrete-to-straight length ratio over mesh triangles."""
    a, b, c = np.sort(mesh.edge_lengths[mesh.tri_edges], axis=1).T
    # half-angle form for the angle C opposite the longest edge c:
    # cos^2(C/2) = (a + b - c)(a + b + c) / (4ab)
    cos_sq = (a + b - c) * (a + b + c) / (4.0 * a * b)
    return 1.0 / math.sqrt(float(cos_sq.min()))


@dataclass(frozen=True)
class SolverConfig:
    """Annealing settings; ``default_config`` chooses every value."""

    seed: int
    iterations: int
    restarts: int
    t_initial: float
    cooling: float
    mu: float

    def __post_init__(self):
        for name, lo in (("iterations", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, lo))
        for name in ("t_initial", "mu"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name, 0.0))
        # cooling may be 1: a constant temperature
        object.__setattr__(self, "cooling",
                           checked_real(self.cooling, "cooling", 0.0, 1.0, hi_closed=True))


def default_config(
    mesh: SurfaceMesh,
    seed: int = 0,
    iterations: int = 200_000,
    restarts: int = 8,
) -> SolverConfig:
    """Scale the penalty weight and temperatures to the mesh.

    mu makes one triangle of area error cost far more than any single-move
    perimeter change: the annealer charges it on |area - V|, the polish on
    the area's distance outside [V, (1 + FEASIBILITY_FRACTION) V].  The
    initial temperature lets area fluctuate by a few triangles, and cooling
    reaches 1e-3 of it by the final iteration.
    """
    a_min = float(mesh.areas.min())
    a_mean = float(mesh.areas.mean())
    l_max = mesh.max_edge_length()
    mu = 30.0 * l_max / a_min
    t_initial = mu * a_mean
    iterations = checked_int(iterations, "iterations", 1)
    cooling = (1e-3) ** (1.0 / iterations)
    return SolverConfig(
        seed=seed,
        iterations=iterations,
        restarts=restarts,
        t_initial=t_initial,
        cooling=cooling,
        mu=mu,
    )


@dataclass(frozen=True)
class MoveCounts:
    """What one restart did: annealing moves proposed and accepted by kind,
    feasible snapshots taken (a feasible start counts as one), and the flips
    that polishing kept.  Deterministic for a given mesh, volume and config."""

    flips_proposed: int
    flips_accepted: int
    swaps_proposed: int
    swaps_accepted: int
    snapshots: int
    polish_flips: int


@dataclass(frozen=True)
class SolverResult:
    region: Region
    perimeter: float
    area: float
    best_restart: int
    restart_perimeters: tuple[float, ...]
    moves: tuple[MoveCounts, ...]


def vertex_ball_region(mesh: SurfaceMesh, vertex: int, volume: float) -> Region:
    """Discrete geodesic ball about a polytope vertex.

    The radius solves V = omega r^2 / 2 for the vertex link omega; the
    region is every triangle whose centroid lies within intrinsic distance r
    of the vertex.  Inside the vertex star the intrinsic distance needs no
    unfolding beyond the facet itself: a centroid on an incident facet is
    coplanar with the vertex, so the straight ambient segment lies in the
    facet and realizes the geodesic.  Triangles of non-incident facets are
    farther than r_max >= r and are excluded outright.  The raw radius cut
    can miss V by several triangles, so the region is a prefix of the star
    triangles in stable centroid-distance order: the shortest one of area
    >= V if the cut is smaller, else the longest one within the cut of area
    <= V + the largest triangle area.  Either way the area lands within one
    triangle-area of V.

    The star order depends only on the mesh and the vertex, so
    ``SurfaceMesh.vertex_star`` computes it on the first query and keeps it
    on the mesh (rejecting a vertex index out of range); a later query about
    that vertex takes binary searches in it and one mask write.
    """
    volume = checked_real(volume, "volume", 0.0, error=VolumeOutOfRange)
    star = mesh.vertex_star(vertex)
    cone = star.cone
    if volume > cone.valid_volume_max:
        raise VolumeTooLarge(
            f"volume {volume} exceeds the star-contained bound "
            f"{cone.valid_volume_max} at vertex {vertex}"
        )
    r = math.sqrt(2.0 * volume / cone.link_volume)
    cut = int(np.searchsorted(star.distances, r, side="right"))
    size = int(np.searchsorted(star.prefix_area, volume, side="left")) + 1
    if size <= cut:
        slack = volume + float(mesh.areas.max())
        size = int(np.searchsorted(star.prefix_area[:cut], slack, side="right"))
    mask = np.zeros(mesh.triangle_count, dtype=bool)
    mask[star.triangles[:size]] = True
    return Region(mesh=mesh, mask=mask)


# ---------------------------------------------------------------------------
# annealing internals (python lists and tuples for speed in the flip loop;
# the tables share one object per distinct value)
# ---------------------------------------------------------------------------

def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, as a Python loop adds (``np.sum`` is pairwise)."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def _shared_rows(table: np.ndarray, key: np.ndarray, row) -> list:
    """``row(table[t])`` for every t, made once per distinct ``key[t]`` and
    shared.  The key is 1-D: ``np.unique(..., axis=0)`` on the rows took
    four times as long.  Lengths and areas are non-negative and finite, so
    equal values have equal bits: sharing leaves every entry's bits as they
    were."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows = [row(r) for r in table[first].tolist()]
    return np.fromiter(rows, dtype=object, count=len(rows))[inverse].tolist()


def _flip_changes(lengths: list[float]) -> tuple[float, ...]:
    """Perimeter change of flipping a triangle with these side lengths
    under each cut pattern k: summed side by side from 0.0, +l for a side
    uncut under k and -l for a cut one (bit j of k is side j)."""
    changes = []
    for k in range(8):
        dp = 0.0
        for j, length in enumerate(lengths):
            dp += -length if k >> j & 1 else length
        changes.append(dp)
    return tuple(changes)


def _tables(mesh: SurfaceMesh) -> tuple[list[tuple], list[tuple], list[tuple], list[float]]:
    """The annealer's tables, one entry per triangle t: its neighbour row,
    its back-bit row (the bit of the shared side in each neighbour's cut
    pattern), its perimeter-change row (``_flip_changes`` of its side
    lengths) and its area.

    Neighbour rows hold one Python int per triangle id and are zipped from
    the columns, in half the time ``map(tuple, ...)`` takes.  The other
    entries are shared: one back-bit row per slot triple (at most 27), one
    perimeter-change row per triple of distinct lengths and one float per
    distinct area.  Neighbour and slot are the quotient and remainder of
    each half-edge twin by 3 (``SurfaceMesh.tri_twins``)."""
    across, slots = np.divmod(mesh.tri_twins, 3)
    back = _shared_rows(
        slots, slots @ np.array([9, 3, 1]), lambda row: tuple(1 << j for j in row)
    )
    # distinct-length indices i0, i1, i2 < n: (i0 n + i1) < n**2 fits in an
    # int64, and numbering those pairs first keeps the triple's key below T n
    index = np.unique(mesh.edge_lengths, return_inverse=True)[1][mesh.tri_edges]
    n = int(index.max()) + 1
    pairs = np.unique(index[:, 0] * n + index[:, 1], return_inverse=True)[1]
    dps = _shared_rows(mesh.edge_lengths[mesh.tri_edges], pairs * n + index[:, 2], _flip_changes)
    del slots, index, pairs
    # the neighbour rows last, each temporary freed before the next is made
    columns = np.arange(mesh.triangle_count).astype(object)[across].T.tolist()
    del across
    nbrs = list(zip(*columns))
    del columns
    return nbrs, back, dps, _shared_rows(mesh.areas, mesh.areas, float)


#: the annealer tables of each mesh solved, keyed by identity
#: (``SurfaceMesh`` compares by identity), each dropped with its mesh; the
#: solver only reads them
_MESH_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _toggle(sa, cuts, cand, pos, nbrs, back, t: int) -> None:
    """Move triangle t to the other side, then update the cut pattern and
    candidacy of t and of each neighbour in row order.

    The side record ``sa[t]`` is the signed area (see ``_State``), so the
    move negates it.  A triangle is a candidate exactly when its pattern is
    non-zero.  Every side of t changes, so its pattern is XORed with 7: t
    joins when it becomes 7 and leaves when it becomes 0.  A neighbour's
    pattern is XORed with the bit b of the shared side: it joins when the
    pattern becomes b (it was 0) and leaves when it becomes 0.  A leaving
    triangle x is removed pop-first: the last candidate is popped and, if
    it is not x, moved into x's slot, which leaves ``cand`` and ``pos`` as
    swapping x to the end and popping would.

    ``_anneal`` writes this update out inline: a call per flip of the
    earlier count-based update made level-5 solves 5-9% slower (perfbench
    ``solve``, 2-core x86-64, Python 3.11).
    ``_State.flip`` (the polish) calls this copy."""
    sa[t] = -sa[t]
    c = cuts[t] = cuts[t] ^ 7
    if c == 7:
        pos[t] = len(cand)
        cand.append(t)
    elif not c:
        last = cand.pop()
        if last != t:
            p = pos[t]
            cand[p] = last
            pos[last] = p
        pos[t] = -1
    for u, b in zip(nbrs[t], back[t]):
        c = cuts[u] = cuts[u] ^ b
        if not c:
            last = cand.pop()
            if last != u:
                p = pos[u]
                cand[p] = last
                pos[last] = p
            pos[u] = -1
        elif c == b:
            pos[u] = len(cand)
            cand.append(u)


class _State:
    """Mutable flip-state shared by the annealing and polish phases.

    The side record ``sa[t]`` is the signed area of triangle t: ``areas[t]``
    when t is outside, ``-areas[t]`` when it is inside, so it is also the
    area change of flipping t, and a flip negates it (exactly).  The side
    is the sign bit (``np.signbit``, ``math.copysign``), not ``< 0``, so a
    zero-area triangle keeps its side; masks are read off it only when a
    region leaves the state.  Outside entries are the shared floats of the
    areas table, so only inside triangles add a float of their own.

    Bit j of ``cuts[t]`` is set when side j of triangle t, the side towards
    ``nbrs[t][j]`` (``mesh.tri_twins[t, j] // 3``), is cut; t is in the
    candidate list ``cand``, at index ``pos[t]``, exactly when ``cuts[t]``
    is non-zero (``pos[t] = -1`` otherwise).
    """

    __slots__ = (
        "nbrs", "back", "dps", "sa", "cuts", "area", "perimeter", "count",
        "cand", "pos", "volume",
    )

    def __init__(self, mesh, tables, init_mask, volume):
        mask = np.asarray(init_mask, dtype=bool)
        cut = mask[mesh.tri_twins // 3] != mask[:, None]
        cuts = cut @ np.array([1, 2, 4])
        # boundary triangles in increasing order: moves are drawn by position
        cand = np.flatnonzero(cuts)
        pos = np.full(len(mask), -1)
        pos[cand] = np.arange(len(cand))
        self.nbrs, self.back, self.dps, areas = tables
        sa = list(areas)
        for t in np.flatnonzero(mask).tolist():
            sa[t] = -sa[t]
        self.sa = sa
        self.cuts = cuts.tolist()
        self.volume = volume
        self.cand = cand.tolist()
        self.pos = pos.tolist()
        self.count = int(mask.sum())
        self.area = _running_sum(mesh.areas[mask])
        # every cut edge is seen from both of its triangles
        self.perimeter = _running_sum(mesh.edge_lengths[mesh.tri_edges[cut]]) * 0.5

    def deltas(self, t: int) -> tuple[float, float]:
        """(perimeter change, signed area change) of flipping triangle t."""
        return self.dps[t][self.cuts[t]], self.sa[t]

    def flip(self, t: int, dp: float, da: float) -> None:
        self.count += 1 if da > 0 else -1
        self.area += da
        self.perimeter += dp
        _toggle(self.sa, self.cuts, self.cand, self.pos, self.nbrs, self.back, t)

    def cheapest_flip(self, inside: bool) -> tuple[int, float, float]:
        """(t, dp, da) of the boundary triangle on the given side whose flip
        adds the least perimeter, the first one on ties; t = -1 if none."""
        best_t, best_dp, best_da = -1, math.inf, 0.0
        sa = self.sa
        for t in self.cand:
            # the sign bit is the side (see ``_State``)
            if (math.copysign(1.0, sa[t]) < 0.0) != inside:
                continue
            dp, da = self.deltas(t)
            if dp < best_dp:
                best_t, best_dp, best_da = t, dp, da
        return best_t, best_dp, best_da


def _random_blob(rng, nbrs, areas, volume: float) -> list[bool]:
    """Connected triangle blob grown breadth-first to roughly the volume."""
    n = len(areas)
    start = int(rng.integers(n))
    mask = [False] * n
    mask[start] = True
    acc = areas[start]
    frontier = [start]
    while acc < volume and frontier:
        nxt: list[int] = []
        for t in frontier:
            for u in nbrs[t]:
                if not mask[u]:
                    mask[u] = True
                    acc += areas[u]
                    nxt.append(u)
                    if acc >= volume:
                        return mask
        frontier = nxt
    return mask


def _draws(rng, iterations: int):
    """Four uniforms per annealing iteration, drawn DRAW_BLOCK iterations at
    a time.  The blocks are drawn lazily and chained in C, so no Python
    frame is resumed per iteration."""

    def block(start):
        u = rng.random(4 * min(DRAW_BLOCK, iterations - start)).tolist()
        return zip(u[0::4], u[1::4], u[2::4], u[3::4])

    return chain.from_iterable(map(block, range(0, iterations, DRAW_BLOCK)))


def _anneal(
    state: _State, cfg: SolverConfig, rng, feas: float
) -> tuple[list[bool] | None, tuple[int, ...]]:
    """Run one annealing pass; return the best feasible mask and the move
    counts (flips proposed and accepted, swaps proposed and accepted,
    snapshots).

    Each iteration proposes either a single boundary flip or a swap (one
    flip, then a second drawn from the updated boundary).  On equal-area
    meshes a swap of opposite sides leaves the area unchanged, so swaps
    keep rearranging the cut even after the temperature has dropped far
    below the area penalty scale.  ``state`` is used up: its side record is
    left where the walk ended, and its area, perimeter and count are not
    updated.

    A feasible state, |area - V| <= feas = 0.02 V with V > 0, has area at
    least 0.98 V > 0, so it is never empty: the walk keeps no triangle count.

    A proposal's perimeter change is one lookup, ``dps[t][cuts[t]]``, and
    its area change is the side record ``sa[t]``, which the flip negates.
    The flip update of ``_toggle`` is written out once, its neighbour row
    unrolled and each removal pop-first; a swap's first flip loops back
    through it for the second flip or the undo.  |area - V| is taken after
    each move's flips, not per proposal.  Snapshots copy the side record;
    the mask is read off its sign bits once, on return.
    """
    mu = cfg.mu
    temp = cfg.t_initial
    cooling = cfg.cooling
    volume = state.volume
    sa, cuts, cand, pos, nbrs, back, dps = (
        state.sa, state.cuts, state.cand, state.pos, state.nbrs, state.back, state.dps,
    )
    area, perimeter = state.area, state.perimeter
    flips = swaps = flips_acc = swaps_acc = snapshots = 0
    best_cost = math.inf
    best_sa: list[float] | None = None
    gap = abs(area - volume)
    if gap <= feas:
        # a feasible starting region (e.g. a vertex ball) is already a
        # snapshot; annealing can then only improve on it
        best_cost = perimeter + mu * gap
        best_sa = list(sa)
        snapshots += 1
    exp = math.exp
    inf = math.inf
    for r_swap, r_pick, r2, r_acc in _draws(rng, cfg.iterations):
        if not cand:
            break
        t = cand[int(r_pick * len(cand))]
        dp = dps[t][cuts[t]]
        da = sa[t]
        second = r_swap >= 0.5
        if second:
            swaps += 1
            t1, dp1, da1 = t, dp, da
        else:
            flips += 1
            new_gap = abs(area + da - volume)
            dcost = dp + mu * (new_gap - gap)
            if not (dcost <= 0.0 or (temp > 1e-300 and r_acc < exp(-dcost / temp))):
                temp *= cooling
                continue
            flips_acc += 1
        while True:
            # _toggle(sa, cuts, cand, pos, nbrs, back, t) written out; da is sa[t]
            sa[t] = -da
            c = cuts[t] = cuts[t] ^ 7
            if c == 7:
                pos[t] = len(cand)
                cand.append(t)
            elif not c:
                last = cand.pop()
                if last != t:
                    p = pos[t]
                    cand[p] = last
                    pos[last] = p
                pos[t] = -1
            u0, u1, u2 = nbrs[t]
            b0, b1, b2 = back[t]
            c = cuts[u0] = cuts[u0] ^ b0
            if not c:
                last = cand.pop()
                if last != u0:
                    p = pos[u0]
                    cand[p] = last
                    pos[last] = p
                pos[u0] = -1
            elif c == b0:
                pos[u0] = len(cand)
                cand.append(u0)
            c = cuts[u1] = cuts[u1] ^ b1
            if not c:
                last = cand.pop()
                if last != u1:
                    p = pos[u1]
                    cand[p] = last
                    pos[last] = p
                pos[u1] = -1
            elif c == b1:
                pos[u1] = len(cand)
                cand.append(u1)
            c = cuts[u2] = cuts[u2] ^ b2
            if not c:
                last = cand.pop()
                if last != u2:
                    p = pos[u2]
                    cand[p] = last
                    pos[last] = p
                pos[u2] = -1
            elif c == b2:
                pos[u2] = len(cand)
                cand.append(u2)
            area += da
            perimeter += dp
            if not second:
                break
            second = False
            # the swap's second flip, drawn from the updated boundary
            if cand:
                t = cand[int(r2 * len(cand))]
                dp = dps[t][cuts[t]]
                da = sa[t]
                new_gap = abs(area + da - volume)
                dcost = dp1 + dp + mu * (new_gap - gap)
                if dcost <= 0.0 or (temp > 1e-300 and r_acc < exp(-dcost / temp)):
                    swaps_acc += 1
                    continue
            # a rejected swap, or one whose first flip emptied the boundary,
            # flips t1 back: -da1 is sa[t1] now, area + (-da1) is area - da1
            # to the bit, and an infinite gap takes no snapshot
            t, dp, da, new_gap = t1, -dp1, -da1, inf
        gap = abs(area - volume)
        if new_gap <= feas:
            # |area - V|: _polish's band cost here took pins 0.9205 -> 0.9723, 0.9796 -> 1.2111
            cost = perimeter + mu * new_gap
            if cost < best_cost:
                best_cost = cost
                best_sa = list(sa)
                snapshots += 1
        temp *= cooling
    counts = (flips, flips_acc, swaps, swaps_acc, snapshots)
    return (None if best_sa is None else np.signbit(best_sa).tolist()), counts


def _polish(state: _State, cfg: SolverConfig) -> int:
    """Steepest-descent flips to a local minimum of the band cost,
    then try boundary slides (cheapest addition plus cheapest removal),
    then top up the area to at least the target volume.  Return the
    number of flips kept (a slide is two).

    The band cost is perimeter + mu * (distance of the area outside
    [V, (1 + FEASIBILITY_FRACTION) V]): a region in the band descends on
    perimeter alone, and one outside it is driven in.  No move takes a
    region in the band out of it, or one at or below the top over it: mu
    charges an overshoot past the top only by its size, which can be less
    than the perimeter a flip saves."""
    mu = cfg.mu
    volume = state.volume
    top = (1.0 + FEASIBILITY_FRACTION) * volume

    def outside(area: float) -> float:
        return max(volume - area, area - top, 0.0)

    moves = 0
    kept = 0
    while moves < POLISH_MOVES:
        moves += 1
        best_t, best_dp, best_da = -1, 0.0, 0.0
        best_d = -1e-12
        area = state.area
        gap = outside(area)
        # where a move may take the area: a region in the band stays in it,
        # and none is pushed over the top, from where the top-up (which
        # only adds area) could not bring it back
        lo = volume if gap == 0.0 else -math.inf
        hi = top if area <= top else math.inf
        for t in state.cand:
            dp, da = state.deltas(t)
            new = area + da
            if state.count == 1 and da < 0 or not lo <= new <= hi:
                continue
            d = dp + mu * (outside(new) - gap)
            if d < best_d:
                best_d, best_t, best_dp, best_da = d, t, dp, da
        if best_t >= 0:
            state.flip(best_t, best_dp, best_da)
            kept += 1
            continue
        # no single flip helps; slide the boundary by one triangle
        add_t, add_dp, add_da = state.cheapest_flip(False)
        if add_t < 0:
            break
        # the addition leaves at least two triangles inside, so the removal
        # below never empties the region
        state.flip(add_t, add_dp, add_da)
        rem_t, rem_dp, rem_da = state.cheapest_flip(True)
        new = state.area + rem_da
        net = add_dp + rem_dp + mu * (outside(new) - gap)
        if rem_t >= 0 and net < -1e-12 and lo <= new <= hi:
            state.flip(rem_t, rem_dp, rem_da)
            kept += 2
        else:
            state.flip(add_t, -add_dp, -add_da)
            break
    while state.area < volume:
        best_t, best_dp, best_da = state.cheapest_flip(False)
        if best_t < 0:
            break
        state.flip(best_t, best_dp, best_da)
        kept += 1
    return kept


def minimize_perimeter(
    mesh: SurfaceMesh,
    volume: float,
    config: SolverConfig | None = None,
    warm_starts: list[Region] | None = None,
) -> SolverResult:
    """Search for a region of the given area with minimal cut perimeter.

    The annealer's tables are built on a mesh's first solve and kept, in
    ``_MESH_TABLES``, until the mesh is dropped: a later solve on the same
    mesh (another volume, config or set of warm starts) reuses them.  A
    single solve, as the ``solve`` command makes, gains nothing from this.
    """
    volume = checked_real(volume, "volume", 0.0, mesh.total_area(), VolumeOutOfRange)
    smallest = float(mesh.areas.min())
    if (1.0 + FEASIBILITY_FRACTION) * volume < smallest:
        raise VolumeOutOfRange(
            f"volume {volume} is out of reach: the smallest triangle has "
            f"area {smallest}"
        )
    cfg = config if config is not None else default_config(mesh)
    feas = FEASIBILITY_FRACTION * volume
    warm = list(warm_starts) if warm_starts else []
    if any(region.mesh is not mesh for region in warm):
        raise ValidationError("every warm start must be a region of the mesh being solved")
    if any(not region.mask.any() or region.mask.all() for region in warm):
        raise ValidationError("a warm start must be neither empty nor the whole mesh: "
                              "it has no boundary, so its restart could make no move")
    if len(warm) > cfg.restarts:
        raise ValidationError(
            f"{len(warm)} warm starts for {cfg.restarts} restarts: each warm "
            "start takes one restart, so the extra ones would never run"
        )
    tables = _MESH_TABLES.get(mesh)
    if tables is None:
        tables = _MESH_TABLES[mesh] = _tables(mesh)
    nbrs, _, _, areas = tables

    outcomes: list[tuple[float, int, np.ndarray]] = []
    per_restart: list[float] = []
    moves: list[MoveCounts] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        finalists: list[np.ndarray | list[bool]] = []
        if r < len(warm):
            init = warm[r].mask
            # polish the warm region directly too, in case annealing
            # wanders off without finding anything feasible
            finalists.append(init)
        else:
            init = _random_blob(rng, nbrs, areas, volume)
        # each flip state is dropped once used: the walk's and the polishes'
        # would otherwise be alive together
        state = _State(mesh, tables, init, volume)
        del init
        best_mask, counts = _anneal(state, cfg, rng, feas)
        del state
        if best_mask is not None:
            finalists.append(best_mask)
        best_here: tuple[float, np.ndarray] | None = None
        polished = 0
        for mask in finalists:
            st = _State(mesh, tables, mask, volume)
            polished += _polish(st, cfg)
            # feasible, so not empty (see ``_anneal``)
            if abs(st.area - volume) <= feas and (
                best_here is None or st.perimeter < best_here[0]
            ):
                best_here = (st.perimeter, np.signbit(st.sa))
            del st
        per_restart.append(math.inf if best_here is None else best_here[0])
        moves.append(MoveCounts(*counts, polished))
        if best_here is not None:
            outcomes.append((best_here[0], r, best_here[1]))

    if not outcomes:
        raise NoFeasibleRegion(
            f"no restart reached |area - {volume}| <= {feas}; "
            "increase iterations/mu or refine the mesh"
        )
    outcomes.sort(key=lambda o: (o[0], o[1]))
    _, best_r, best_mask_arr = outcomes[0]
    region = Region(mesh=mesh, mask=best_mask_arr)
    return SolverResult(
        region=region,
        perimeter=region.cut_perimeter,
        area=region.area,
        best_restart=best_r,
        restart_perimeters=tuple(per_restart),
        moves=tuple(moves),
    )
