"""Discrete perimeter minimization on subdivided polytope surfaces.

A *region* is a set of mesh triangles; its area is the triangle-area sum and
its cut perimeter the length of edges separating inside from outside.  The
solver looks for a region of prescribed area and small cut perimeter with
simulated annealing over single-triangle flips:

* the candidate set holds every triangle touching the current boundary
  (indexed list, O(1) uniform sampling and updates); each triangle keeps
  the count of its cut edges, and a flip moves a triangle, its own count
  and then, in one loop over its neighbour row, each neighbour's, adding
  or removing exactly those whose count left or reached zero.  The
  annealer writes this update out inline at its two flip sites (a swap's
  first flip and each move's final flip); ``_toggle`` is the same update
  as a function, for the polish and as the annealer's test reference;
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

The flip loop reads three Python tables, built once per solve by
``_tables``: each triangle's neighbours and edge lengths as tuple rows and
its area.  They hold one Python object per distinct value, one int per
triangle id and one float per distinct length or area (a level-5 cube has
two lengths and one area), so they take about 200 bytes per triangle (110
of them the neighbours), and a solve peaks near 240 bytes per triangle.

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
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleRegion, ValidationError, VolumeOutOfRange, VolumeTooLarge, checked_int
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
        every edge lies on two triangles.
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
    cooling = (1e-3) ** (1.0 / max(1, iterations))
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
    if not volume > 0:
        raise VolumeOutOfRange("volume must be positive")
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


def _shared(values: np.ndarray) -> np.ndarray:
    """``values`` as an object array holding one Python float per distinct
    value.  Lengths and areas are non-negative and finite, so equal values
    have equal bits: sharing a float leaves every entry's bits as they were."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct.astype(object)[inverse]


def _tables(mesh: SurfaceMesh) -> tuple[list[tuple], list[tuple], list[float]]:
    """The annealer's neighbour, edge-length and area tables: a tuple row
    per triangle, built from one Python object per distinct value (one int
    per triangle id, one float per distinct length or area).  The rows are
    zipped from the columns, in half the time ``map(tuple, ...)`` takes."""
    ids = np.arange(mesh.triangle_count).astype(object)
    nbrs = list(zip(*ids[mesh.tri_neighbors].T.tolist()))
    lens = list(zip(*_shared(mesh.edge_lengths)[mesh.tri_edges].T.tolist()))
    return nbrs, lens, _shared(mesh.areas).tolist()


def _toggle(mask, cuts, cand, pos, nbrs, t: int) -> None:
    """Move triangle t to the other side, then update the cut count and
    candidacy of t and of each neighbour in row order.

    A triangle is a candidate exactly when it has a cut edge, so t joins
    when its count becomes 3 and leaves when it becomes 0, and a neighbour
    joins when its count rises to 1 and leaves when it falls to 0.
    Replaying one flip sequence on level-5 meshes, this loop over t's row
    took 0.89-0.96 times as long as the four updates written out; in the
    annealer a loop over a fresh tuple of t and its row took 1.10 times as
    long.

    ``_anneal`` writes this update out at its two flip sites: a call per
    flip made level-5 solves 5-9% slower (perfbench ``solve``, 2-core
    x86-64, Python 3.11).  ``_State.flip`` calls this copy, and the replay
    test holds the annealer's to it."""
    s = not mask[t]
    mask[t] = s
    c = cuts[t] = 3 - cuts[t]
    if c == 3:
        pos[t] = len(cand)
        cand.append(t)
    elif not c:
        p = pos[t]
        last = cand[-1]
        cand[p] = last
        pos[last] = p
        cand.pop()
        pos[t] = -1
    for u in nbrs[t]:
        # the edge to a neighbour on t's new side is no longer cut
        if mask[u] == s:
            cuts[u] -= 1
            if not cuts[u]:
                p = pos[u]
                last = cand[-1]
                cand[p] = last
                pos[last] = p
                cand.pop()
                pos[u] = -1
        else:
            cuts[u] += 1
            if cuts[u] == 1:
                pos[u] = len(cand)
                cand.append(u)


class _State:
    """Mutable flip-state shared by the annealing and polish phases.

    ``cuts[t]`` counts the cut edges of triangle t; t is in the candidate
    list ``cand``, at index ``pos[t]``, exactly when ``cuts[t] > 0``
    (``pos[t] = -1`` otherwise).
    """

    __slots__ = (
        "nbrs", "lens", "areas", "mask", "cuts", "area", "perimeter", "count",
        "cand", "pos", "volume",
    )

    def __init__(self, mesh, nbrs, lens, areas, init_mask, volume):
        mask = np.asarray(init_mask, dtype=bool)
        cut = mask[mesh.tri_neighbors] != mask[:, None]
        cuts = cut.sum(axis=1)
        # boundary triangles in increasing order: moves are drawn by position
        cand = np.flatnonzero(cuts)
        pos = np.full(len(mask), -1)
        pos[cand] = np.arange(len(cand))
        self.nbrs = nbrs
        self.lens = lens
        self.areas = areas
        self.mask = mask.tolist()
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
        s = self.mask[t]
        m = self.mask
        dp = 0.0
        for u, l in zip(self.nbrs[t], self.lens[t]):
            dp += l if m[u] == s else -l
        da = -self.areas[t] if s else self.areas[t]
        return dp, da

    def flip(self, t: int, dp: float, da: float) -> None:
        self.count += 1 if da > 0 else -1
        self.area += da
        self.perimeter += dp
        _toggle(self.mask, self.cuts, self.cand, self.pos, self.nbrs, t)

    def cheapest_flip(self, inside: bool) -> tuple[int, float, float]:
        """(t, dp, da) of the boundary triangle on the given side whose flip
        adds the least perimeter, the first one on ties; t = -1 if none."""
        best_t, best_dp, best_da = -1, math.inf, 0.0
        m = self.mask
        for t in self.cand:
            if m[t] != inside:
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
    a time."""
    for start in range(0, iterations, DRAW_BLOCK):
        block = rng.random(4 * min(DRAW_BLOCK, iterations - start)).tolist()
        yield from zip(block[0::4], block[1::4], block[2::4], block[3::4])


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
    below the area penalty scale.  ``state`` is used up: its mask is left
    where the walk ended, and its area, perimeter and count are not updated.

    A feasible state, |area - V| <= feas = 0.02 V with V > 0, has area at
    least 0.98 V > 0, so it is never empty: the walk keeps no triangle count.

    The flip update of ``_toggle`` is written out at two places, the swap's
    first flip and the move's final flip (the accepted triangle, or the
    swap's first triangle flipped back), in ``_toggle``'s order of list
    operations.  The mask holds only the two bool singletons, so sides are
    compared with ``is``, which is cheaper than ``==`` on bools.
    """
    mu = cfg.mu
    temp = cfg.t_initial
    cooling = cfg.cooling
    volume = state.volume
    mask, cuts, cand, pos, nbrs, lens, areas = (
        state.mask, state.cuts, state.cand, state.pos, state.nbrs, state.lens,
        state.areas,
    )
    area, perimeter = state.area, state.perimeter
    flips = swaps = flips_acc = swaps_acc = snapshots = 0
    best_cost = math.inf
    best_mask: list[bool] | None = None
    gap0 = abs(area - volume)
    if gap0 <= feas:
        # a feasible starting region (e.g. a vertex ball) is already a
        # snapshot; annealing can then only improve on it
        best_cost = perimeter + mu * gap0
        best_mask = list(mask)
        snapshots += 1
    exp = math.exp
    inf = math.inf
    for r_swap, r_pick, r2, r_acc in _draws(rng, cfg.iterations):
        if not cand:
            break
        t = cand[int(r_pick * len(cand))]
        # the perimeter and area change of flipping t, summed as deltas() does
        s = mask[t]
        u0, u1, u2 = nbrs[t]
        l0, l1, l2 = lens[t]
        dp = 0.0
        dp += l0 if mask[u0] is s else -l0
        dp += l1 if mask[u1] is s else -l1
        dp += l2 if mask[u2] is s else -l2
        da = -areas[t] if s else areas[t]
        base_gap = abs(area - volume)
        if r_swap >= 0.5:
            swaps += 1
            t1, dp1, da1 = t, dp, da
            # the swap's first flip: _toggle(mask, cuts, cand, pos, nbrs, t1)
            # written out
            s = not s
            mask[t1] = s
            c = cuts[t1] = 3 - cuts[t1]
            if c == 3:
                pos[t1] = len(cand)
                cand.append(t1)
            elif not c:
                p = pos[t1]
                last = cand[-1]
                cand[p] = last
                pos[last] = p
                cand.pop()
                pos[t1] = -1
            for u in nbrs[t1]:
                if mask[u] is s:
                    c = cuts[u] - 1
                    cuts[u] = c
                    if not c:
                        p = pos[u]
                        last = cand[-1]
                        cand[p] = last
                        pos[last] = p
                        cand.pop()
                        pos[u] = -1
                else:
                    c = cuts[u] + 1
                    cuts[u] = c
                    if c == 1:
                        pos[u] = len(cand)
                        cand.append(u)
            area += da1
            perimeter += dp1
            # a rejected swap, or one whose first flip emptied the boundary,
            # flips t1 back below: area + (-da1) is area - da1 to the bit,
            # and an infinite gap takes no snapshot
            if cand:
                t = cand[int(r2 * len(cand))]
                s = mask[t]
                u0, u1, u2 = nbrs[t]
                l0, l1, l2 = lens[t]
                dp = 0.0
                dp += l0 if mask[u0] is s else -l0
                dp += l1 if mask[u1] is s else -l1
                dp += l2 if mask[u2] is s else -l2
                da = -areas[t] if s else areas[t]
                new_gap = abs(area + da - volume)
                dcost = dp1 + dp + mu * (new_gap - base_gap)
                if dcost <= 0.0 or (temp > 1e-300 and r_acc < exp(-dcost / temp)):
                    swaps_acc += 1
                else:
                    t, dp, da, new_gap = t1, -dp1, -da1, inf
            else:
                t, dp, da, new_gap = t1, -dp1, -da1, inf
        else:
            flips += 1
            new_gap = abs(area + da - volume)
            dcost = dp + mu * (new_gap - base_gap)
            if not (dcost <= 0.0 or (temp > 1e-300 and r_acc < exp(-dcost / temp))):
                temp *= cooling
                continue
            flips_acc += 1
        # the move's final flip, of the accepted triangle or of t1 back:
        # _toggle(mask, cuts, cand, pos, nbrs, t) written out
        s = not mask[t]
        mask[t] = s
        c = cuts[t] = 3 - cuts[t]
        if c == 3:
            pos[t] = len(cand)
            cand.append(t)
        elif not c:
            p = pos[t]
            last = cand[-1]
            cand[p] = last
            pos[last] = p
            cand.pop()
            pos[t] = -1
        for u in nbrs[t]:
            if mask[u] is s:
                c = cuts[u] - 1
                cuts[u] = c
                if not c:
                    p = pos[u]
                    last = cand[-1]
                    cand[p] = last
                    pos[last] = p
                    cand.pop()
                    pos[u] = -1
            else:
                c = cuts[u] + 1
                cuts[u] = c
                if c == 1:
                    pos[u] = len(cand)
                    cand.append(u)
        area += da
        perimeter += dp
        if new_gap <= feas:
            # |area - V|: _polish's band cost here took pins 0.9205 -> 0.9723, 0.9796 -> 1.2111
            cost = perimeter + mu * new_gap
            if cost < best_cost:
                best_cost = cost
                best_mask = list(mask)
                snapshots += 1
        temp *= cooling
    counts = (flips, flips_acc, swaps, swaps_acc, snapshots)
    return best_mask, counts


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
    """Search for a region of the given area with minimal cut perimeter."""
    total = mesh.total_area()
    if not 0.0 < volume < total:
        raise VolumeOutOfRange(
            f"volume {volume} outside (0, {total}) for this mesh"
        )
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
    if len(warm) > cfg.restarts:
        raise ValidationError(
            f"{len(warm)} warm starts for {cfg.restarts} restarts: each warm "
            "start takes one restart, so the extra ones would never run"
        )
    nbrs, lens, areas = _tables(mesh)

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
        state = _State(mesh, nbrs, lens, areas, init, volume)
        del init
        best_mask, counts = _anneal(state, cfg, rng, feas)
        del state
        if best_mask is not None:
            finalists.append(best_mask)
        best_here: tuple[float, np.ndarray] | None = None
        polished = 0
        for mask in finalists:
            st = _State(mesh, nbrs, lens, areas, mask, volume)
            polished += _polish(st, cfg)
            # feasible, so not empty (see ``_anneal``)
            if abs(st.area - volume) <= feas and (
                best_here is None or st.perimeter < best_here[0]
            ):
                best_here = (st.perimeter, np.array(st.mask, dtype=bool))
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
