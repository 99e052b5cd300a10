"""Discrete perimeter minimization on subdivided polytope surfaces.

A *region* is a set of mesh triangles; its area is the triangle-area sum and
its cut perimeter the length of edges separating inside from outside.  The
solver looks for a region of prescribed area and small cut perimeter with
simulated annealing over single-triangle flips:

* the candidate set holds every triangle touching the current boundary
  (indexed list, O(1) uniform sampling and updates); each triangle keeps
  the count of its cut edges, and one ``toggle`` flips a triangle, moves
  its own and its neighbours' counts and adds or removes exactly those
  whose count left or reached zero;
* moves are scored by the penalized cost  perimeter + mu * |area - V|  and
  accepted by the Metropolis rule under a geometric cooling schedule;
* whenever the state is volume-feasible (area within 2% of V) the best
  penalized cost and its mask are snapshotted;
* the best snapshot is polished by steepest-descent flips, then topped up
  so the final area is >= V (never below: the reported perimeter must stay
  an honest upper bound for the target volume, not for a slightly smaller
  one).

Restarts use independent RNG streams seeded by (seed, restart index); warm
starts (typically vertex balls) occupy the first restarts, the rest begin
from random connected blobs.  Each restart reports its move counts
(``MoveCounts``): flips and swaps proposed, accepted and rejected, feasible
snapshots and the flips polishing kept.

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

from .errors import NoFeasibleRegion, ValidationError, VolumeOutOfRange, VolumeTooLarge
from .mesh import SurfaceMesh

FEASIBILITY_FRACTION = 0.02
POLISH_MOVES = 5000  # cap on steepest-descent flips in one polish
# iterations per batch of uniform draws: memory stays flat in the iteration
# count, and a Generator's stream does not depend on how draws are batched
DRAW_BLOCK = 8192


@dataclass(frozen=True)
class Region:
    """Triangle subset of a surface mesh."""

    mesh: SurfaceMesh
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.mesh.triangle_count,):
            raise ValueError("mask length does not match the mesh")
        object.__setattr__(self, "mask", mask)

    @property
    def area(self) -> float:
        return float(self.mesh.areas[self.mask].sum())

    @property
    def cut_perimeter(self) -> float:
        """Length of the edges between the region and the rest of the mesh,
        summed in edge order; an open edge never counts.

        The cut edges are read off the smaller side's own triangles.
        """
        mesh = self.mesh
        side = self.mask if 2 * self.mask.sum() <= len(self.mask) else ~self.mask
        tris = np.flatnonzero(side)
        nbrs = mesh.tri_neighbors.take(tris, axis=0)
        cut = (nbrs >= 0) & ~side[nbrs]
        edges = np.sort(mesh.tri_edges.take(tris, axis=0)[cut])
        return float(mesh.edge_lengths[edges].sum())

    @property
    def triangle_count(self) -> int:
        return int(self.mask.sum())

    @property
    def centroid(self) -> np.ndarray:
        a = self.mesh.areas[self.mask]
        return (a[:, None] * self.mesh.centroids[self.mask]).sum(axis=0) / a.sum()


def anisotropy_bound(mesh: SurfaceMesh) -> float:
    """Worst-case discrete-to-straight length ratio over mesh triangles."""
    a, b, c = np.sort(mesh.edge_lengths[mesh.tri_edges], axis=1).T
    # half-angle form for the angle C opposite the longest edge c:
    # cos^2(C/2) = (a + b - c)(a + b + c) / (4ab)
    cos_sq = (a + b - c) * (a + b + c) / (4.0 * a * b)
    return 1.0 / math.sqrt(float(cos_sq.min()))


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    iterations: int = 200_000
    restarts: int = 8
    t_initial: float = 1.0
    cooling: float = 0.99995
    mu: float = 100.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError(f"iterations must be at least 1, got {self.iterations}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be at least 1, got {self.restarts}")


def default_config(
    mesh: SurfaceMesh,
    seed: int = 0,
    iterations: int = 200_000,
    restarts: int = 8,
) -> SolverConfig:
    """Scale the penalty weight and temperatures to the mesh.

    mu makes one triangle of area error cost far more than any single-move
    perimeter change; the initial temperature lets area fluctuate by a few
    triangles, and cooling reaches 1e-3 of it by the final iteration.
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
    """What one restart did: annealing moves by kind and outcome, feasible
    snapshots taken (a feasible start counts as one), and the flips that
    polishing kept.  Deterministic for a given mesh, volume and config."""

    flips_proposed: int
    flips_accepted: int
    flips_rejected: int
    swaps_proposed: int
    swaps_accepted: int
    swaps_rejected: int
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
    on the mesh; a later query about that vertex takes binary searches in it
    and one mask write.
    """
    if not 0 <= vertex < len(mesh.polytope.vertices):
        raise ValueError(f"vertex index {vertex} out of range")
    if not volume > 0:
        raise VolumeOutOfRange("volume must be positive")
    star = mesh.vertex_star(vertex)
    cone = star.cone
    if volume > cone.valid_volume_max * (1 + 1e-12):
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
# annealing internals (python lists for speed in the flip loop)
# ---------------------------------------------------------------------------

def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, as a Python loop adds (``np.sum`` is pairwise)."""
    return float(np.cumsum(np.append(0.0, values))[-1])


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
        self.perimeter = _running_sum(mesh.edge_lengths[mesh.tri_edges][cut]) * 0.5

    def toggle(self, t: int) -> None:
        """Move triangle t to the other side: update the cut counts, then
        append to or swap-remove from ``cand`` t and its neighbours, in
        that order, wherever their boundary membership changed."""
        m = self.mask
        cuts = self.cuts
        s = not m[t]
        m[t] = s
        cuts[t] = 3 - cuts[t]
        u0, u1, u2 = self.nbrs[t]
        # the edge to a neighbour on t's new side is no longer cut
        cuts[u0] += -1 if m[u0] == s else 1
        cuts[u1] += -1 if m[u1] == s else 1
        cuts[u2] += -1 if m[u2] == s else 1
        cand = self.cand
        pos = self.pos
        for x in (t, u0, u1, u2):
            p = pos[x]
            if cuts[x]:
                if p < 0:
                    pos[x] = len(cand)
                    cand.append(x)
            elif p >= 0:
                last = cand[-1]
                cand[p] = last
                pos[last] = p
                cand.pop()
                pos[x] = -1

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
        self.toggle(t)

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
    counts (flips proposed, accepted, rejected; swaps proposed, accepted,
    rejected; snapshots).

    Each iteration proposes either a single boundary flip or a swap (one
    flip, then a second drawn from the updated boundary).  On equal-area
    meshes a swap of opposite sides leaves the area unchanged, so swaps
    keep rearranging the cut even after the temperature has dropped far
    below the area penalty scale.
    """
    mu = cfg.mu
    temp = cfg.t_initial
    cooling = cfg.cooling
    volume = state.volume
    mask, cand, nbrs, lens, areas = (
        state.mask, state.cand, state.nbrs, state.lens, state.areas
    )
    toggle = state.toggle
    area, perimeter, count = state.area, state.perimeter, state.count
    flips = flips_rej = swaps = swaps_rej = accepted = swaps_acc = snapshots = 0
    best_cost = math.inf
    best_mask: list[bool] | None = None
    gap0 = abs(area - volume)
    if gap0 <= feas and count > 0:
        # a feasible starting region (e.g. a vertex ball) is already a
        # snapshot; annealing can then only improve on it
        best_cost = perimeter + mu * gap0
        best_mask = list(mask)
        snapshots += 1
    exp = math.exp
    for r_swap, r_pick, r2, r_acc in _draws(rng, cfg.iterations):
        if not cand:
            break
        swap = r_swap >= 0.5
        t = cand[int(r_pick * len(cand))]
        # the perimeter and area change of flipping t, summed as deltas() does
        s = mask[t]
        u0, u1, u2 = nbrs[t]
        l0, l1, l2 = lens[t]
        dp = 0.0
        dp += l0 if mask[u0] == s else -l0
        dp += l1 if mask[u1] == s else -l1
        dp += l2 if mask[u2] == s else -l2
        da = -areas[t] if s else areas[t]
        move_dp = dp
        base_gap = abs(area - volume)
        if swap:
            swaps += 1
            t1, dp1, da1 = t, dp, da
            toggle(t1)
            area += da1
            perimeter += dp1
            count += 1 if da1 > 0 else -1
            if not cand:
                toggle(t1)
                area -= da1
                perimeter -= dp1
                count -= 1 if da1 > 0 else -1
                swaps_rej += 1
                temp *= cooling
                continue
            t = cand[int(r2 * len(cand))]
            s = mask[t]
            u0, u1, u2 = nbrs[t]
            l0, l1, l2 = lens[t]
            dp = 0.0
            dp += l0 if mask[u0] == s else -l0
            dp += l1 if mask[u1] == s else -l1
            dp += l2 if mask[u2] == s else -l2
            da = -areas[t] if s else areas[t]
            move_dp = dp1 + dp
        else:
            flips += 1
        new_gap = abs(area + da - volume)
        dcost = move_dp + mu * (new_gap - base_gap)
        if dcost <= 0.0 or (temp > 1e-300 and r_acc < exp(-dcost / temp)):
            accepted += 1
            swaps_acc += swap
            toggle(t)
            area += da
            perimeter += dp
            count += 1 if da > 0 else -1
            if new_gap <= feas and count > 0:
                cost = perimeter + mu * new_gap
                if cost < best_cost:
                    best_cost = cost
                    best_mask = list(mask)
                    snapshots += 1
        elif swap:
            toggle(t1)
            area -= da1
            perimeter -= dp1
            count -= 1 if da1 > 0 else -1
            swaps_rej += 1
        else:
            flips_rej += 1
        temp *= cooling
    state.area, state.perimeter, state.count = area, perimeter, count
    counts = (
        flips, accepted - swaps_acc, flips_rej, swaps, swaps_acc, swaps_rej, snapshots
    )
    return best_mask, counts


def _polish(state: _State, cfg: SolverConfig) -> int:
    """Steepest-descent flips to a local minimum of the penalized cost,
    then try boundary slides (cheapest addition plus cheapest removal),
    then top up the area to at least the target volume.  Return the
    number of flips kept (a slide is two)."""
    mu = cfg.mu
    volume = state.volume
    moves = 0
    kept = 0
    while moves < POLISH_MOVES:
        moves += 1
        best_t, best_dp, best_da = -1, 0.0, 0.0
        best_d = -1e-12
        gap = abs(state.area - volume)
        for t in state.cand:
            dp, da = state.deltas(t)
            if state.count == 1 and da < 0:
                continue
            d = dp + mu * (abs(state.area + da - volume) - gap)
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
        net = add_dp + rem_dp + mu * (
            abs(state.area + rem_da - volume) - gap
        )
        if rem_t >= 0 and net < -1e-12:
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
    if not mesh.is_closed():
        raise ValueError("solver needs a closed surface mesh")
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
    nbrs = mesh.tri_neighbors.tolist()
    lens = mesh.edge_lengths[mesh.tri_edges].tolist()
    areas = mesh.areas.tolist()
    warm = list(warm_starts) if warm_starts else []

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
        state = _State(mesh, nbrs, lens, areas, init, volume)
        best_mask, counts = _anneal(state, cfg, rng, feas)
        if best_mask is not None:
            finalists.append(best_mask)
        best_here: tuple[float, np.ndarray] | None = None
        polished = 0
        for mask in finalists:
            st = _State(mesh, nbrs, lens, areas, mask, volume)
            polished += _polish(st, cfg)
            if abs(st.area - volume) > feas or st.count == 0:
                continue
            if best_here is None or st.perimeter < best_here[0]:
                best_here = (st.perimeter, np.array(st.mask, dtype=bool))
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
