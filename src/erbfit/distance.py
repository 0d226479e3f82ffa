"""Exact distances from points to a triangle mesh, and the symmetric
Hausdorff estimate between two meshes.

hausdorff is a Metro-style estimate (Cignoni, Rocchini & Scopigno, CGF
1998): the points of one mesh, its vertices and the degree-3 barycentric
lattice of 10 per triangle (_triangle_samples), against exact
point-to-triangle distances on the other.  Since it is a maximum over
points, _bounded_max measures a point exactly only while an upper bound on
its distance exceeds the running maximum, the early break of Taha & Hanbury
(TPAMI 2015), and hausdorff extends the break to whole triangles; the bounds
are >= the exact distances to the bit, so H is unchanged.  Nearest vertices
and candidate triangles come from a cell list of the target mesh (_CellList).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mesh import TriMesh

# sample points per distance pass of _bounded_max, and the most its seed
# pass measures; with _PAIRS_PER_POINT it bounds the chunks of every pass.
# A (point, triangle) pair takes about 390 bytes in the distance kernel, its
# 96 bytes of gathered coordinates included, so a chunk about 6.5 MB
_HAUSDORFF_BLOCK = 1024
_PAIRS_PER_POINT = 8
# the rounding margin of the Hausdorff bounds, relative to the coordinate
# scale: many orders above the few ulps a distance is off by, and still far
# below any distance that matters
_ROUNDING = 2.0 ** -24
# the most (x, y) columns of cells one point searches; a point whose search
# would cover more scans every item
_MAX_COLUMNS = 256


def _dot(u, v):
    """Row-wise dot product of coordinate-major (3, K) arrays, summed x, y, z in order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _segment_distance_sq(p, a, b):
    """Squared distance from points p to segments a-b (all (3, K))."""
    ab = b - a
    denom = _dot(ab, ab)
    t = _dot(p - a, ab)
    t = np.divide(t, denom, out=np.zeros_like(t), where=denom > 0)
    np.clip(t, 0.0, 1.0, out=t)
    d = p - (a + t * ab)
    return _dot(d, d)


def _point_triangle_distance_sq(p, a, b, c):
    """Squared exact distance from points p to triangles (a, b, c), (3, K) each."""
    v0 = b - a
    v1 = c - a
    v2 = p - a
    d00 = _dot(v0, v0)
    d01 = _dot(v0, v1)
    d11 = _dot(v1, v1)
    d20 = _dot(v2, v0)
    d21 = _dot(v2, v1)
    denom = d00 * d11 - d01 * d01
    pos = denom > 0
    v = np.divide(d11 * d20 - d01 * d21, denom, out=np.full_like(denom, -1.0), where=pos)
    w = np.divide(d00 * d21 - d01 * d20, denom, out=np.full_like(denom, -1.0), where=pos)
    interior = (v >= 0) & (w >= 0) & (v + w <= 1)
    # perpendicular distance where the projection lands inside the triangle
    n = (v0[1] * v1[2] - v0[2] * v1[1],
         v0[2] * v1[0] - v0[0] * v1[2],
         v0[0] * v1[1] - v0[1] * v1[0])
    nn = _dot(n, n)
    pn = _dot(v2, n)
    plane_sq = np.divide(pn * pn, nn, out=np.full_like(nn, np.inf), where=nn > 0)
    plane_sq = np.where(interior, plane_sq, np.inf)
    edge_sq = np.minimum(
        _segment_distance_sq(p, a, b),
        np.minimum(_segment_distance_sq(p, b, c), _segment_distance_sq(p, c, a)),
    )
    return np.minimum(plane_sq, edge_sq)


def _edge_lengths(mesh: TriMesh) -> np.ndarray:
    """(3, F) lengths of each triangle's edges 0-1, 1-2 and 2-0."""
    v1, v2, v3 = mesh.corners_t()
    return np.sqrt([_dot(b - a, b - a) for a, b in ((v1, v2), (v2, v3), (v3, v1))])


def _rounding_margin(side: float, *coords: np.ndarray) -> float:
    """Allowance for rounding in the Hausdorff bounds, from the coordinate scale."""
    return (side + max(float(np.abs(c).max(initial=0.0)) for c in coords)) * _ROUNDING


def _runs_by_owner(owner: np.ndarray):
    """Start of each run of equal owner, and the run index of every entry."""
    change = np.diff(owner, prepend=-1) != 0
    return np.flatnonzero(change), np.cumsum(change) - 1


def _least_sq(best, points_t, corners, owner, tris):
    """Lower best[o] to the squared distance from point o to triangle t, over
    the (o, t) pairs, which come grouped by owner."""
    if owner.size == 0:
        return
    d_sq = _point_triangle_distance_sq(np.take(points_t, owner, axis=1),
                                       *(np.take(v, tris, axis=1) for v in corners))
    starts, _ = _runs_by_owner(owner)
    run = owner[starts]
    best[run] = np.minimum(best[run], np.minimum.reduceat(d_sq, starts))


def _pairs(owner, start, end, order, budget):
    """The (owner, order[i]) pairs of the runs [start, end), in chunks of
    fewer than 2 * budget pairs.

    A run longer than the budget is split over chunks, so memory is bounded
    whatever the runs hold; the pairs keep the runs' owner grouping.
    """
    length = end - start
    if length.size and length.max() > budget:
        pieces = -(-length // budget)
        k = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        owner, start, end = (np.repeat(x, pieces) for x in (owner, start, end))
        start = start + k * budget
        end = np.minimum(end, start + budget)
        length = end - start
    offset = np.cumsum(length) - length
    bounds = np.append(np.flatnonzero(np.diff(offset // budget, prepend=-1)), length.size)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        n = length[r0:r1]
        pos = np.repeat(start[r0:r1] - (offset[r0:r1] - offset[r0]), n) + np.arange(n.sum())
        yield np.repeat(owner[r0:r1], n), order[pos]


class _CellList:
    """A target mesh's vertices and triangles, binned in cubic cells of one side.

    A vertex goes in the cell that holds it, a triangle in the cell that holds
    its centroid.  Each kind is sorted by cell key once, so memory is O(V + F)
    for any geometry, and keys run z fastest, so the cells of an (x, y) column
    between two z values are one run of the sorted items.  A search within a
    distance of a point gathers one run per column of the cells that the cube
    of that half-width meets; a point whose cube meets more than _MAX_COLUMNS
    columns scans every item instead.  Either way the (point, item) pairs are
    made in chunks of bounded size (see _pairs).
    """

    def __init__(self, mesh: TriMesh, side: float, margin: float):
        self.corners = mesh.corners_t()
        v1, v2, v3 = self.corners
        self.centroids_t = (v1 + v2 + v3) / 3.0
        # largest distance from each triangle's centroid to one of its corners
        self.reach = np.sqrt(np.maximum.reduce([_dot(v - self.centroids_t, v - self.centroids_t)
                                                for v in self.corners]))
        self.vertices_t = mesh.vertices.T
        # (3, 1) columns, like every per-axis quantity of the cells
        self.origin = np.minimum(self.vertices_t.min(axis=1, keepdims=True),
                                 self.centroids_t.min(axis=1, keepdims=True))
        span = float((self.vertices_t.max(axis=1, keepdims=True) - self.origin).max())
        # at most about 2^20 cells along an axis, so that keys fit in int64
        self.side = max(side, span * 2.0 ** -20) or 1.0
        self.margin = margin
        self.mesh = mesh
        cells = [self._cell(self.vertices_t), self._cell(self.centroids_t)]
        self.dims = (np.maximum(cells[0].max(axis=1, keepdims=True),
                                cells[1].max(axis=1, keepdims=True)) + 1).astype(np.int64)
        (self.vertex_order, self.vertex_keys), (self.triangle_order, self.triangle_keys) = (
            self._sorted(c) for c in cells)

    def _cell(self, x):
        return np.floor((x - self.origin) / self.side)

    def _sorted(self, cell):
        key = self._key(*cell.astype(np.int64))
        order = np.argsort(key, kind="stable")
        return order, key[order]

    def _key(self, x, y, z):
        return (x * self.dims[1] + y) * self.dims[2] + z

    def _cubes(self, points_t, reach):
        """Per point, the (3, K) lowest and highest cell index on each axis of
        the cells that meet the cube of half-width reach + margin around it (the
        margin covers the rounding of the cell index), and the number of (x, y)
        columns among them."""
        r = reach + self.margin
        lo = np.maximum(np.floor((points_t - r - self.origin) / self.side), 0.0)
        hi = np.minimum(np.floor((points_t + r - self.origin) / self.side), self.dims - 1.0)
        width = np.maximum(hi - lo + 1.0, 0.0)
        return lo, hi, width[0] * width[1] * (width[2] > 0)

    def pairs(self, points_t, reach, keys, order):
        """(owner, item) pairs that hold every item within reach[owner] of
        points_t[:, owner], grouped by owner, in chunks of fewer than 2 * budget,
        where budget = _PAIRS_PER_POINT * _HAUSDORFF_BLOCK.

        A point takes one run of the sorted `keys` per column its cube meets,
        or, past _MAX_COLUMNS columns, the run of every item.  The points go
        in blocks of about `budget` runs; order maps a run position to its item.
        """
        budget = _PAIRS_PER_POINT * _HAUSDORFF_BLOCK
        lo, hi, columns = self._cubes(points_t, reach)
        scan = columns > _MAX_COLUMNS
        count = np.where(scan, 1.0, columns).astype(np.int64)
        offset = np.cumsum(count) - count
        bounds = np.append(np.flatnonzero(np.diff(offset // budget, prepend=-1)), count.size)
        for p0, p1 in zip(bounds[:-1], bounds[1:]):
            n = count[p0:p1]
            owner = np.repeat(np.arange(p0, p1), n)
            j = np.arange(owner.size) - np.repeat(offset[p0:p1] - offset[p0], n)
            lo_, hi_ = lo[:, owner].astype(np.int64), hi[:, owner].astype(np.int64)
            ny = hi_[1] - lo_[1] + 1
            base = self._key(lo_[0] + j // ny, lo_[1] + j % ny, 0)
            start = np.searchsorted(keys, base + lo_[2], side="left")
            end = np.searchsorted(keys, base + hi_[2], side="right")
            whole = scan[owner]
            start[whole], end[whole] = 0, keys.size
            some = start < end
            yield from _pairs(owner[some], start[some], end[some], order, budget)

    def nearest(self, points_t: np.ndarray):
        """(distance, index) of the nearest vertex to each of the (3, K) points_t.

        The distance has cKDTree's bits: squared differences summed x, y, z,
        then sqrt.  The first pass searches the cells within half a side of
        each point, at most 2 x 2 x 2, or, for a point outside the box of the
        cells, within its distance to that box.  A point that found no vertex
        searches four times as far, until its search covers more than
        _MAX_COLUMNS columns and scans every vertex.  A point whose best
        distance does not rule out the cells beyond its search is searched
        once more, within that distance, which is then exact.
        """
        best = np.full(points_t.shape[1], np.inf)
        arg = np.zeros(points_t.shape[1], dtype=np.int64)

        def search(idx, reach):
            """Lower best and arg over the vertices within reach of points idx."""
            for owner, v in self.pairs(points_t[:, idx], reach, self.vertex_keys,
                                       self.vertex_order):
                o = idx[owner]
                d = np.take(points_t, o, axis=1) - np.take(self.vertices_t, v, axis=1)
                d_sq = _dot(d, d)
                starts, run = _runs_by_owner(owner)
                least = np.minimum.reduceat(d_sq, starts)
                # the first pair of each run that attains the run's least value
                hit = np.flatnonzero(d_sq == least[run])
                first = hit[np.diff(run[hit], prepend=-1) != 0]
                better = least < best[o[starts]]
                o = o[starts][better]
                best[o] = least[better]
                arg[o] = v[first[better]]

        todo = np.arange(points_t.shape[1])
        # no vertex is nearer than the box of the cells
        outside = np.maximum(self.origin - points_t,
                             points_t - (self.origin + self.dims * self.side))
        outside = np.maximum(outside, 0.0)
        reach = np.maximum(np.sqrt(_dot(outside, outside)), 0.5 * self.side)
        while todo.size:
            search(todo, reach)
            found = np.sqrt(best[todo])
            scanned = self._cubes(points_t[:, todo], reach)[2] > _MAX_COLUMNS
            again = ~scanned & (found + self.margin >= reach)
            empty = again & np.isinf(found)
            if (again & ~empty).any():
                search(todo[again & ~empty], found[again & ~empty])
            todo, reach = todo[empty], 4.0 * reach[empty]
        return np.sqrt(best), arg

    def candidate_least_sq(self, points_t, idx, ub):
        """Least squared distance from each point idx[i] to the triangles that
        can be nearer than ub[idx[i]]: those whose centroid lies within
        ub + the triangle's reach; inf where there is none."""
        best = np.full(idx.size, np.inf)
        points_t, ub = points_t[:, idx], ub[idx]
        for owner, t in self.pairs(points_t, ub + self.reach.max(), self.triangle_keys,
                                   self.triangle_order):
            d = np.take(points_t, owner, axis=1) - np.take(self.centroids_t, t, axis=1)
            near = _dot(d, d) <= (ub[owner] + self.reach[t] + self.margin) ** 2
            _least_sq(best, points_t, self.corners, owner[near], t[near])
        return best

    @cached_property
    def around(self):
        """The triangles around each vertex, as a CSR map: around[first[v]:][:count[v]]."""
        flat = self.mesh.triangles.ravel()
        count = np.bincount(flat, minlength=self.mesh.vertices.shape[0])
        return np.argsort(flat, kind="stable") // 3, np.cumsum(count) - count, count


def _bounded_max(points_t: np.ndarray, cells: _CellList, floor: float):
    """(lo, bound): lo = max(floor, max over the (3, K) points_t of the distance
    to the target surface), and bound[i] >= the distance of point i, every bound <= lo.

    A point's distance is min(sqrt(best), ub): ub is the distance to its
    nearest target vertex, and best the least squared distance to the
    candidate triangles, those whose centroid lies within ub + the triangle's
    largest centroid-to-corner distance (which include every triangle that can
    be nearer than ub).  Only the points that can still raise the running
    maximum lo, which starts at floor, get that candidate pass:

    1. the sixteenth of the points with ub > lo that has the largest ub, at
       most a block, is measured first and seeds lo;
    2. each point still above lo gets a second bound: min(sqrt of the least
       squared distance to the triangles around its nearest vertex, ub);
    3. the points whose bound still exceeds lo are measured a block at a time
       in descending bound order, until a block's largest bound is <= lo.

    Both bounds are >= the point's distance, to the bit: the triangles around
    the nearest vertex are among its candidates, the distance kernel gives a
    (point, triangle) pair the same bits in any block, and sqrt is monotone.
    A point whose bound is <= lo therefore cannot change the result.
    """
    lo = float(floor)
    if points_t.shape[1] == 0:
        return lo, np.empty(0)
    ub, nearest = cells.nearest(points_t)
    # each point's upper bound; a measured point's bound is its distance
    bound = ub.copy()
    above = np.flatnonzero(ub > lo)
    if above.size == 0:
        return lo, bound
    block = _HAUSDORFF_BLOCK

    def measure(idx):
        best = cells.candidate_least_sq(points_t, idx, ub)
        bound[idx] = np.minimum(np.sqrt(best), ub[idx])
        return float(bound[idx].max())

    seed = min(block, above.size // 16)
    if seed:
        top = above[np.argpartition(ub[above], above.size - seed)[above.size - seed:]]
        lo = max(lo, measure(top))
        above = above[bound[above] > lo]
        if above.size == 0:
            return lo, bound

    around, first, count = cells.around
    for s in range(0, above.size, block):
        idx = above[s:s + block]
        counts = count[nearest[idx]]
        shift = first[nearest[idx]] - (np.cumsum(counts) - counts)
        tris = around[np.repeat(shift, counts) + np.arange(counts.sum())]
        best = np.full(idx.size, np.inf)
        _least_sq(best, points_t[:, idx], cells.corners,
                  np.repeat(np.arange(idx.size), counts), tris)
        bound[idx] = np.minimum(np.sqrt(best), ub[idx])
    above = above[bound[above] > lo]

    above = above[np.argsort(-bound[above], kind="stable")]
    for s in range(0, above.size, block):
        idx = above[s:s + block]
        idx = idx[bound[idx] > lo]
        if idx.size == 0:
            break
        lo = max(lo, measure(idx))
    return lo, bound


def _triangle_samples(mesh: TriMesh, triangles=None) -> np.ndarray:
    """The (3, K) nodes but the corners (mesh vertices) of the degree-3
    barycentric lattice on the given triangles, all by default:
    2/3 a + 1/3 b and 1/3 a + 2/3 b on each distinct edge (a, b), the same
    bits in every triangle that holds it, then each centroid.  A max over
    these and the vertices is the max over the full lattice of every triangle.
    """
    t = mesh.triangles if triangles is None else mesh.triangles[triangles]
    v_t = mesh.vertices.T
    # edge e of a triangle joins its corners e and e + 1 (mod 3)
    nxt = t[:, [1, 2, 0]]
    lo, hi = np.minimum(t, nxt).ravel(), np.maximum(t, nxt).ravel()
    _, first = np.unique(lo * v_t.shape[1] + hi, return_index=True)
    a, b = np.take(v_t, lo[first], axis=1), np.take(v_t, hi[first], axis=1)
    v0, v1, v2 = (np.take(v_t, c, axis=1) for c in t.T)
    return np.concatenate([2 / 3 * a + 1 / 3 * b, 1 / 3 * a + 2 / 3 * b,
                           1 / 3 * v0 + 1 / 3 * v1 + 1 / 3 * v2], axis=1)


def hausdorff(mesh_a: TriMesh, mesh_b: TriMesh, samples_per_triangle: int = 10) -> float:
    """Symmetric Hausdorff estimate between two mesh surfaces: the max over
    the sample points of each mesh (its vertices and the 10-point lattice of
    _triangle_samples, the third-points of distinct edges and the centroids)
    of the distance to the other, to the bit.

    Both cell lists take the longest edge of either mesh as their side.  A
    direction measures the source mesh's vertices first, with _bounded_max.
    A lattice point of a triangle lies within the longer of the two edges at
    a corner c of that corner, and the distance to a surface grows no faster
    than the point moves, so the triangle's points cannot exceed min over
    corners of (c's bound + longer edge at c); only the triangles whose
    bound, plus a rounding margin at the meshes' coordinate scale, exceeds
    the running maximum get lattice points.  The second direction starts
    from the first one's maximum.  Raises ValueError for another
    samples_per_triangle than 10 and when a mesh has no triangle.
    """
    if samples_per_triangle != 10:
        raise ValueError(f"hausdorff takes 10 samples per triangle, got {samples_per_triangle}")
    if mesh_a.n_f == 0 or mesh_b.n_f == 0:
        raise ValueError("hausdorff needs two non-empty meshes")
    edges = [_edge_lengths(m) for m in (mesh_a, mesh_b)]
    side = max(float(e.max()) for e in edges)
    margin = _rounding_margin(side, mesh_a.vertices, mesh_b.vertices)
    lo = 0.0
    for source, target, e in ((mesh_a, mesh_b, edges[0]), (mesh_b, mesh_a, edges[1])):
        cells = _CellList(target, side, margin)
        lo, bound = _bounded_max(source.vertices.T, cells, lo)
        # corner c of a triangle holds its edges c and c - 1 (mod 3)
        tri_bound = np.minimum.reduce([bound[source.triangles[:, c]] + np.maximum(e[c], e[c - 1])
                                       for c in range(3)]) + margin
        tris = np.flatnonzero(tri_bound > lo)
        if tris.size:
            lo = _bounded_max(_triangle_samples(source, tris), cells, lo)[0]
        # free this direction's cell list and bounds before the next one is
        # built: holding both would set the peak memory of a compare
        del cells, bound, tri_bound, tris
    return lo
