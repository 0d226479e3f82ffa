"""Uniform grid sampling and selection of near-surface constraint points.

The fitting problem is posed at a finite set of points y_k chosen from a
uniform grid over the molecule's bounding box: a grid point is kept when the
field value there is within `band` of the isovalue, i.e. |phi(p) - c| <= band.
Selection order is lexicographic in the (i, j, k) grid indices so that a given
molecule and grid always produce the same constraint set.

phi is evaluated on the grid path of erbfit.field, where each atom is summed
only over the block of nodes it can reach, so a target differs from the exact
sum at its node by less than GRID_TAU (1e-13), and membership is decided on
that value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (Box, GaussianField, GridSpec, SamplingError, coordinate_major, eval_phi_batch,
                    positive)


# largest grid make_grid builds.  Traced on 0.05-3.2 M node grids, meshing peaks
# at 55-23 bytes a node (values, cell cases, masks) and selection at 37 (phi,
# mask, kept points and targets), so 0.8-1.2 GB at this size, while the 0.5 A
# mesh of a 400-atom molecule needs about half a million points
MAX_GRID_POINTS = 2**25


@dataclass(frozen=True)
class ConstraintSet:
    """Constrained points y_k with the target field values phi(y_k).

    points is the transpose view of the gate's (3, M) array
    (erbfit.field.coordinate_major), whatever layout it was given in.
    """

    points: np.ndarray   # (M, 3)
    targets: np.ndarray  # (M,)

    def __post_init__(self):
        pts_t = coordinate_major(self.points)
        tgt = np.asarray(self.targets, dtype=np.float64).ravel()
        if pts_t.shape[1] != tgt.shape[0]:
            raise ValueError("points and targets disagree in length")
        if tgt.shape[0] == 0:
            raise ValueError("constraint set must contain at least one point")
        object.__setattr__(self, "points", pts_t.T)
        object.__setattr__(self, "targets", tgt)

    def __len__(self) -> int:
        return self.points.shape[0]


def make_grid(box: Box, spacing: float) -> GridSpec:
    """Grid over `box` with interval counts ceil(extent/spacing), clamped to >= 2.

    The box must have positive extent on every axis, the spacing must be
    finite and positive, and the grid may hold at most MAX_GRID_POINTS
    points; the count is checked before anything is allocated.
    """
    positive("grid spacing", spacing, SamplingError)
    extent = box.extent
    if np.any(extent <= 0):
        raise SamplingError(f"degenerate box: extent {extent} has a non-positive axis")
    # in floating point, where a tiny spacing gives inf instead of wrapping
    # around in the integer cast
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(extent / spacing), 2.0)
        n_points = float(np.prod(counts + 1.0))
    if n_points > MAX_GRID_POINTS:
        raise SamplingError(
            f"grid spacing {spacing} needs {n_points:.3g} grid points over this box, "
            f"more than the limit of {MAX_GRID_POINTS}; use a coarser spacing")
    return GridSpec(box=box, counts=(int(counts[0]), int(counts[1]), int(counts[2])))


def select_constraints(field: GaussianField, grid: GridSpec, band: float = 1.0) -> ConstraintSet:
    """Keep exactly the grid nodes with |phi(p) - isovalue| <= band, in grid order.

    phi comes from the field's grid path (eval_phi_batch(field, grid)), so
    each target is within GRID_TAU of the exact sum at its node, and a node
    is kept on that value.  GridSpec.points(mask) builds only the kept nodes:
    the selection holds the grid's phi and mask, then the (3, K) points and K
    targets, never the (n_points, 3) array of every node.

    Raises SamplingError when nothing is selected (use a finer grid or a
    larger band).
    """
    positive("band", band, SamplingError)
    phi = eval_phi_batch(field, grid)
    mask = (np.abs(phi - field.isovalue) <= band).reshape(grid.shape)
    if not mask.any():
        raise SamplingError(
            "no grid point lies within the selection band; "
            "use a finer grid spacing or a larger band"
        )
    targets = phi[mask.ravel()]
    del phi
    return ConstraintSet(grid.points(mask), targets)
