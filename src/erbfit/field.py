"""The original Gaussian molecular surface implicit function.

The target field is phi(x) = sum_i exp(-d * (|x - x_i|^2 - r_i^2)) over all
atoms, with positive decay rate d.  The molecular surface is the level set
{phi(x) = c} for a positive isovalue c; with c = 1 the level set of an
isolated atom is exactly its radius-r sphere.

GaussianField.values evaluates the sum atom by atom.  At an (M, 3) array of
points it is the exact sum: no kernel term is dropped, however far it is from
its atom.  On a GridSpec, the uniform grid that meshing and constraint
selection evaluate, each atom is summed only over the block of nodes where
its term can reach GRID_TAU / N (N atoms), so the terms left out add up to
less than GRID_TAU at any node.  GridSpec.block_sum, the grid sum of the
field and of the model (erbfit.model), sums those same (kernel, node) terms.
An atom's term, like an unrotated basis's, factors by axis, so the grid sum
takes it as the product of an (x, y) plane factor and a z factor and sums
each x node's plane as one matrix product: a node is within rounding of
the point path's value, not on its bits.  Where the point path gives
exactly the isovalue the grid sum can fall on either side of it: on the
0.25 A lattice about a lone radius-1.5 atom at d = 0.5, 8 of the 30 nodes
at phi = 1 come out below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pqr import Molecule

# bound on the sum of the kernel terms that a cutoff leaves out at any point:
# each of N terms is left out only where it is below GRID_TAU / N.  It bounds
# the field and model on a GridSpec, and so the fit's constraint targets
# (erbfit.sampler.select_constraints), and the model's passes over points that
# span more than one block (erbfit.model._fused_pass), whose gradient slots
# it bounds term by term as well
GRID_TAU = 1e-13

# largest exponent whose exp is a finite double
_MAX_EXPONENT = float(np.log(np.finfo(np.float64).max))


class SamplingError(ValueError):
    """Grid construction or constraint selection failed."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] in Angstrom."""

    lo: np.ndarray  # (3,)
    hi: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if not np.all(self.hi >= self.lo):
            raise ValueError(f"box has hi < lo: lo={self.lo}, hi={self.hi}")

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: counts[p] intervals per axis, hence counts[p]+1 points.

    Point (i, j, k) has coordinates (a_p + i * (b_p - a_p) / counts[p], ...)
    with indices running 0..counts[p] inclusive, so both box corners are
    grid points.  len() is the number of points, the length of the value
    array an evaluator returns for the grid.
    """

    box: Box
    counts: tuple[int, int, int]

    def __post_init__(self):
        if any(int(n) < 2 for n in self.counts):
            raise SamplingError(f"grid counts must be >= 2 per axis, got {self.counts}")
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))

    @property
    def shape(self) -> tuple[int, int, int]:
        """Points per axis: the array shape of the grid's values, C order."""
        return tuple(n + 1 for n in self.counts)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def __len__(self) -> int:
        return self.n_points

    def axis_coords(self, axis: int) -> np.ndarray:
        a, b, n = self.box.lo[axis], self.box.hi[axis], self.counts[axis]
        coords = a + np.arange(n + 1, dtype=np.float64) * ((b - a) / n)
        # a + n*step can overshoot b by a few ulp; the grid must end exactly
        # on the box corner so that every point lies in the closed box.
        coords[-1] = b
        return coords

    def points(self, mask=None) -> np.ndarray:
        """The nodes where mask (of the grid's shape) is True, all by default, in C order:
        the (K, 3) view of a C-contiguous (3, K) array, filled axis by axis."""
        mask = np.ones(self.shape, dtype=bool) if mask is None else mask
        points_t = np.empty((3, int(np.count_nonzero(mask))))
        for p, coords in enumerate(np.ix_(*(self.axis_coords(a) for a in range(3)))):
            points_t[p] = np.broadcast_to(coords, self.shape)[mask]
        return points_t.T

    def block_sum(self, centers: np.ndarray, half_widths: np.ndarray,
                  log_weights: np.ndarray, neg_q: np.ndarray) -> np.ndarray:
        """sum_k exp(log_weights[k] - E_k) at the grid's nodes in C order, kernel k over its block.

        The block of kernel k is the smallest one holding every node within
        half_widths[k, p] of centers[k, p] on each axis p, clipped to the
        grid; an infinite half-width spans its axis.  Row k of neg_q (k, 6) is
        (q_xx, q_yy, q_zz, q_xy, q_xz, q_yz): -E_k = q_xx x^2 + q_yy y^2 +
        q_zz z^2 + q_xy x y + q_xz x z + q_yz y z at the node's offsets x, y, z
        from centers[k].  Each kernel adds its term at the nodes of its block
        and nowhere else.

        A row with no off-diagonal term (every atom, every unrotated basis)
        factors by axis: its term is P_k(x, y) Z_k(z) with
        P_k = exp(((q_xx x) x + log_weight) + (q_yy y) y), the point path's
        order, and Z_k = exp((q_zz z) z), each exactly 0 off the block.
        These rows are summed first, one x node at a time: the (y, z)
        plane of node i is the product P^T Z (one GEMM) over the rows
        whose block holds i on x, through _factored_sum.  A product of two
        exponentials in place of the exponential of the sum, and the GEMM's
        own order of summation, put such a node within rounding of the point
        path's sum of the same terms, not on its bits.  That order depends on
        the BLAS thread count, which importing erbfit pins to one, so the
        result does not depend on the environment.  Every other row is
        then added block by block in row order: its plane as above plus
        (q_xy x) y, plus (q_xz x + q_yz y) z, plus (q_zz z) z, one
        exponential per node.
        """
        half_widths = np.broadcast_to(half_widths, centers.shape)
        axes = [self.axis_coords(p) for p in range(3)]
        lo = np.column_stack([np.searchsorted(x, c - h, side="left")
                              for x, c, h in zip(axes, centers.T, half_widths.T)])
        hi = np.column_stack([np.searchsorted(x, c + h, side="right")
                              for x, c, h in zip(axes, centers.T, half_widths.T)])
        sizes = np.prod(np.maximum(hi - lo, 0), axis=1)
        out = np.zeros(self.shape)
        free = ~neg_q[:, 3:].any(axis=1) & (sizes > 0)
        if free.any():
            _factored_sum(out, axes, lo[free], hi[free], centers[free],
                          log_weights[free], neg_q[free])
        coupled = np.flatnonzero(~free & (sizes > 0))
        buf = np.empty(int(sizes[coupled].max(initial=0)))
        for k in coupled.tolist():
            block = tuple(map(slice, lo[k].tolist(), hi[k].tolist()))
            x, y, z = (axes[p][block[p]] - c for p, c in enumerate(centers[k].tolist()))
            q_xx, q_yy, q_zz, q_xy, q_xz, q_yz = neg_q[k].tolist()
            plane = np.add.outer(q_xx * x * x + log_weights[k], q_yy * y * y)
            plane += np.multiply.outer(q_xy * x, y)
            g = buf[:sizes[k]].reshape(x.size, y.size, z.size)
            np.multiply(np.add.outer(q_xz * x, q_yz * y)[:, :, None], z, out=g)
            g += plane[:, :, None]
            g += q_zz * z * z
            np.exp(g, out=g)
            out[block] += g
        return out.ravel()


def _factored_sum(out, axes, lo, hi, centers, log_weights, neg_q):
    """Set out (n_x, n_y, n_z) to the sum of the axis-aligned rows (see GridSpec.block_sum).

    Two factor arrays are built in place, with the plane buffer as scratch:
    (q_yy y) y per row and node of the y axis and exp((q_zz z) z) per row
    and node of the z axis, -inf and 0 off the row's block.  Node i of x
    then takes the rows whose block holds it on x, writes their plane
    factors exp(((q_xx x) x + log_weight) + (q_yy y) y) into
    the buffer (0 off the y block, since exp(-inf) = 0) and sets
    out[i] = P^T Z on the y and z ranges that those blocks span; out keeps
    its zeros elsewhere, so the pages of nodes that no block reaches are
    never written.
    """
    n_y, n_z = axes[1].size, axes[2].size
    scratch = np.empty(centers.shape[0] * max(n_y, n_z))
    factors = []
    for p in (1, 2):
        u = np.subtract(axes[p], centers[:, p, None])
        q_u = np.multiply(neg_q[:, p, None], u, out=scratch[:u.size].reshape(u.shape))
        u *= q_u
        nodes = np.arange(axes[p].size)
        off = nodes >= hi[:, p, None]
        off |= nodes < lo[:, p, None]
        u[off] = -np.inf
        factors.append(u)
    y_sq, z_exp = factors
    np.exp(z_exp, out=z_exp)
    for i in range(axes[0].size):
        k = np.flatnonzero((lo[:, 0] <= i) & (i < hi[:, 0]))
        if k.size == 0:
            continue
        y0, z0 = lo[k, 1:].min(axis=0).tolist()
        y1, z1 = hi[k, 1:].max(axis=0).tolist()
        x = axes[0][i] - centers[k, 0]
        plane = np.take(y_sq[:, y0:y1], k, axis=0,
                        out=scratch[:k.size * (y1 - y0)].reshape(k.size, y1 - y0))
        plane += ((neg_q[k, 0] * x) * x + log_weights[k])[:, None]
        np.exp(plane, out=plane)
        np.matmul(plane.T, z_exp[k, z0:z1], out=out[i, y0:y1, z0:z1])


def coordinate_major(points) -> np.ndarray:
    """(M, 3) points as the C-contiguous (3, M) float64 array that the point kernels read.

    The one check of a point array: another shape or a non-finite coordinate
    raises ValueError (min and max carry a nan, with no temporary).  The
    transpose view of such a (3, M) array comes back as that array, no copy.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (M, 3) points, got shape {pts.shape}")
    if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
        raise ValueError("coordinates must be finite")
    return np.ascontiguousarray(pts.T)


def positive(name: str, value: float, error: type[ValueError] = ValueError) -> None:
    """The one check of a numeric setting: anything but a finite number above 0 raises `error`."""
    if not (np.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value}")


def write_lines(path, header_lines, lines) -> None:
    """Write a text output: each header line as a '# ' comment, then `lines`, one per line."""
    Path(path).write_text("\n".join([*(f"# {h}" for h in header_lines), *lines]) + "\n")


def check_decay(decay: float, radii: np.ndarray) -> None:
    """Refuse a decay that is not finite and positive, a radius that is not finite and
    non-negative, or an atom weight e^{d r^2} that overflows.

    A zero radius is a point-like atom of weight 1; PQR input refuses it, the
    formula does not.
    """
    positive("decay", decay)
    radii = np.asarray(radii, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii >= 0)))
    if bad.size:
        raise ValueError(f"atom {bad[0] + 1}: radius must be finite and non-negative, "
                         f"got {radii[bad[0]]}")
    with np.errstate(over="ignore"):
        exponent = decay * radii ** 2
    big = np.flatnonzero(exponent > _MAX_EXPONENT)
    if big.size:
        raise ValueError(f"atom {big[0] + 1}: the weight e^(d r^2) overflows at decay "
                         f"{decay} and radius {radii[big[0]]}")


@dataclass(frozen=True)
class GaussianField:
    """Sum of per-atom Gaussian kernels with decay d and isovalue c.

    Immutable; evaluation is pure and safe for concurrent callers.
    """

    centers: np.ndarray  # (N, 3)
    radii: np.ndarray    # (N,)
    decay: float
    isovalue: float = 1.0

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=np.float64))
        if self.radii.ndim != 1 or centers.shape != (self.radii.size, 3):
            raise ValueError(f"expected (N, 3) centers and (N,) radii, got shapes "
                             f"{centers.shape} and {self.radii.shape}")
        object.__setattr__(self, "centers", coordinate_major(centers).T)
        check_decay(self.decay, self.radii)
        positive("isovalue", self.isovalue)

    @classmethod
    def from_molecule(cls, molecule: Molecule, decay: float,
                      isovalue: float = 1.0) -> "GaussianField":
        return cls(molecule.centers, molecule.radii, decay, isovalue)

    def values(self, points: np.ndarray | GridSpec) -> np.ndarray:
        """phi at an (M, 3) array of points, order preserved, or at every node of a GridSpec.

        At points it sums atom by atom over the points held coordinate-major,
        (3, M), so memory stays linear in M whatever the atom count.  An
        atom's exponent is ((-d x) x + d r^2) + (-d y) y + (-d z) z at the
        offsets from its center.  On a grid, GridSpec.block_sum takes the row
        (-d, -d, -d, 0, 0, 0) and log-weight d r^2 over the nodes within
        h = sqrt((d r^2 + ln(N / GRID_TAU)) / d) of the atom on each axis,
        since exp(-d(s^2 - r^2)) >= GRID_TAU / N exactly where s <= h.  The
        row factors by axis, so a node is within rounding of the point path's
        value, not on its bits (see the module docstring).
        """
        log_weights = self.decay * self.radii**2
        if isinstance(points, GridSpec):
            n = self.radii.shape[0]
            with np.errstate(over="ignore"):
                half = np.sqrt((log_weights + np.log(n / GRID_TAU)) / self.decay)
            neg_q = np.zeros((n, 6))
            neg_q[:, :3] = -self.decay
            return points.block_sum(self.centers, half[:, None], log_weights, neg_q)
        pts_t = coordinate_major(points)
        d = self.decay
        out = np.zeros(pts_t.shape[1])
        for center, log_weight in zip(self.centers, log_weights):
            x, y, z = pts_t - center[:, None]
            out += np.exp((-d * x) * x + log_weight + (-d * y) * y + (-d * z) * z)
        return out


def eval_phi_batch(field: GaussianField, points: np.ndarray | GridSpec) -> np.ndarray:
    """phi at an (M, 3) array of points or at every node of a GridSpec (see values).

    Constraint selection calls it, through erbfit.sampler's name, on the
    grid; perfbench/traced_cli.py times selection's field pass by replacing
    that name.
    """
    return field.values(points)


def bounding_box(molecule: Molecule) -> Box:
    """Axis-aligned box holding every atom sphere plus padding on all sides.

    The padding is max atom radius + 3 Angstrom, so the near-surface band
    sampled for fitting lies well inside the grid.
    """
    centers, radii = molecule.centers, molecule.radii
    padding = float(radii.max()) + 3.0
    with np.errstate(over="ignore"):
        lo = (centers - radii[:, None]).min(axis=0) - padding
        hi = (centers + radii[:, None]).max(axis=0) + padding
    if not np.isfinite([lo, hi]).all():
        raise ValueError("the bounding box of the atoms is not finite")
    return Box(lo=lo, hi=hi)
