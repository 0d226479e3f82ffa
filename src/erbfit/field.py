"""The original Gaussian molecular surface implicit function.

The target field is phi(x) = sum_i exp(-d * (|x - x_i|^2 - r_i^2)) over all
atoms, with positive decay rate d.  The molecular surface is the level set
{phi(x) = c} for a positive isovalue c; with c = 1 the level set of an
isolated atom is exactly its radius-r sphere.

GaussianField.values evaluates the exact sum, atom by atom; no kernel term is
dropped, however far it is from its atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from erbfit.pqr import Molecule


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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Elementwise closed-box membership for an (M, 3) point array."""
        p = np.atleast_2d(points)
        return np.all((p >= self.lo) & (p <= self.hi), axis=1)


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
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=np.float64))
        if self.decay <= 0:
            raise ValueError(f"decay must be positive, got {self.decay}")
        if self.isovalue <= 0:
            raise ValueError(f"isovalue must be positive, got {self.isovalue}")

    @classmethod
    def from_molecule(cls, molecule: Molecule, decay: float,
                      isovalue: float = 1.0) -> "GaussianField":
        return cls(molecule.centers, molecule.radii, decay, isovalue)

    def values(self, points: np.ndarray) -> np.ndarray:
        """phi at an (M, 3) array of points, order preserved.

        Sums atom by atom over the points held coordinate-major, (3, M), so
        memory stays linear in M whatever the atom count.  The exponent is
        -d(|p|^2 - r^2), which is exactly 0 on an atom's sphere.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (M, 3) points, got shape {pts.shape}")
        pts_t = np.ascontiguousarray(pts.T)
        # buffers reused across atoms: allocating M-sized temporaries per atom
        # costs page faults on every atom once M reaches tens of thousands
        sq = np.empty_like(pts_t)
        term = np.empty(pts.shape[0])
        out = np.zeros(pts.shape[0])
        for center, radius in zip(self.centers, self.radii):
            np.subtract(pts_t, center[:, None], out=sq)
            sq *= sq
            np.add(sq[0], sq[1], out=term)
            term += sq[2]
            term -= radius * radius
            term *= -self.decay
            np.exp(term, out=term)
            out += term
        return out


def eval_phi_batch(field: GaussianField, points: np.ndarray) -> np.ndarray:
    """phi at an (M, 3) array of points; the batch entry point of constraint selection."""
    return field.values(points)


def bounding_box(molecule: Molecule, padding: float | None = None) -> Box:
    """Axis-aligned box holding every atom sphere plus padding on all sides.

    Default padding is max atom radius + 3 Angstrom so the near-surface band
    sampled for fitting lies well inside the grid.
    """
    radii = molecule.radii
    if padding is None:
        padding = float(radii.max()) + 3.0
    if padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    centers = molecule.centers
    lo = (centers - radii[:, None]).min(axis=0) - padding
    hi = (centers + radii[:, None]).max(axis=0) + padding
    return Box(lo=lo, hi=hi)
