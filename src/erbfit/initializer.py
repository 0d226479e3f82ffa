"""Initial model: one isotropic basis per atom, reproducing the field exactly.

Per atom i the field contributes exp(-d(||y - x_i||^2 - r_i^2)).  A basis with
center x_i, zero rotation, effective decay d on every axis and effective
weight e^{d r_i^2} evaluates to exactly the same expression, so the initial
model satisfies model(y) = phi(y) for every y and the fitting residual starts
at zero.  The optimizer then only has to trade accuracy against sparsity.
"""

from __future__ import annotations

import numpy as np

from .field import check_decay
from .model import RbfModel
from .pqr import Molecule


def init_model(molecule: Molecule, decay: float) -> RbfModel:
    """One basis per atom: centers at atoms, angles 0, weight e^{d r^2}, decays d."""
    radii = molecule.radii
    check_decay(decay, radii)
    n = len(molecule)
    # tilde variables: c~ = sqrt(e^{d r^2}) = e^{d r^2 / 2}, d~ = sqrt(d)
    return RbfModel(
        coeff_sqrt=np.exp(0.5 * decay * radii**2),
        decay_sqrt=np.full((n, 3), np.sqrt(decay)),
        centers=molecule.centers.copy(),
        angles=np.zeros((n, 3)),
    )
