"""Sparse ellipsoid-Gaussian RBF representation of Gaussian molecular surfaces.

A Gaussian molecular surface is the level set {phi(x) = c} of a sum of one
isotropic Gaussian kernel per atom.  This package re-represents that surface
as a much smaller sum of rotated ellipsoid Gaussian radial basis functions by
solving a nonlinear L1-regularized fitting problem, and validates shape
preservation with mesh area, volume, and Hausdorff-distance metrics.
"""

from erbfit.pqr import Atom, Molecule, parse_pqr
from erbfit.field import Box, GaussianField, GridSpec, bounding_box
from erbfit.model import RbfModel
from erbfit.sampler import ConstraintSet, make_grid, select_constraints
from erbfit.initializer import init_model
from erbfit.optimizer import OptimizerConfig, IterationTrace, optimize
from erbfit.mesh import TriMesh, extract_isosurface, mesh_area, mesh_volume

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Molecule",
    "parse_pqr",
    "Box",
    "GaussianField",
    "bounding_box",
    "RbfModel",
    "ConstraintSet",
    "GridSpec",
    "make_grid",
    "select_constraints",
    "init_model",
    "OptimizerConfig",
    "IterationTrace",
    "optimize",
    "TriMesh",
    "extract_isosurface",
    "mesh_area",
    "mesh_volume",
    "__version__",
]
