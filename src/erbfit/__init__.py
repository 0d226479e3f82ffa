"""Sparse ellipsoid-Gaussian RBF representation of Gaussian molecular surfaces.

A Gaussian molecular surface is the level set {phi(x) = c} of a sum of one
isotropic Gaussian kernel per atom.  This package re-represents that surface
as a much smaller sum of rotated ellipsoid Gaussian radial basis functions by
solving a nonlinear L1-regularized fitting problem, and validates shape
preservation with mesh area, volume, and Hausdorff-distance metrics.
"""

import ctypes

import numpy

from erbfit.pqr import Atom, Molecule, parse_pqr
from erbfit.field import Box, GaussianField, GridSpec, bounding_box
from erbfit.model import RbfModel
from erbfit.sampler import ConstraintSet, make_grid, select_constraints
from erbfit.initializer import init_model
from erbfit.optimizer import OptimizerConfig, IterationTrace, optimize
from erbfit.mesh import TriMesh, extract_isosurface, mesh_area, mesh_volume


def _pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, whatever the environment sets.

    A matrix product sums in an order that OpenBLAS chooses by its thread
    count, so model.json, trace.csv, weights.txt and compare.json would
    otherwise depend on it.  A numpy without the scipy-openblas symbol (another
    BLAS, or numpy 1.x) is left as it is.
    """
    try:
        lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)


_pin_blas_to_one_thread()

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
