"""Sparse ellipsoid-Gaussian RBF model in the squared-variable parameterization.

One basis is  c~^2 * exp(-sum_p d~_p^2 * u_p^2)  with  u = R(alpha,beta,gamma) (y - x),
so the effective weight c = c~^2 and effective per-axis decays d_p = d~_p^2 are
nonnegative by construction, which turns the nonnegativity-constrained fitting
problem into an unconstrained one.  The model is the sum of its bases.

The flat parameter vector packs a model with N bases as

    [ c~_1..c~_N | d~_.1 | d~_.2 | d~_.3 | x_1 y_1 z_1 .. z_N | alpha | beta | gamma ]

(axis-major decay blocks, xyz-interleaved centers, angle blocks), length 10N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_FORMAT = "erbfit-model"
MODEL_VERSION = 1

PARAMS_PER_BASIS = 10


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Total rotation R = Rz(gamma) @ Ry(beta) @ Rx(alpha).

    Note the y-rotation convention: -sin(beta) sits at row 0, col 2 (the
    transpose of the more common form).  Fitting power is unaffected; the
    convention is fixed here once and the derivatives below match it.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, -sb], [0.0, 1.0, 0.0], [sb, 0.0, cb]])
    rz = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def rotation_derivatives(alpha: float, beta: float, gamma: float):
    """(dR/dalpha, dR/dbeta, dR/dgamma) for the rotation_matrix convention."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, -sb], [0.0, 1.0, 0.0], [sb, 0.0, cb]])
    rz = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    drx = np.array([[0.0, 0.0, 0.0], [0.0, -sa, -ca], [0.0, ca, -sa]])
    dry = np.array([[-sb, 0.0, -cb], [0.0, 0.0, 0.0], [cb, 0.0, -sb]])
    drz = np.array([[-sg, -cg, 0.0], [cg, -sg, 0.0], [0.0, 0.0, 0.0]])
    return rz @ ry @ drx, rz @ dry @ rx, drz @ ry @ rx


@dataclass(frozen=True)
class RotationAngles:
    """Euler angles in radians; unconstrained reals, periodicity handled by trig."""

    alpha: float
    beta: float
    gamma: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=np.float64)


@dataclass(frozen=True)
class EllipsoidRbf:
    """One rotated anisotropic Gaussian basis in tilde (square-root) variables."""

    coeff_sqrt: float          # c~; effective weight is c~^2
    decay_sqrt: np.ndarray     # (3,) d~; effective decays are d~^2
    center: np.ndarray         # (3,)
    angles: RotationAngles

    def __post_init__(self):
        object.__setattr__(self, "decay_sqrt", np.asarray(self.decay_sqrt, dtype=np.float64))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))

    @property
    def weight(self) -> float:
        """Effective (nonnegative) combination coefficient c~^2."""
        return float(self.coeff_sqrt) ** 2

    @property
    def decays(self) -> np.ndarray:
        """Effective (nonnegative) per-axis decays d~^2."""
        return self.decay_sqrt**2

    def values(self, points: np.ndarray) -> np.ndarray:
        """Weighted basis value c~^2 * exp(-sum_p d~_p^2 u_p^2) at (M, 3) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r = rotation_matrix(self.angles.alpha, self.angles.beta, self.angles.gamma)
        u = (pts - self.center) @ r.T
        return self.weight * np.exp(-(u**2) @ self.decays)


class RbfModel:
    """Ordered collection of ellipsoid Gaussian bases, array-backed.

    Treated as immutable during evaluation; optimizer steps build new models.
    """

    def __init__(self, coeff_sqrt, decay_sqrt, centers, angles):
        self.coeff_sqrt = np.atleast_1d(np.asarray(coeff_sqrt, dtype=np.float64))
        self.decay_sqrt = np.asarray(decay_sqrt, dtype=np.float64).reshape(-1, 3)
        self.centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        self.angles = np.asarray(angles, dtype=np.float64).reshape(-1, 3)
        n = self.coeff_sqrt.shape[0]
        if not (self.decay_sqrt.shape[0] == self.centers.shape[0] == self.angles.shape[0] == n):
            raise ValueError("inconsistent basis array lengths")

    @classmethod
    def from_bases(cls, bases) -> "RbfModel":
        bases = list(bases)
        return cls(
            coeff_sqrt=[b.coeff_sqrt for b in bases],
            decay_sqrt=[b.decay_sqrt for b in bases] if bases else np.zeros((0, 3)),
            centers=[b.center for b in bases] if bases else np.zeros((0, 3)),
            angles=[b.angles.as_array() for b in bases] if bases else np.zeros((0, 3)),
        )

    @property
    def n_bases(self) -> int:
        return self.coeff_sqrt.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Effective per-basis weights c~^2."""
        return self.coeff_sqrt**2

    @property
    def bases(self) -> tuple[EllipsoidRbf, ...]:
        return tuple(
            EllipsoidRbf(
                coeff_sqrt=float(self.coeff_sqrt[i]),
                decay_sqrt=self.decay_sqrt[i].copy(),
                center=self.centers[i].copy(),
                angles=RotationAngles(*self.angles[i]),
            )
            for i in range(self.n_bases)
        )

    def values(self, points: np.ndarray) -> np.ndarray:
        """Model value (sum over bases) at (M, 3) points; zeros for an empty model."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros(pts.shape[0], dtype=np.float64)
        for i in range(self.n_bases):
            r = rotation_matrix(*self.angles[i])
            u = (pts - self.centers[i]) @ r.T
            out += self.coeff_sqrt[i] ** 2 * np.exp(-(u**2) @ (self.decay_sqrt[i] ** 2))
        return out

    def __eq__(self, other):
        if not isinstance(other, RbfModel):
            return NotImplemented
        return (
            np.array_equal(self.coeff_sqrt, other.coeff_sqrt)
            and np.array_equal(self.decay_sqrt, other.decay_sqrt)
            and np.array_equal(self.centers, other.centers)
            and np.array_equal(self.angles, other.angles)
        )


def eval_basis(basis: EllipsoidRbf, point) -> float:
    """Weighted basis value at a single point."""
    return float(basis.values(np.asarray(point, dtype=np.float64)[None, :])[0])


def eval_model(model: RbfModel, points: np.ndarray) -> np.ndarray:
    """Model value at each point (see RbfModel.values)."""
    return model.values(points)


def pack_parameters(model: RbfModel) -> np.ndarray:
    """Flatten a model into the block layout described in the module docstring."""
    return np.concatenate([
        model.coeff_sqrt,
        model.decay_sqrt[:, 0],
        model.decay_sqrt[:, 1],
        model.decay_sqrt[:, 2],
        model.centers.ravel(),
        model.angles[:, 0],
        model.angles[:, 1],
        model.angles[:, 2],
    ])


def unpack_parameters(x: np.ndarray, n_bases: int) -> RbfModel:
    """Inverse of pack_parameters; validates the vector length."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (PARAMS_PER_BASIS * n_bases,):
        raise ValueError(
            f"parameter vector has length {x.size}, expected {PARAMS_PER_BASIS * n_bases}"
        )
    n = n_bases
    return RbfModel(
        coeff_sqrt=x[0:n].copy(),
        decay_sqrt=np.stack([x[n:2 * n], x[2 * n:3 * n], x[3 * n:4 * n]], axis=1),
        centers=x[4 * n:7 * n].reshape(n, 3).copy(),
        angles=np.stack([x[7 * n:8 * n], x[8 * n:9 * n], x[9 * n:10 * n]], axis=1),
    )


def _unpack_arrays(x: np.ndarray, n: int):
    """Raw (coeff_sqrt, decay_sqrt, centers, angles) views/copies of a packed vector."""
    c = x[0:n]
    d = np.stack([x[n:2 * n], x[2 * n:3 * n], x[3 * n:4 * n]], axis=1)
    centers = x[4 * n:7 * n].reshape(n, 3)
    ang = np.stack([x[7 * n:8 * n], x[8 * n:9 * n], x[9 * n:10 * n]], axis=1)
    return c, d, centers, ang


def _values_arrays(c, d, centers, ang, points) -> np.ndarray:
    out = np.zeros(points.shape[0], dtype=np.float64)
    for i in range(c.shape[0]):
        r = rotation_matrix(*ang[i])
        u = (points - centers[i]) @ r.T
        out += c[i] ** 2 * np.exp(-(u**2) @ (d[i] ** 2))
    return out


def _objective_gradient_arrays(c, d, centers, ang, points, residual, w_s, w_l) -> np.ndarray:
    """Packed gradient of w_s*E_s + w_l*E_l1 given precomputed residuals.

    E_s = sum_k residual_k^2 with residual = model(y_k) - target_k;
    E_l1 = sum_i c~_i^2 + sum_{i,p} d~_ip^2 (smooth in the tilde variables).

    Each basis makes one pass over the points and reduces it to three
    residual-weighted moments; every gradient slot is then 3x3 algebra.
    For basis i write c2 = c~_i^2, D = diag(d~_i^2), R = R(alpha_i, beta_i,
    gamma_i) and, per point k,

        p_k = y_k - x_i,   u_k = R p_k,   g_k = exp(-u_k^T D u_k),
        w_k = residual_k * g_k,

    so the basis value is c2*g_k and dE_s/dq = 2 sum_k residual_k d(c2 g_k)/dq.
    The moments are

        s0 = sum_k w_k,   m1 = sum_k w_k p_k (3),   C = sum_k w_k p_k p_k^T (3x3).

    Differentiating c2*g_k:

        d/dc~_i      2 c~_i g_k                        -> 4 w_s c~_i s0
        d/dd~_ia    -2 c2 d~_ia u_ka^2 g_k             -> -4 w_s c2 d~_ia (R C R^T)_aa
                     (sum_k w_k u_ka^2 = (R C R^T)_aa)
        d/dx_i       2 c2 g_k R^T D u_k                -> 4 w_s c2 R^T D R m1
                     (du_k/dx_i = -R, sum_k w_k u_k = R m1)
        d/dtheta_j  -2 c2 g_k u_k^T D R'_j p_k         -> -4 w_s c2 sum_ab (D R C)_ab (R'_j)_ab
                     (du_k/dtheta_j = R'_j p_k with R'_j = dR/dtheta_j, and
                      sum_k w_k u_k^T D R'_j p_k = sum_ab (D R C)_ab (R'_j)_ab)

    and the L1 term adds 2 w_l c~_i to the coefficient slot and 2 w_l d~_ia
    to each decay slot.  The rotation derivatives touch only 3x3 matrices.
    """
    n = c.shape[0]
    gc = np.empty(n)
    gd = np.empty((n, 3))
    gx = np.empty((n, 3))
    gang = np.empty((n, 3))
    # coordinate-major copy: the per-point passes run along one long axis
    points_t = np.ascontiguousarray(points.T)
    for i in range(n):
        r = rotation_matrix(*ang[i])
        p = points_t - centers[i][:, None]       # (3, M)
        u = r @ p
        d2 = d[i] ** 2
        w = residual * np.exp(-(d2 @ (u * u)))
        pw = p * w
        s0 = w.sum()
        m1 = pw.sum(axis=1)
        rc = r @ (pw @ p.T)                      # R C
        scale = 4.0 * w_s * c[i] ** 2
        gc[i] = 4.0 * w_s * c[i] * s0 + 2.0 * w_l * c[i]
        gd[i] = -scale * d[i] * np.einsum("ab,ab->a", rc, r) + 2.0 * w_l * d[i]
        gx[i] = scale * (r.T @ (d2 * (r @ m1)))
        drc = d2[:, None] * rc                   # D R C
        for j, dr in enumerate(rotation_derivatives(*ang[i])):
            gang[i, j] = -scale * (drc * dr).sum()
    return np.concatenate([gc, gd[:, 0], gd[:, 1], gd[:, 2], gx.ravel(),
                           gang[:, 0], gang[:, 1], gang[:, 2]])


def eval_model_gradient(model: RbfModel, constraints, weights) -> np.ndarray:
    """Gradient of f = w_s*E_s + w_l*E_l1 over all packed parameters.

    `constraints` provides the fitting points and their target values
    (any object with .points (M, 3) and .targets (M,)); `weights` is the
    pair (w_s, w_l).  Ordering follows pack_parameters.
    """
    if model.n_bases == 0:
        raise ValueError("gradient of an empty model")
    points = np.asarray(constraints.points, dtype=np.float64)
    targets = np.asarray(constraints.targets, dtype=np.float64)
    if points.shape[0] == 0:
        raise ValueError("gradient needs at least one constrained point")
    w_s, w_l = weights
    residual = model.values(points) - targets
    return _objective_gradient_arrays(
        model.coeff_sqrt, model.decay_sqrt, model.centers, model.angles,
        points, residual, w_s, w_l,
    )


def save_model(model: RbfModel, path: str | Path, metadata: dict | None = None) -> None:
    """Write the model as a versioned JSON document.

    Both the effective values (weight, decays) and the underlying square-root
    variables are stored; reload uses the square-root fields so a save/load
    round trip is bit-exact.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "metadata": metadata or {},
        "n_bases": model.n_bases,
        "bases": [
            {
                "weight": float(model.coeff_sqrt[i]) ** 2,
                "decays": [float(v) ** 2 for v in model.decay_sqrt[i]],
                "coeff_sqrt": float(model.coeff_sqrt[i]),
                "decay_sqrt": [float(v) for v in model.decay_sqrt[i]],
                "center": [float(v) for v in model.centers[i]],
                "angles": [float(v) for v in model.angles[i]],
            }
            for i in range(model.n_bases)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# (key, length) of the per-basis fields load_model reads; length 0 is a bare number
_BASIS_FIELDS = (("coeff_sqrt", 0), ("decay_sqrt", 3), ("center", 3), ("angles", 3))


def _finite_numbers(value, size: int, what: str):
    """`value` as `size` finite floats (a bare float when size is 0); else ValueError."""
    items = value if size else [value]
    if (isinstance(items, list) and len(items) == max(size, 1)
            and all(type(v) in (int, float) for v in items)):
        try:
            arr = np.array(items, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            arr = np.array([np.inf])
        if np.isfinite(arr).all():
            return arr if size else float(arr[0])
    raise ValueError(f"{what} must be " + (f"{size} finite numbers" if size else "a finite number"))


def load_model(path: str | Path) -> tuple[RbfModel, dict]:
    """Read a model document written by save_model; returns (model, metadata).

    Any document that is not a well-formed model (missing keys, wrong vector
    lengths, non-finite numbers) raises ValueError with a one-line message.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    bases = doc.get("bases")
    if not isinstance(bases, list):
        raise ValueError(f"{path}: 'bases' must be a list")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: 'metadata' must be an object")
    for key in ("box_lo", "box_hi"):
        if key in metadata:
            _finite_numbers(metadata[key], 3, f"{path}: metadata {key!r}")
    fields = {key: [] for key, _ in _BASIS_FIELDS}
    for i, basis in enumerate(bases):
        if not isinstance(basis, dict):
            raise ValueError(f"{path}: basis {i} must be an object")
        for key, size in _BASIS_FIELDS:
            if key not in basis:
                raise ValueError(f"{path}: basis {i} has no {key!r}")
            fields[key].append(_finite_numbers(basis[key], size, f"{path}: basis {i} {key!r}"))
    model = RbfModel(fields["coeff_sqrt"], fields["decay_sqrt"], fields["center"],
                     fields["angles"])
    return model, metadata
