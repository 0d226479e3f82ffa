"""Sparse ellipsoid-Gaussian RBF model in the squared-variable parameterization.

One basis is  c~^2 * exp(-sum_p d~_p^2 * u_p^2)  with  u = R(alpha,beta,gamma) (y - x),
so its weight c~^2 and decays d~_p^2 are nonnegative by construction and the
fit is unconstrained.  The model is the sum of its bases, held as one
C-contiguous (N, 10) table, one row per basis in the order of its JSON record:

    [ c~ | d~_1 d~_2 d~_3 | x y z | alpha beta gamma ]

The optimizer steps the table itself, and a gradient is a table of the same
slots.  At points every evaluation is one _fused_pass (the exponent product,
the block cutoff and the moments are derived there), and the gradient is 3x3
algebra on its moments (_objective_gradient_arrays).  On a grid the bases
that reach_boxes keeps go to the field's GridSpec.block_sum.
"""

from __future__ import annotations

import json
from itertools import pairwise
from pathlib import Path

import numpy as np

from .field import GRID_TAU, GridSpec, coordinate_major
from .sampler import ConstraintSet

MODEL_FORMAT = "erbfit-model"
MODEL_VERSION = 1

PARAMS_PER_BASIS = 10
# the columns of a model's (n, 10) table: c~ | d~_1..3 | x y z | alpha beta gamma
_COEFF, _DECAY, _CENTER, _ANGLES = 0, slice(1, 4), slice(4, 7), slice(7, 10)


# the quadratic monomials z_a * z_b of the exponent expansion, as (a, b) pairs:
# monomial 4 + j holds pair j, the squares first
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_PAIR_U, _PAIR_V = np.array(_PAIRS).T
# monomial of each entry (a, b) of a symmetric 3x3 matrix
_SYMMETRIC_MONOMIALS = np.array([[4, 7, 8], [7, 5, 9], [8, 9, 6]])

# doubles in the two buffers of a pass over (M, 3) points: a block of b points
# holds its (10, b) monomials and (n, b) exponents, so b = BLOCK_DOUBLES // (10 + n)
# bounds them at 2 MB whatever the basis and point counts
BLOCK_DOUBLES = 2**18


def _axis_patterns():
    """(fixed, cos, sin) parts of Rx, Ry, Rz, each (3, 3, 3): R_axis = fixed + cos*C + sin*S.

    The rotation about an axis turns the plane (u, v) of the other two, u < v,
    with -sin at (u, v):

        Rx = [[1, 0, 0], [0, ca, -sa], [0, sa, ca]]
        Ry = [[cb, 0, -sb], [0, 1, 0], [sb, 0, cb]]
        Rz = [[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]]
    """
    fixed, cos, sin = np.zeros((3, 3, 3, 3))
    for axis, (u, v) in enumerate(((1, 2), (0, 2), (0, 1))):
        fixed[axis, axis, axis] = 1.0
        cos[axis, u, u] = cos[axis, v, v] = 1.0
        sin[axis, u, v], sin[axis, v, u] = -1.0, 1.0
    return fixed, cos, sin


_AXIS_FIXED, _AXIS_COS, _AXIS_SIN = _axis_patterns()


def rotations(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R = Rz(gamma) @ Ry(beta) @ Rx(alpha) and dR/d(alpha, beta, gamma) for (n, 3) angles.

    Returns R of shape (n, 3, 3) and the derivatives stacked as (3, n, 3, 3),
    one (n, 3, 3) array per angle.  Note the y-rotation convention:
    -sin(beta) sits at row 0, col 2 (the transpose of the more common form).
    Fitting power is unaffected; the convention is fixed here once.
    """
    angles = np.asarray(angles, dtype=np.float64).reshape(-1, 3)
    cos = np.cos(angles)[:, :, None, None]
    sin = np.sin(angles)[:, :, None, None]
    # (n, 3 axes, 3, 3): the single-axis rotations and their derivatives
    axis = _AXIS_FIXED + cos * _AXIS_COS + sin * _AXIS_SIN
    daxis = cos * _AXIS_SIN - sin * _AXIS_COS
    rx, ry, rz = axis[:, 0], axis[:, 1], axis[:, 2]
    rzy = rz @ ry
    dr = np.empty((3, *rx.shape))
    np.matmul(rzy, daxis[:, 0], out=dr[0])
    np.matmul(rz @ daxis[:, 1], rx, out=dr[1])
    np.matmul(daxis[:, 2], ry @ rx, out=dr[2])
    return rzy @ rx, dr


class RbfModel:
    """Ordered collection of ellipsoid Gaussian bases over one (n, 10) table, `params`.

    coeff_sqrt, decay_sqrt, centers and angles are column views of the
    table (see the module docstring).  Treated as immutable during
    evaluation; optimizer steps build new models.
    """

    def __init__(self, coeff_sqrt, decay_sqrt, centers, angles):
        c = np.atleast_1d(np.asarray(coeff_sqrt, dtype=np.float64))
        parts = [np.asarray(a, dtype=np.float64).reshape(-1, 3)
                 for a in (decay_sqrt, centers, angles)]
        if any(part.shape[0] != c.shape[0] for part in parts):
            raise ValueError("inconsistent basis array lengths")
        self.params = np.column_stack([c, *parts])

    @classmethod
    def from_params(cls, params: np.ndarray) -> RbfModel:
        """The model over an (n, 10) table, held as given: no copy."""
        model = cls.__new__(cls)
        model.params = params
        return model

    coeff_sqrt = property(lambda self: self.params[:, _COEFF])
    decay_sqrt = property(lambda self: self.params[:, _DECAY])
    centers = property(lambda self: self.params[:, _CENTER])
    angles = property(lambda self: self.params[:, _ANGLES])

    @property
    def n_bases(self) -> int:
        return self.params.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Effective per-basis weights c~^2."""
        return self.coeff_sqrt**2

    def values(self, points: np.ndarray | GridSpec) -> np.ndarray:
        """Model value (sum over bases) at (M, 3) points or at every node of a GridSpec.

        Zeros for an empty model.  At points, the residual of a _fused_pass
        at zero targets.  On a grid, GridSpec.block_sum sums each basis that
        reaches GRID_TAU / n (reach_boxes) with log-weight ln c~^2 and the
        quadratic part of its row of Q about its center (_exponent_rows).
        """
        if isinstance(points, GridSpec):
            kept, r, half = reach_boxes(self.params, GRID_TAU)
            neg_q = _exponent_rows(_exponent_matrices(self.params[kept, _DECAY], r))[:, 4:]
            return points.block_sum(self.params[kept, _CENTER], half,
                                    np.log(self.params[kept, _COEFF] ** 2), neg_q)
        blocks = _PointBlocks(points, self.n_bases)
        return _fused_pass(self.params, np.zeros(blocks.points_t.shape[1]), blocks)[0]

    def __eq__(self, other):
        if not isinstance(other, RbfModel):
            return NotImplemented
        return np.array_equal(self.params, other.params)


def pack_parameters(model: RbfModel) -> np.ndarray:
    """The model's table as a flat vector (a copy), row by row."""
    return model.params.flatten()


def unpack_parameters(x: np.ndarray, n_bases: int) -> RbfModel:
    """Inverse of pack_parameters; validates the vector length and never aliases x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (PARAMS_PER_BASIS * n_bases,):
        raise ValueError(
            f"parameter vector has length {x.size}, expected {PARAMS_PER_BASIS * n_bases}"
        )
    return RbfModel.from_params(x.reshape(n_bases, PARAMS_PER_BASIS).copy())


def _exponent_matrices(d, r):
    """A_i = R_i^T diag(d~_i^2) R_i of every basis, shape (n, 3, 3), from R of shape (n, 3, 3)."""
    return np.swapaxes(r, 1, 2) @ (d[:, :, None] ** 2 * r)


def _exponent_rows(a):
    """-Q (n, 10) of every basis with the monomials taken about its own center.

    Only the quadratic part (columns 4-9) is nonzero; _fused_pass fills
    columns 0-3 for the origin of each block.  The rows are kept negated so
    that -E = (-Q) phi needs no pass of its own.
    """
    neg_q = np.zeros((a.shape[0], 10))
    neg_q[:, 4:] = -(1 + (_PAIR_U != _PAIR_V)) * a[:, _PAIR_U, _PAIR_V]
    return neg_q


def reach(levels, r, d):
    """Half-widths (n, 3) of the axis-aligned boxes around the ellipsoids u^T D u <= levels_i.

    u = R_i (y - x_i) and D = diag(d~_i^2), from R of shape (n, 3, 3).  The
    ellipsoid reaches h_ip = sqrt(levels_i sum_a R_ap^2 / d~_ia^2) from its
    center along axis p: infinite along an axis that a zero decay leaves
    unbounded.  Every cutoff of the model (point passes, grid, meshing box)
    takes its boxes from here.
    """
    r_sq = r**2
    with np.errstate(divide="ignore", invalid="ignore"):
        # a rotation entry of 0 adds nothing, even against a zero decay
        spread = np.where(r_sq > 0, r_sq / d[:, :, None] ** 2, 0.0).sum(axis=1)
    return np.sqrt(levels[:, None] * spread)


class _PointBlocks:
    """Coordinate-major (3, M) points, their block layout and the buffers of passes over them.

    It takes (M, 3) points and holds them in the gate's layout (field.coordinate_major).
    The block layout is fixed here, once per fit, in blocks of
    b = BLOCK_DOUBLES // (10 + n) points (M at most) in point order: block j
    holds points bounds[j] .. bounds[j + 1] - 1, origins[j] is its origin,
    the centroid of its points, and with more than one block lo[j] and hi[j]
    (3, 1) bound its points, for the cutoff.  A (10 * b) buffer holds a
    block's monomials and an (n * b) one its exponents, which also serve any
    pass over fewer bases.  The fit makes one and reuses it in every pass:
    allocating and freeing the buffers per pass lets malloc return the
    memory to the system and fault it back in on the next pass, about one
    fault per 4 kB on every pass.  passes counts the passes, for
    _fused_pass's buffer guard and its monomials (built once on one block).
    kept_pairs and all_pairs count the (block, basis) pairs that the passes
    evaluated and that they would have evaluated without the cutoff.
    """

    def __init__(self, points: np.ndarray, n: int):
        self.points_t = points_t = coordinate_major(points)
        m = points_t.shape[1]
        size = max(1, min(m, BLOCK_DOUBLES // (10 + n)))
        self.phi = np.empty(10 * size)
        self.g = np.empty(n * size)
        self.bounds = np.append(np.arange(0, m, size), m)
        self.origins = np.empty((self.bounds.size - 1, 3))
        for j, (start, stop) in enumerate(pairwise(self.bounds.tolist())):
            self.origins[j] = points_t[:, start:stop].sum(axis=1) / (stop - start)
        self.lo = self.hi = None
        if m > size:
            self.lo = np.minimum.reduceat(points_t, self.bounds[:-1], axis=1).T[:, :, None]
            self.hi = np.maximum.reduceat(points_t, self.bounds[:-1], axis=1).T[:, :, None]
        self.passes = self.kept_pairs = self.all_pairs = 0


def _cutoff_boxes(params, r):
    """(lo, hi), each (3, n): the box of points that each basis takes (see _fused_pass).

    Empty for a basis with L_i <= 0, and the whole space for one with a
    parameter that is not finite, so that a pass at an overflowed trial step
    is not finite either, as without the cutoff.
    """
    n = params.shape[0]
    d = params[:, _DECAY]
    with np.errstate(all="ignore"):
        c_abs, d_abs = np.abs(params[:, _COEFF]), np.abs(d)
        d_min, d_max = d_abs.min(axis=1), d_abs.max(axis=1)
        scale = 2.0 * np.maximum.reduce([c_abs, c_abs**2 * np.maximum(d_max, 1.0) / d_min,
                                         c_abs**2 * d_max])
        cut = np.log(n * scale / GRID_TAU)
        half = reach(cut + np.log1p(2.0 * cut), r, d).T
        centers = params[:, _CENTER].T
        lo, hi = np.subtract(centers, half, order="C"), np.add(centers, half, order="C")
    empty, whole = ~(cut > 0), ~np.isfinite(params).all(axis=1)
    lo[:, empty], hi[:, empty] = np.inf, -np.inf
    lo[:, whole], hi[:, whole] = -np.inf, np.inf
    return lo, hi


def _fused_pass(params, targets, blocks: _PointBlocks):
    """Residual and gradient moments of every basis, in one pass over the points.

    Returns (residual, moment_part).  residual_k = sum_i c~_i^2 g_ik - target_k
    at the points y_k of `blocks`, with g_ik = exp(-(y_k - x_i)^T A_i (y_k - x_i))
    and A = R^T diag(d~^2) R; at zero targets it is the model's values
    (x - 0.0 = x).  moment_part() returns the moments (R, dR, A, s0, m1, C):
    the rotations and their angle derivatives (see rotations), A, and the
    residual-weighted moments of every basis about its center,

        s0 = sum_k w_k,   m1 = sum_k w_k p_k,   C = sum_k w_k p_k p_k^T,
        p_k = y_k - x_i,  w_k = residual_k g_ik,

    from which _objective_gradient_arrays forms the gradient with 3x3
    algebra alone.  The only place an ellipsoid Gaussian is evaluated at
    points; the grid path uses the same Q and monomials.

    `blocks` holds the points, their block layout and the buffers for at
    least the n bases; the pass overwrites the buffers.  It walks the
    layout, one block of b points y_k at a time, about the block's origin o.
    Its value part builds the monomials phi (10, b) of z_k = y_k - o (on
    every block of a pass over more than one, on the first pass over one),
    takes the bases idx of its cutoff, writes their exponents
    E = Q phi and exp(-E) into g (k, b), then its residual; its moment part
    (_moment_part) takes the moments from the same phi and g.  Each block's
    moment part runs just before the next block reuses the buffers, and the
    last block's at the first moment_part() call, so a pass over one block
    whose moments are never asked for costs its value part alone; a first
    call after a later pass over `blocks` raises RuntimeError.

    The exponent as one GEMM.  With p = y - x_i = z - s_i, s_i = x_i - o,

        p^T A p = z^T A z - 2 (A s)^T z + s^T A s = Q_i . phi(z),
        phi(z) = [1, z_1, z_2, z_3, z_1^2, z_2^2, z_3^2, z_1 z_2, z_1 z_3, z_2 z_3],
        Q_i    = [s^T A s, -2 (A s)_1..3, A_11, A_22, A_33, 2 A_12, 2 A_13, 2 A_23],

    so the block's exponents are E = Q phi, a (k, 10) by (10, b) product.
    The terms of the expansion are of size |A| (|z| + |s|)^2 and cancel
    down to p^T A p, so the origin is kept local: each block has its own.

    The cutoff.  Points that fit in one block take every basis, with no
    test.  Otherwise a block takes the bases whose reach box (see reach) at
    the level E_i = L_i + ln(1 + 2 L_i), L_i = ln(n s_i / GRID_TAU), meets
    the block's box of points (_cutoff_boxes), where

        s_i = 2 max(|c~|, c~^2 max(1, d_max) / d_min, c~^2 d_max)

    and d_min, d_max are the least and largest |d~_ia|.  A pair left out has
    t = u^T D u > E_i (u = R_i p, D = diag(d~_i^2)).  Its value term c~^2 g
    and its term d(c~^2 g)/dq in each gradient slot of basis i, which is
    c~^2 g times 2/c~ (slot c~), -2 d~_a u_a^2 (d~_a), 2 R^T D u (x) or
    -2 u^T D R'_j p (angle j, with |R'_j p| <= |p|), are all at most
    s_i max(1, t) e^-t, because |D u| <= d_max sqrt(t) and
    |p| <= sqrt(t) / d_min; and s_i max(1, t) e^-t < GRID_TAU / n for
    t >= E_i (there t - ln t >= L_i, since 1 + 2 L >= L + ln(1 + 2 L)).
    So at any point the value terms left out sum to less than GRID_TAU, and
    a gradient slot that weighs point k by its residual r_k leaves out less
    than GRID_TAU / n * sum_k |r_k|, on top of the residual's own error.  A
    basis with a zero decay has infinite reach and meets every block, as
    does one with a parameter that is not finite; one with L_i <= 0
    (c~ = 0 included) is below the bound everywhere and meets none.

    Moments, shifted.  A block gets its moments about its origin as one
    product, B = w phi^T (k, 10): b0 = sum_k w_k, b1 = sum_k w_k z_k and
    b2_ab = sum_k w_k z_ka z_kb (column _SYMMETRIC_MONOMIALS[a, b] of B).
    About the basis center, p = z - s,

        s0 = b0,   m1 = b1 - b0 s,   C = b2 - s b1^T - b1 s^T + b0 s s^T,

    added to the bases the block evaluated: idx holds each basis once, so a
    fancy-index += is exact.
    """
    r, dr = rotations(params[:, _ANGLES])
    a = _exponent_matrices(params[:, _DECAY], r)  # R^T D R
    neg_q = _exponent_rows(a)
    c2 = params[:, _COEFF] ** 2
    centers = params[:, _CENTER]
    n, m = params.shape[0], blocks.points_t.shape[1]
    residual = np.empty(m)
    moments = (r, dr, a, np.zeros(n), np.zeros((n, 3)), np.zeros((n, 3, 3)))
    boxes = None if blocks.lo is None else _cutoff_boxes(params, r)
    blocks.passes += 1
    this_pass, deferred = blocks.passes, None
    for i, (start, stop) in enumerate(pairwise(blocks.bounds.tolist())):
        if deferred is not None:  # the previous block's moments, before its buffers are reused
            _moment_part(*deferred)
        y, origin, b = blocks.points_t[:, start:stop], blocks.origins[i], stop - start
        idx, k = slice(None), n
        if boxes is not None:
            met = ~((boxes[0] > blocks.hi[i]) | (boxes[1] < blocks.lo[i])).any(axis=0)
            if not met.all():
                idx = np.flatnonzero(met)
                k = idx.size
        phi = blocks.phi[:10 * b].reshape(10, b)
        g = blocks.g[:k * b].reshape(k, b)
        if boxes is not None or this_pass == 1:  # one block's monomials serve every pass
            phi[0] = 1.0
            np.subtract(y, origin[:, None], out=phi[1:4])
            for j, (u, v) in enumerate(_PAIRS):
                np.multiply(phi[1 + u], phi[1 + v], out=phi[4 + j])
        s = centers[idx] - origin
        a_s = (a[idx] @ s[:, :, None])[:, :, 0]
        q = neg_q[idx]  # neg_q itself for slice(None), else a copy of its rows
        np.multiply(a_s, 2.0, out=q[:, 1:4])
        np.negative((s * a_s).sum(axis=1), out=q[:, 0])
        np.matmul(q, phi, out=g)
        np.exp(g, out=g)
        blocks.kept_pairs += k
        blocks.all_pairs += n
        res = residual[start:stop]
        np.matmul(c2[idx], g, out=res)
        res -= targets[start:stop]
        deferred = (moments, idx, s, phi, g, res)

    def moment_part():
        nonlocal deferred
        if deferred is not None:
            if blocks.passes != this_pass:
                raise RuntimeError("the moments of a pass were asked for after a later "
                                   "pass over the same points overwrote its buffers")
            _moment_part(*deferred)
            deferred = None
        return moments
    return residual, moment_part


def _moment_part(moments, idx, s, phi, g, res):
    """Add one block's moments of the bases idx to `moments` (see _fused_pass).

    g (their exponentials) becomes w = res * g in place; s is their centers
    less the block's origin.
    """
    s0, m1, cm = moments[3:]
    g *= res                                 # w = residual * g
    raw = g @ phi.T                          # moments about the block origin
    b0, b1, b2 = raw[:, 0], raw[:, 1:4], raw[:, _SYMMETRIC_MONOMIALS]
    sb1 = s[:, :, None] * b1[:, None, :]
    s0[idx] += b0
    m1[idx] += b1 - b0[:, None] * s
    cm[idx] += b2 - sb1 - np.swapaxes(sb1, 1, 2)
    cm[idx] += b0[:, None, None] * (s[:, :, None] * s[:, None, :])


def reach_boxes(params, floor):
    """(kept, R, half): the bases of the table that reach floor / n (n bases), and their boxes.

    Basis i is below floor / n outside the ellipsoid u^T D u <= E_i, with
    u = R_i (y - x_i), D = diag(d~_i^2) and E_i = ln(n c~_i^2 / floor), so
    kept indexes the bases with E_i > 0.  R holds their rotations (k, 3, 3)
    and half their ellipsoids' boxes (see reach).
    """
    with np.errstate(divide="ignore", over="ignore"):
        levels = np.log(params.shape[0] * params[:, _COEFF] ** 2 / floor)
    kept = np.flatnonzero(levels > 0)
    r = rotations(params[kept, _ANGLES])[0]
    return kept, r, reach(levels[kept], r, params[kept, _DECAY])


def _objective_gradient_arrays(params, moments, w_s, w_l) -> np.ndarray:
    """Gradient of w_s*E_s + w_l*E_l1 from the moments of a _fused_pass, in the table's order.

    E_s = sum_k residual_k^2 with residual = model(y_k) - target_k;
    E_l1 = sum_i c~_i^2 + sum_{i,p} d~_ip^2 (smooth in the tilde variables).

    moments() gives (R, dR, A, s0, m1, C): the moment part of the
    _fused_pass at the same table.  The gradient is an (n, 10) table, slot
    for slot like the parameters.  Every gradient slot is 3x3 algebra on
    them, done for all bases at once on (n, 3, 3) arrays, with no pass over
    the points.  For basis i write c2 = c~_i^2,
    D = diag(d~_i^2), R = R(alpha_i, beta_i, gamma_i) and, per point k,

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
    c, d = params[:, _COEFF], params[:, _DECAY]
    r, dr, a, s0, m1, cm = moments()
    rc = r @ cm                                  # R C
    scale = 4.0 * w_s * c * c
    gc = 4.0 * w_s * c * s0 + 2.0 * w_l * c
    gd = -scale[:, None] * d * (rc * r).sum(axis=2) + 2.0 * w_l * d
    gx = scale[:, None] * np.einsum("nab,nb->na", a, m1)
    drc = (d * d)[:, :, None] * rc               # D R C
    gang = -scale[:, None] * np.einsum("nab,jnab->nj", drc, dr)
    return np.column_stack([gc, gd, gx, gang])


def eval_model_gradient(model: RbfModel, constraints, weights) -> np.ndarray:
    """Gradient of f = w_s*E_s + w_l*E_l1 over all the model's parameters.

    `constraints` provides the fitting points and their target values
    (any object with .points and .targets that make a ConstraintSet);
    `weights` is the pair (w_s, w_l).  Flat, row by row like the model's
    table.  One pass over the points (_fused_pass), then 3x3 algebra.
    """
    if model.n_bases == 0:
        raise ValueError("gradient of an empty model")
    constraints = ConstraintSet(constraints.points, constraints.targets)
    _, moments = _fused_pass(model.params, constraints.targets,
                             _PointBlocks(constraints.points, model.n_bases))
    return _objective_gradient_arrays(model.params, moments, *weights).ravel()


def save_model(model: RbfModel, path: str | Path, metadata: dict | None = None) -> None:
    """Write the model as a versioned JSON document.

    Both the effective values (weight, decays) and the underlying square-root
    variables are stored; reload uses the square-root fields so a save/load
    round trip is bit-exact.  A weight or decay beyond the largest double has
    no JSON number, so it raises ValueError and writes nothing.
    """
    try:
        bases = [
            {
                "weight": row[_COEFF] ** 2,
                "decays": [v**2 for v in row[_DECAY]],
                "coeff_sqrt": row[_COEFF],
                "decay_sqrt": row[_DECAY],
                "center": row[_CENTER],
                "angles": row[_ANGLES],
            }
            for row in model.params.tolist()
        ]
    except OverflowError:
        raise ValueError(f"{path}: a weight or decay of the model overflows a double") from None
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "metadata": metadata or {},
        "n_bases": model.n_bases,
        "bases": bases,
    }
    # written as it is encoded: the whole text of a large model is never held
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# (key, length, columns of the table) of the per-basis fields load_model reads;
# length 0 is a bare number
_BASIS_FIELDS = (("coeff_sqrt", 0, slice(_COEFF, _COEFF + 1)), ("decay_sqrt", 3, _DECAY),
                 ("center", 3, _CENTER), ("angles", 3, _ANGLES))


def _finite_numbers(value, size: int, what: str) -> np.ndarray:
    """`value` as max(size, 1) finite floats (size 0: one bare number); else ValueError."""
    items = value if size else [value]
    if (isinstance(items, list) and len(items) == max(size, 1)
            and all(type(v) in (int, float) for v in items)):
        try:
            arr = np.array(items, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            arr = np.array([np.inf])
        if np.isfinite(arr).all():
            return arr
    raise ValueError(f"{what} must be " + (f"{size} finite numbers" if size else "a finite number"))


def load_model(path: str | Path) -> tuple[RbfModel, dict]:
    """Read a model document written by save_model; returns (model, metadata).

    Any document that is not a well-formed model (not UTF-8 text, not JSON,
    missing keys, no bases, wrong vector lengths, numbers or weights c~^2 and
    decays d~^2 that are not finite) raises ValueError naming the file.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    bases = doc.get("bases")
    if not isinstance(bases, list):
        raise ValueError(f"{path}: 'bases' must be a list")
    if not bases:
        raise ValueError(f"{path}: the model has no bases")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: 'metadata' must be an object")
    for key in ("box_lo", "box_hi"):
        if key in metadata:
            _finite_numbers(metadata[key], 3, f"{path}: metadata {key!r}")
    params = np.empty((len(bases), PARAMS_PER_BASIS))
    for i, basis in enumerate(bases):
        if not isinstance(basis, dict):
            raise ValueError(f"{path}: basis {i} must be an object")
        for key, size, cols in _BASIS_FIELDS:
            if key not in basis:
                raise ValueError(f"{path}: basis {i} has no {key!r}")
            params[i, cols] = _finite_numbers(basis[key], size, f"{path}: basis {i} {key!r}")
    with np.errstate(over="ignore"):
        big = np.flatnonzero(np.isinf(params[:, :_DECAY.stop] ** 2).any(axis=1))
    if big.size:  # save_model refuses the same model
        raise ValueError(f"{path}: basis {big[0]}: its weight or decay overflows a double")
    return RbfModel.from_params(params), metadata
