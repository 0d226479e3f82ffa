"""Sparse fitting loop: gradient descent with pruning and adaptive weights.

Minimizes f = w_s * E_s + w_l * E_l1 over the packed model parameters, where

    E_s  = sum_k (model(y_k) - phi(y_k))^2       (fit at the constraint points)
    E_l1 = sum_i c~_i^2 + sum_{i,p} d~_ip^2      (sparsity; L1 of the effective
                                                  values, smooth in the tilde
                                                  variables)

The weight pair is recomputed every iteration from the current energy split,
with three overrides applied in order: a floor epsilon on w_s, a switch to
pure accuracy (1, 0) whenever the worst pointwise error exceeds a cap, and a
permanent switch to (1, 0) once the iteration count passes `sparse_iter`
(after which the basis count is frozen: no more pruning).  Bases whose
coefficient magnitude falls below `prune_tol` are deleted every
`prune_interval` iterations during the sparse phase.

Steps use the negative gradient with Armijo backtracking; a failed search
records a zero step and the run continues.  All reductions are plain numpy
sums over arrays in a fixed order, so a run is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    RbfModel,
    _objective_gradient_arrays,
    _unpack_arrays,
    _values_arrays,
    pack_parameters,
    unpack_parameters,
)
from .sampler import ConstraintSet


class OptimizationError(RuntimeError):
    """Optimization aborted; .trace carries the partial iteration history."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ModelCollapseError(OptimizationError):
    """Pruning removed every basis."""


class NonFiniteObjectiveError(OptimizationError):
    """Objective or gradient stopped being finite."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 8000
    sparse_iter: int = 6000
    prune_tol: float = 1e-3
    prune_interval: int = 20
    epsilon_floor: float = 0.01
    max_error_cap: float = 0.5
    armijo_c1: float = 1e-4
    shrink: float = 0.5
    first_tau: float = 1e-3
    max_backtracks: int = 40
    deterministic: bool = True

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not 0 <= self.sparse_iter <= self.max_iter:
            raise ValueError("need 0 <= sparse_iter <= max_iter")
        if self.prune_tol <= 0 or self.epsilon_floor <= 0 or self.max_error_cap <= 0:
            raise ValueError("tolerances must be positive")
        if self.prune_interval < 1:
            raise ValueError("prune_interval must be >= 1")
        if not 0 < self.armijo_c1 < 1 or not 0 < self.shrink < 1:
            raise ValueError("need 0 < armijo_c1 < 1 and 0 < shrink < 1")
        if self.first_tau <= 0 or self.max_backtracks < 0:
            raise ValueError("first_tau must be positive, max_backtracks >= 0")


@dataclass(frozen=True)
class TraceRecord:
    """State at the top of one iteration plus the step that was taken.

    f/es/el1/ws/wl describe the objective before the step with that
    iteration's weights; tau is the accepted step (0 on a stalled search);
    accepted_f is the objective after the step under the same weights, kept
    for descent audits but not exported.
    """

    iteration: int
    f: float
    es: float
    el1: float
    ws: float
    wl: float
    nbasis: int
    tau: float
    accepted_f: float


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def n_stalls(self) -> int:
        return sum(1 for r in self.records if r.tau == 0.0)

    def to_csv(self, path, header_lines=()) -> None:
        lines = [f"# {h}" for h in header_lines]
        lines.append("iter,f,Es,El1,ws,wl,nbasis,tau")
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.f!r},{r.es!r},{r.el1!r},"
                f"{r.ws!r},{r.wl!r},{r.nbasis},{r.tau!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def energy_terms(model: RbfModel, constraints: ConstraintSet) -> tuple[float, float]:
    """(E_s, E_l1) for a model against a constraint set."""
    residual = model.values(constraints.points) - constraints.targets
    es = float(residual @ residual)
    el1 = float(model.coeff_sqrt @ model.coeff_sqrt + (model.decay_sqrt**2).sum())
    return es, el1


def adaptive_weights(es: float, el1: float, epsilon_floor: float) -> tuple[float, float]:
    """w_s = max(E_s/(E_s+E_l1), eps), w_l = E_l1/(E_s+E_l1); (eps, 0) if both zero."""
    total = es + el1
    if total == 0.0:
        return epsilon_floor, 0.0
    return max(es / total, epsilon_floor), el1 / total


def prune(model: RbfModel, prune_tol: float) -> RbfModel:
    """Drop every basis with |c~_i| < prune_tol, preserving survivor order."""
    keep = np.abs(model.coeff_sqrt) >= prune_tol
    if not keep.any():
        raise ModelCollapseError("pruning removed every basis")
    if keep.all():
        return model
    return RbfModel(
        coeff_sqrt=model.coeff_sqrt[keep],
        decay_sqrt=model.decay_sqrt[keep],
        centers=model.centers[keep],
        angles=model.angles[keep],
    )


def max_pointwise_error(model: RbfModel, constraints: ConstraintSet) -> float:
    """max_k |model(y_k) - phi(y_k)| over the constraint points."""
    return float(np.abs(model.values(constraints.points) - constraints.targets).max())


def line_search(objective, x, f0, grad, tau_init, c1=1e-4, shrink=0.5,
                max_backtracks=40) -> tuple[float, float]:
    """Armijo backtracking along -grad from x.

    Tries tau_init, then shrinks up to max_backtracks times, accepting the
    first tau with objective(x - tau*grad) <= f0 - c1*tau*||grad||^2.
    Returns (tau, objective value at the step); a stalled search returns
    (0.0, f0) and the caller keeps the current point.
    """
    gnorm2 = float(grad @ grad)
    if gnorm2 == 0.0:
        raise ValueError("line search needs a nonzero gradient")
    tau = tau_init
    for _ in range(max_backtracks + 1):
        f_trial = objective(x - tau * grad)
        # strict decrease required: when the gradient is so small that the
        # Armijo bound rounds to f0, accepting a no-progress step would let
        # the step seed grow without doing anything
        if f_trial <= f0 - c1 * tau * gnorm2 and f_trial < f0:
            return tau, f_trial
        tau *= shrink
    return 0.0, f0


def optimize(model0: RbfModel, constraints: ConstraintSet,
             config: OptimizerConfig | None = None) -> tuple[RbfModel, IterationTrace]:
    """Run the full loop from an initial model; returns (final model, trace).

    Each iteration costs one value pass per line-search trial plus one
    gradient: the residual at the top of an iteration is the accepted
    trial's residual from the iteration before.  The values are computed
    from scratch only at the first iteration and after a prune that removed
    bases.

    Raises ModelCollapseError / NonFiniteObjectiveError with the partial
    trace attached if the run cannot continue.
    """
    config = config or OptimizerConfig()
    if model0.n_bases == 0:
        raise ModelCollapseError("initial model has no bases")
    points = constraints.points
    targets = constraints.targets
    trace = IterationTrace()

    x = pack_parameters(model0)
    n = model0.n_bases
    tau_seed = config.first_tau
    residual = None          # model(x) - targets; None when it must be recomputed
    trial_residual = None    # residual at the line search's last trial point

    for it in range(1, config.max_iter + 1):
        if it % config.prune_interval == 0 and it <= config.sparse_iter:
            c, d, centers, ang = _unpack_arrays(x, n)
            keep = np.abs(c) >= config.prune_tol
            if not keep.any():
                raise ModelCollapseError(
                    f"pruning removed every basis at iteration {it}", trace=trace)
            if not keep.all():
                n = int(keep.sum())
                x = np.concatenate([
                    c[keep], d[keep, 0], d[keep, 1], d[keep, 2],
                    centers[keep].ravel(), ang[keep, 0], ang[keep, 1], ang[keep, 2],
                ])
                residual = None

        c, d, centers, ang = _unpack_arrays(x, n)
        # overflow here is handled by the explicit finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            if residual is None:
                residual = _values_arrays(c, d, centers, ang, points) - targets
            es = float(residual @ residual)
            el1 = float(c @ c + (d * d).sum())
        if not (np.isfinite(es) and np.isfinite(el1)):
            raise NonFiniteObjectiveError(
                f"objective not finite at iteration {it} (Es={es}, El1={el1})",
                trace=trace)

        ws, wl = adaptive_weights(es, el1, config.epsilon_floor)
        if float(np.abs(residual).max()) > config.max_error_cap:
            ws, wl = 1.0, 0.0
        if it > config.sparse_iter:
            ws, wl = 1.0, 0.0

        f0 = ws * es + wl * el1
        grad = _objective_gradient_arrays(c, d, centers, ang, points, residual, ws, wl)
        if not np.isfinite(grad).all():
            raise NonFiniteObjectiveError(
                f"gradient not finite at iteration {it}", trace=trace)

        if float(grad @ grad) == 0.0:
            # stationary for the in-force weights (e.g. exact start); no step
            trace.append(TraceRecord(it, f0, es, el1, ws, wl, n, 0.0, f0))
            continue

        def objective(x_trial, ws=ws, wl=wl):
            # oversized trial steps may overflow; the resulting inf/nan simply
            # fails the acceptance test and the step is backtracked
            nonlocal trial_residual
            with np.errstate(over="ignore", invalid="ignore"):
                ct, dt, xt, at = _unpack_arrays(x_trial, n)
                trial_residual = _values_arrays(ct, dt, xt, at, points) - targets
                return (ws * float(trial_residual @ trial_residual)
                        + wl * float(ct @ ct + (dt * dt).sum()))

        tau, f_new = line_search(
            objective, x, f0, grad, tau_seed,
            c1=config.armijo_c1, shrink=config.shrink,
            max_backtracks=config.max_backtracks,
        )
        if tau > 0.0:
            # the accepted trial is the last one evaluated, at this same
            # x - tau*grad, so its residual is bit-exact for the new point
            x = x - tau * grad
            residual = trial_residual
            tau_seed = 2.0 * tau
        trace.append(TraceRecord(it, f0, es, el1, ws, wl, n, tau, f_new))

    return unpack_parameters(x, n), trace


def write_weight_histogram(model: RbfModel, path, header_lines=()) -> None:
    """Per-basis effective weights c~_i^2, one per line."""
    lines = [f"# {h}" for h in header_lines]
    lines.extend(f"{float(w)!r}" for w in model.weights)
    Path(path).write_text("\n".join(lines) + "\n")
