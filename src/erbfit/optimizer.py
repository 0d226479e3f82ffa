"""Sparse fitting loop: gradient descent with pruning and adaptive weights.

Minimizes f = w_s * E_s + w_l * E_l1 over the model's (n, 10) parameter table, where

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

Steps use the negative gradient with Armijo backtracking by quadratic
interpolation (line_search), seeded at twice the last accepted step; a
failed search records a zero step and the run continues.  All reductions
are plain numpy sums over arrays in a fixed order, so a run is
deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import positive, write_lines
from .model import RbfModel, _PointBlocks, _fused_pass, _objective_gradient_arrays
from .sampler import ConstraintSet

# the line search: Armijo constant, the clamps of a backtrack (fractions of
# the step), the first iteration's trial step and the most backtracks
_ARMIJO_C1 = 1e-4
_SHRINK_MIN, _SHRINK_MAX = 0.1, 0.5
_FIRST_TAU = 1e-3
_MAX_BACKTRACKS = 40


class OptimizationError(RuntimeError):
    """Optimization aborted; .trace carries the partial iteration history."""

    trace = None


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

    def __post_init__(self):
        for name in ("prune_tol", "epsilon_floor", "max_error_cap"):
            positive(name, getattr(self, name))
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not 0 <= self.sparse_iter <= self.max_iter:
            raise ValueError("need 0 <= sparse_iter <= max_iter")
        if self.prune_interval < 1:
            raise ValueError("prune_interval must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """State at the top of one iteration plus the step that was taken.

    f/es/el1/ws/wl describe the objective before the step with that
    iteration's weights; tau is the accepted step (0 on a stalled search);
    accepted_f is the objective after the step under the same weights, kept
    for descent audits but not exported; trials is the number of objective
    evaluations of the iteration's line search (0 when it ran none), not
    exported either.
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
    trials: int = 0


class IterationTrace(list):
    """The TraceRecords of a run, in order, and its passes over the constraint points.

    block_pairs counts the (block, basis) pairs that the passes evaluated,
    block_pairs_full the pairs they would have without the cutoff (bases
    times blocks), both summed over the passes (see model._fused_pass).
    residual is the final model's residual at the constraint points, from
    the run's last pass at that model (None until optimize returns).  Its
    passes go in blocks sized for the initial basis count, so after a prune
    that removed bases, on points that span more than one block, it may
    differ from fit_residual of the final model in the last bits, whose
    blocks have other origins and cutoffs; otherwise it has its bits.
    """

    point_passes = 0
    block_pairs = 0
    block_pairs_full = 0
    residual: np.ndarray | None = None

    @property
    def n_stalls(self) -> int:
        return sum(1 for r in self if r.tau == 0.0)

    def to_csv(self, path, header_lines=()) -> None:
        write_lines(path, header_lines, ["iter,f,Es,El1,ws,wl,nbasis,tau", *(
            f"{r.iteration},{r.f!r},{r.es!r},{r.el1!r},{r.ws!r},{r.wl!r},{r.nbasis},{r.tau!r}"
            for r in self)])


def fit_residual(model: RbfModel, constraints: ConstraintSet) -> np.ndarray:
    """model(y_k) - phi(y_k) at the constraint points: one pass."""
    return model.values(constraints.points) - constraints.targets


def energy_terms(model: RbfModel, residual: np.ndarray) -> tuple[float, float]:
    """(E_s, E_l1) of a model, given its residual at the constraint points."""
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
    return RbfModel.from_params(model.params[keep])


def max_pointwise_error(residual: np.ndarray) -> float:
    """max_k |model(y_k) - phi(y_k)|, given the residual at the constraint points."""
    return float(np.abs(residual).max())


def line_search(objective, x, f0, grad, tau_init) -> tuple[float, float]:
    """Armijo backtracking along -grad from x (Nocedal & Wright, 2nd ed., 3.5).

    Tries tau_init, then backtracks up to _MAX_BACKTRACKS times, accepting
    the first tau with objective(x - tau*grad) <= f0 - _ARMIJO_C1*tau*||grad||^2.
    A rejected tau with value f_t goes to the minimiser of the quadratic
    through f0, the slope -||grad||^2 and f_t,
    tau * 0.5 ||grad||^2 tau / (f_t - f0 + ||grad||^2 tau), clamped to
    [0.1 tau, 0.5 tau]; a value that is not finite (an overflowed step)
    halves tau.  x and grad are arrays of one shape, any shape.  Returns
    (tau, objective value at the step); a stalled search returns (0.0, f0)
    and the caller keeps the current point.
    """
    gnorm2 = float(np.vdot(grad, grad))
    if gnorm2 == 0.0:
        raise ValueError("line search needs a nonzero gradient")
    tau = tau_init
    for _ in range(_MAX_BACKTRACKS + 1):
        f_trial = objective(x - tau * grad)
        # strict decrease required: when the gradient is so small that the
        # Armijo bound rounds to f0, accepting a no-progress step would let
        # the step seed grow without doing anything
        if f_trial <= f0 - _ARMIJO_C1 * tau * gnorm2 and f_trial < f0:
            return tau, f_trial
        slope = gnorm2 * tau
        curvature = f_trial - f0 + slope  # q(tau) - q(0) - q'(0) tau
        shrink = 0.5 * slope / curvature if 0.0 < curvature < np.inf else _SHRINK_MAX
        tau *= min(max(shrink, _SHRINK_MIN), _SHRINK_MAX)
    return 0.0, f0


# a trial step may overflow: the inf or nan it gives fails the line search's
# test and the step is backtracked, and the finiteness checks stop the run
# when the current point's objective or gradient is not finite
@np.errstate(over="ignore", invalid="ignore")
def optimize(model0: RbfModel, constraints: ConstraintSet,
             config: OptimizerConfig | None = None) -> tuple[RbfModel, IterationTrace]:
    """Run the full loop from an initial model; returns (final model, trace).

    The loop steps the model's (n, 10) table, x, by gradient tables of the
    same shape.  Each iteration costs one pass over the constraint points
    per line-search trial, and nothing more.  One evaluation of a point
    (evaluate) makes a pass (model._fused_pass), for its residual and moment
    part, the residual-weighted moments of every basis, and takes its
    energies from the residual; the accepted trial's evaluation is the next
    iteration's, whose gradient comes from the moments by 3x3 algebra alone.
    The current point is evaluated only at the first iteration and after a
    prune that removed bases, so a run makes 1 + trials + prunes passes
    (trace.point_passes).  The last block's moment part runs only in the
    gradient, so on one block a rejected trial makes none.  The residual of
    the last pass at the final point, the accepted trial's or, after a
    stalled search, the current point's, is handed back as trace.residual; a
    run of no iterations makes its one pass for that.

    A ModelCollapseError, NonFiniteObjectiveError or KeyboardInterrupt in
    the loop leaves with " at iteration <it>" added to its message and the
    partial trace as its .trace.
    """
    config = config or OptimizerConfig()
    if model0.n_bases == 0:
        raise ModelCollapseError("initial model has no bases")
    targets = constraints.targets
    # sized for the initial bases, so they serve every pass after a prune too
    blocks = _PointBlocks(constraints.points, model0.n_bases)
    trace = IterationTrace()

    x = model0.params.copy()
    tau_seed = _FIRST_TAU
    current = None   # evaluate(x); None when it must be recomputed
    trial = None     # evaluate at the line search's last trial point

    def evaluate(x):
        """(residual, moment part, E_s, E_l1) of the model over the table x: one pass."""
        residual, moments = _fused_pass(x, targets, blocks)
        return (residual, moments, *energy_terms(RbfModel.from_params(x), residual))

    it = 0
    try:
        for it in range(1, config.max_iter + 1):
            if it % config.prune_interval == 0 and it <= config.sparse_iter:
                model = prune(RbfModel.from_params(x), config.prune_tol)
                if model.n_bases < len(x):
                    x = model.params
                    current = None

            if current is None:
                current = evaluate(x)
            residual, moments, es, el1 = current
            if not (np.isfinite(es) and np.isfinite(el1)):
                raise NonFiniteObjectiveError(f"objective not finite (Es={es}, El1={el1})")

            ws, wl = adaptive_weights(es, el1, config.epsilon_floor)
            if max_pointwise_error(residual) > config.max_error_cap:
                ws, wl = 1.0, 0.0
            if it > config.sparse_iter:
                ws, wl = 1.0, 0.0

            f0 = ws * es + wl * el1
            grad = _objective_gradient_arrays(x, moments, ws, wl)
            if not np.isfinite(grad).all():
                raise NonFiniteObjectiveError("gradient not finite")

            if np.vdot(grad, grad) == 0.0:
                # stationary for the in-force weights (e.g. exact start); no step
                trace.append(TraceRecord(it, f0, es, el1, ws, wl, len(x), 0.0, f0))
                continue

            trials = 0

            def objective(x_trial, ws=ws, wl=wl):
                nonlocal trial, trials
                trials += 1
                trial = evaluate(x_trial)
                return ws * trial[2] + wl * trial[3]

            tau, f_new = line_search(objective, x, f0, grad, tau_seed)
            if tau > 0.0:
                # the accepted trial is the last one evaluated, at this same
                # x - tau*grad, so its residual and moments are bit-exact for the
                # new point
                x = x - tau * grad
                current = trial
                tau_seed = 2.0 * tau
            trace.append(TraceRecord(it, f0, es, el1, ws, wl, len(x), tau, f_new, trials))

        if current is None:  # no iteration ran
            current = evaluate(x)
    except (OptimizationError, KeyboardInterrupt) as exc:
        exc.args, exc.trace = (f"{exc} at iteration {it}".lstrip(),), trace
        raise
    trace.residual = current[0]
    trace.point_passes = blocks.passes
    trace.block_pairs, trace.block_pairs_full = blocks.kept_pairs, blocks.all_pairs
    return RbfModel.from_params(x), trace


def write_weight_histogram(model: RbfModel, path, header_lines=()) -> None:
    """Per-basis effective weights c~_i^2, one per line."""
    write_lines(path, header_lines, (f"{float(w)!r}" for w in model.weights))
