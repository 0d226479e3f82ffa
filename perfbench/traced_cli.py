"""Run one `erbfit` command with spans recorded around each layer's public calls.

    python3 traced_cli.py SPANS.json <erbfit arguments...>

Behaves like the `erbfit` console script (same `erbfit.cli.main`, same exit
code, same output files), but first wraps the module-level names the CLI and
its layers call through.  Each wrapper records a span (name, start, end,
parent) plus a few counts taken from the call's arguments and results.  Spans
stay in memory and are written to SPANS.json when the command returns.

A hook that no longer resolves (a renamed or removed function) is an error
naming the hook, so a refactor can never make a layer look free.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import erbfit.cli
import erbfit.mesh
import erbfit.optimizer
import erbfit.sampler

# (module, attribute, span name) for wrappers that only time the call
TIMED_HOOKS = (
    (erbfit.cli, "parse_pqr_file", "pqr.parse"),
    (erbfit.cli, "init_model", "initializer.init"),
    (erbfit.cli, "energy_terms", "model.post"),
    (erbfit.cli, "max_pointwise_error", "model.post"),
    (erbfit.cli, "save_model", "io.write"),
    (erbfit.cli, "write_weight_histogram", "io.write"),
    (erbfit.optimizer.IterationTrace, "to_csv", "io.write"),
    (erbfit.cli, "load_model", "io.load"),
)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span dict) so hooks can add counts."""
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else -1}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs), span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]
        return wrapper


def _resolve(owner, attr):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise SystemExit(f"trace hook {owner.__name__}.{attr} no longer exists") from None


def install(tracer: Tracer) -> None:
    for owner, attr, name in TIMED_HOOKS:
        setattr(owner, attr, tracer.timed(name, _resolve(owner, attr)))

    select = _resolve(erbfit.cli, "select_constraints")
    eval_batch = _resolve(erbfit.sampler, "eval_phi_batch")
    optimize = _resolve(erbfit.cli, "optimize")
    line_search = _resolve(erbfit.optimizer, "line_search")
    compare = _resolve(erbfit.cli, "compare_surfaces")
    extract = _resolve(erbfit.mesh, "extract_isosurface")
    hausdorff = _resolve(erbfit.mesh, "hausdorff")

    def select_hook(field, grid, *args, **kwargs):
        result, span = tracer.call("sampler.select", select, field, grid, *args, **kwargs)
        span["grid_points"] = int(grid.n_points)
        span["constraints"] = len(result)
        span["far_field"] = int((result.targets < 1e-6).sum())
        return result

    def eval_batch_hook(field, points):
        result, span = tracer.call("field.select_eval", eval_batch, field, points)
        span["points"] = int(len(points))
        return result

    def optimize_hook(model0, constraints, config=None):
        result, span = tracer.call("optimizer.optimize", optimize, model0, constraints, config)
        model, trace = result
        nbasis = [r.nbasis for r in trace]
        span["iterations"] = len(trace)
        span["stalls"] = int(trace.n_stalls)
        span["prune_events"] = sum(1 for a, b in zip(nbasis, nbasis[1:]) if b < a)
        span["pure_accuracy_iters"] = sum(1 for r in trace if r.ws == 1.0 and r.wl == 0.0)
        span["basis_point_work"] = sum(nbasis) * len(constraints)
        span["final_bases"] = int(model.n_bases)
        return result

    def line_search_hook(objective, *args, **kwargs):
        objective_traced = tracer.timed("optimizer.objective", objective)
        return tracer.call("optimizer.line_search", line_search,
                           objective_traced, *args, **kwargs)[0]

    def evaluator(name, fn):
        def wrapped(points):
            result, span = tracer.call(name, fn, points)
            span["points"] = int(len(points))
            return result
        return wrapped

    def compare_hook(eval_a, eval_b, *args, **kwargs):
        return tracer.call("mesh.compare", compare,
                           evaluator("field.mesh_eval", eval_a),
                           evaluator("model.mesh_eval", eval_b), *args, **kwargs)[0]

    def extract_hook(*args, **kwargs):
        mesh, span = tracer.call("mesh.marching", extract, *args, **kwargs)
        span["triangles"] = int(mesh.n_f)
        return mesh

    def hausdorff_hook(mesh_a, mesh_b, samples_per_triangle=10):
        result, span = tracer.call("mesh.hausdorff", hausdorff, mesh_a, mesh_b,
                                   samples_per_triangle)
        # computed from array sizes: every vertex plus a fixed lattice per triangle
        span["samples"] = sum(int(m.vertices.shape[0]) + samples_per_triangle * int(m.n_f)
                              for m in (mesh_a, mesh_b))
        return result

    erbfit.cli.select_constraints = select_hook
    erbfit.sampler.eval_phi_batch = eval_batch_hook
    erbfit.cli.optimize = optimize_hook
    erbfit.optimizer.line_search = line_search_hook
    erbfit.cli.compare_surfaces = compare_hook
    erbfit.mesh.extract_isosurface = extract_hook
    erbfit.mesh.hausdorff = hausdorff_hook


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    t_main = time.perf_counter()
    code, _ = tracer.call("cli.main", erbfit.cli.main, cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"t_main": t_main, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
