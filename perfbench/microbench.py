"""Time single model-layer calls on a workload's constraint set.

    python3 microbench.py MOL.pqr FINAL_MODEL.json OUT.json

Rebuilds the constraint set the way `erbfit sparsify` does, with the
settings recorded in FINAL_MODEL's metadata or, for a model that records none,
with the CLI's default `sparsify` flags, then times `RbfModel.values` and `eval_model_gradient` for the initial
model (one basis per atom) and for FINAL_MODEL.  Each call is repeated until
MIN_TOTAL_S has been spent or MAX_REPEATS calls were made, and the median is
kept.  Writes the timings and sizes as JSON to OUT.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from erbfit.cli import _build_parser, _run_config
from erbfit.field import GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.model import eval_model_gradient, load_model
from erbfit.pqr import parse_pqr_file
from erbfit.sampler import make_grid, select_constraints

MIN_TOTAL_S = 0.5
MAX_REPEATS = 7


def median_call_s(fn) -> tuple[float, int]:
    times = []
    while not times or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def main(pqr: str, final_model: str, out: str) -> int:
    final, meta = load_model(final_model)
    config = meta.get("config") or _run_config(
        _build_parser().parse_args(["sparsify", pqr]), (pqr,)).as_dict()
    molecule = parse_pqr_file(pqr)
    field = GaussianField.from_molecule(molecule, decay=config["decay"],
                                        isovalue=config["isovalue"])
    constraints = select_constraints(
        field, make_grid(bounding_box(molecule), config["constraint_spacing"]), config["band"])
    models = {"initial": init_model(molecule, config["decay"]), "final": final}
    result = {"points": len(constraints)}
    for label, model in models.items():
        values_s, values_n = median_call_s(lambda: model.values(constraints.points))
        grad_s, grad_n = median_call_s(
            lambda: eval_model_gradient(model, constraints, (0.5, 0.5)))
        result[label] = {"bases": model.n_bases, "values_s": values_s, "values_calls": values_n,
                         "gradient_s": grad_s, "gradient_calls": grad_n}
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
