"""Command-line front end: info, sparsify, mesh, and compare subcommands.

Typical round trip:

    erbfit sparsify mol.pqr --out run/
    erbfit mesh run/model.json --out run/
    erbfit compare mol.pqr run/model.json --out run/

Every output file records the effective configuration (as '# key=value'
header lines, or a "config" object in JSON outputs).  Model and trace files
contain nothing run-dependent, so two runs of the same command are
byte-identical; wall time appears only in the human-readable summary and in
`sparsify`'s timings.json (the wall time of each phase: parse, select, init,
optimize, post and save; the fit's point passes, 1 + line-search trials +
prunes that removed bases, and its line-search trials; and block_pairs, the
(block, basis) pairs its passes evaluated, against block_pairs_full, the
bases times blocks a pass without the cutoff takes).  Selection evaluates
the field on the grid path; post reads the final energies from the residual
of the fit's last pass, so it makes no pass of its own, and a run with
--max-iter 0 makes that one pass in optimize.

Exit codes: 0 success, 2 unreadable or invalid input (including an empty
constraint selection and a model with no bases), 3 optimization collapse,
4 meshing failure (including a surface that reaches the meshing box, whose
mesh would be open, and a model meshed without a stored box that has a
basis above isovalue / n with a zero decay, whose surface no finite box is
known to hold).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .field import Box, GaussianField, bounding_box
from .initializer import init_model
from .mesh import EmptyMeshError, MeshError, compare_surfaces, extract_isosurface, write_obj
from .model import RbfModel, load_model, reach_boxes, save_model
from .optimizer import (
    OptimizationError,
    OptimizerConfig,
    energy_terms,
    max_pointwise_error,
    optimize,
    write_weight_histogram,
)
from .pqr import PqrError, parse_pqr_file
from .sampler import SamplingError, make_grid, select_constraints
from . import __version__

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COLLAPSE = 3
EXIT_MESH = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output content, in header-ready form.

    The output directory is deliberately not part of the recorded
    configuration: it changes where files land, not what they contain, so
    identical commands pointed at different directories stay byte-identical.
    The field defaults are the command-line defaults, and a command that
    lacks a flag records the default.
    """

    command: str
    inputs: tuple[str, ...]
    decay: float = 0.5
    isovalue: float = 1.0
    band: float = 1.0
    constraint_spacing: float = 1.0
    mesh_spacing: float = 0.5
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    out_dir: str = "."

    def header_lines(self) -> list[str]:
        d = self.as_dict()
        return [f"erbfit {d.pop('version')}", f"command={d.pop('command')}",
                *(f"input={p}" for p in d.pop("inputs")),
                *(f"{key}={value!r}" for key, value in d.items())]

    def as_dict(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "inputs": list(self.inputs),
            "decay": self.decay,
            "isovalue": self.isovalue,
            "band": self.band,
            "constraint_spacing": self.constraint_spacing,
            "mesh_spacing": self.mesh_spacing,
            "max_iter": self.optimizer.max_iter,
            "sparse_iter": self.optimizer.sparse_iter,
            "prune_tol": self.optimizer.prune_tol,
            "prune_interval": self.optimizer.prune_interval,
            "epsilon": self.optimizer.epsilon_floor,
            "error_cap": self.optimizer.max_error_cap,
        }


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decay", type=float, default=RunConfig.decay,
                   help="Gaussian kernel decay rate d (default %(default)s)")
    p.add_argument("--isovalue", type=float, default=RunConfig.isovalue,
                   help="level-set value c defining the surface (default %(default)s)")
    p.add_argument("--mesh-spacing", type=float, default=RunConfig.mesh_spacing,
                   help="grid spacing for isosurface meshing in Angstrom "
                        "(default %(default)s)")
    p.add_argument("--out", dest="out_dir", default=RunConfig.out_dir, metavar="DIR",
                   help="output directory (default: current directory)")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted and ignored: every run is deterministic")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--band", type=float, default=RunConfig.band,
                   help="half-width of the |phi - c| band selecting constraint "
                        "points (default %(default)s)")
    p.add_argument("--constraint-spacing", type=float, default=RunConfig.constraint_spacing,
                   help="grid spacing for constraint sampling in Angstrom "
                        "(default %(default)s)")
    p.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iter,
                   help="total optimizer iterations (default %(default)s)")
    p.add_argument("--sparse-iter", type=int, default=OptimizerConfig.sparse_iter,
                   help="iterations before the permanent pure-accuracy phase "
                        "(default %(default)s)")
    p.add_argument("--prune-tol", type=float, default=OptimizerConfig.prune_tol,
                   help="coefficient magnitude below which a basis is deleted "
                        "(default %(default)s)")
    p.add_argument("--prune-interval", type=int, default=OptimizerConfig.prune_interval,
                   help="prune every this many iterations (default %(default)s)")
    p.add_argument("--epsilon", dest="epsilon_floor", metavar="EPSILON", type=float,
                   default=OptimizerConfig.epsilon_floor,
                   help="floor for the accuracy weight w_s (default %(default)s)")
    p.add_argument("--error-cap", dest="max_error_cap", metavar="ERROR_CAP", type=float,
                   default=OptimizerConfig.max_error_cap,
                   help="max pointwise error that forces a pure-accuracy "
                        "iteration (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erbfit",
        description="Sparse ellipsoid-Gaussian RBF fitting of Gaussian "
                    "molecular surfaces.")
    parser.add_argument("--version", action="version", version=f"erbfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarize a PQR file")
    p_info.add_argument("pqr", help="input PQR file")

    p_sparse = sub.add_parser(
        "sparsify", help="fit a sparse ellipsoid RBF model to a molecule")
    p_sparse.add_argument("pqr", help="input PQR file")
    _add_fit_flags(p_sparse)
    _add_common_flags(p_sparse)

    p_mesh = sub.add_parser(
        "mesh", help="mesh the isosurface of a PQR field or a fitted model")
    p_mesh.add_argument("source", help="PQR file or model JSON document")
    _add_common_flags(p_mesh)

    p_cmp = sub.add_parser(
        "compare", help="mesh a molecule and a fitted model on one grid and "
                        "report area/volume errors and Hausdorff distance")
    p_cmp.add_argument("pqr", help="input PQR file")
    p_cmp.add_argument("model", help="fitted model JSON document")
    _add_common_flags(p_cmp)

    return parser


def _run_config(args: argparse.Namespace, inputs: tuple[str, ...]) -> RunConfig:
    """Each flag's dest names the RunConfig or OptimizerConfig field it sets."""
    given = vars(args)

    def flags_of(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return RunConfig(inputs=inputs, optimizer=OptimizerConfig(**flags_of(OptimizerConfig)),
                     **flags_of(RunConfig))


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _looks_like_model(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            head = fh.read(256).lstrip()
    except OSError:
        return False
    return head.startswith(b"{")


def _model_box(meta: dict, model: RbfModel, isovalue: float, spacing: float) -> Box:
    """Meshing box for a bare model: the stored metadata box, else one that holds the surface.

    The model reaches the isovalue c only where some basis reaches c / n, so
    only inside the ellipsoids of model.reach_boxes at the floor c.  The box
    holds their boxes and one mesh spacing more, so the grid's outer nodes
    lie below the isovalue.
    """
    if "box_lo" in meta and "box_hi" in meta:
        return Box(lo=np.array(meta["box_lo"]), hi=np.array(meta["box_hi"]))
    for name, value in (("isovalue", isovalue), ("grid spacing", spacing)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    kept, _, half = reach_boxes(model.params, isovalue)
    if kept.size == 0:
        raise EmptyMeshError(f"the model stays below the isovalue {isovalue}: "
                             f"no basis weight exceeds isovalue / {model.n_bases}")
    unbounded = np.flatnonzero(np.isinf(half).any(axis=1))
    if unbounded.size:
        raise MeshError(f"basis {kept[unbounded[0]] + 1} does not decay along an axis, "
                        "so no finite box holds the model surface")
    centers = model.centers[kept]
    return Box(lo=(centers - half).min(axis=0) - spacing,
               hi=(centers + half).max(axis=0) + spacing)


def cmd_info(args: argparse.Namespace) -> int:
    molecule = parse_pqr_file(args.pqr)
    box = bounding_box(molecule)
    radii = molecule.radii
    print(f"file: {args.pqr}")
    print(f"atoms: N={len(molecule)}")
    print(f"bounding box lo: {box.lo[0]:.3f} {box.lo[1]:.3f} {box.lo[2]:.3f}")
    print(f"bounding box hi: {box.hi[0]:.3f} {box.hi[1]:.3f} {box.hi[2]:.3f}")
    print(f"radius range: {radii.min():.3f} .. {radii.max():.3f}")
    return EXIT_OK


def cmd_sparsify(args: argparse.Namespace) -> int:
    config = _run_config(args, (args.pqr,))
    out = _out_dir(config)
    header = config.header_lines()
    phases = {}  # wall time of each phase, in order
    since = time.perf_counter()

    def phase_done(name: str) -> None:
        nonlocal since
        now = time.perf_counter()
        phases[name] = now - since
        since = now

    molecule = parse_pqr_file(args.pqr)
    phase_done("parse")
    field = GaussianField.from_molecule(molecule, decay=config.decay,
                                        isovalue=config.isovalue)
    box = bounding_box(molecule)
    grid = make_grid(box, config.constraint_spacing)
    constraints = select_constraints(field, grid, config.band)
    phase_done("select")
    model0 = init_model(molecule, config.decay)
    phase_done("init")

    try:
        model, trace = optimize(model0, constraints, config.optimizer)
    except OptimizationError as exc:
        failed = [*header, f"FAILED: {exc}"]
        if exc.trace is not None:
            exc.trace.to_csv(out / "trace.csv", header_lines=failed)
        (out / "summary.txt").write_text(
            "\n".join(f"# {h}" for h in failed) + "\nstatus=FAILED\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE
    phase_done("optimize")

    # the residual of the fit's last pass, at the final model
    es, _ = energy_terms(model, trace.residual)
    max_err = max_pointwise_error(trace.residual)
    ratio = model.n_bases / len(molecule)
    phase_done("post")

    metadata = {
        "config": config.as_dict(),
        "source": args.pqr,
        "n_atoms": len(molecule),
        "n_constraints": len(constraints),
        "box_lo": [float(v) for v in box.lo],
        "box_hi": [float(v) for v in box.hi],
        "final": {
            "n_bases": model.n_bases,
            "Es": es,
            "max_pointwise_error": max_err,
            "sparse_ratio": ratio,
            "iterations": len(trace),
        },
    }
    save_model(model, out / "model.json", metadata=metadata)
    trace.to_csv(out / "trace.csv", header_lines=header)
    write_weight_histogram(model, out / "weights.txt", header_lines=header)

    summary = [
        f"n_atoms={len(molecule)}",
        f"n_constraints={len(constraints)}",
        f"n_erbf={model.n_bases}",
        f"sparse_ratio={ratio:.6f}",
        f"final_Es={es:.6e}",
        f"max_pointwise_error={max_err:.6e}",
        f"iterations={len(trace)}",
        f"wall_time_s={phases['optimize']:.2f}",
    ]
    (out / "summary.txt").write_text(
        "\n".join(f"# {h}" for h in header) + "\n" + "\n".join(summary) + "\n")
    phase_done("save")
    # run-dependent, so kept apart from the byte-identical outputs
    timings = {"config": config.as_dict(), "phases_s": phases,
               "point_passes": trace.point_passes,
               "line_search_trials": sum(r.trials for r in trace),
               "block_pairs": trace.block_pairs,
               "block_pairs_full": trace.block_pairs_full}
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    for line in summary:
        print(line)
    print(f"wrote {out / 'model.json'}, {out / 'trace.csv'}, "
          f"{out / 'weights.txt'}, {out / 'summary.txt'}, {out / 'timings.json'}")
    return EXIT_OK


def cmd_mesh(args: argparse.Namespace) -> int:
    config = _run_config(args, (args.source,))
    out = _out_dir(config)

    if _looks_like_model(args.source):
        model, meta = load_model(args.source)
        evaluator = model.values
        box = _model_box(meta, model, config.isovalue, config.mesh_spacing)
    else:
        molecule = parse_pqr_file(args.source)
        field = GaussianField.from_molecule(molecule, decay=config.decay,
                                            isovalue=config.isovalue)
        evaluator = field.values
        box = bounding_box(molecule)

    mesh = extract_isosurface(evaluator, box, config.mesh_spacing, config.isovalue)
    write_obj(mesh, out / "mesh.obj", header_lines=config.header_lines())
    print(f"wrote {out / 'mesh.obj'} "
          f"({mesh.vertices.shape[0]} vertices, {mesh.n_f} triangles)")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = _run_config(args, (args.pqr, args.model))
    out = _out_dir(config)

    molecule = parse_pqr_file(args.pqr)
    field = GaussianField.from_molecule(molecule, decay=config.decay,
                                        isovalue=config.isovalue)
    model, _ = load_model(args.model)
    box = bounding_box(molecule)

    report = compare_surfaces(field.values, model.values, box,
                              config.mesh_spacing, config.isovalue)
    doc = {"config": config.as_dict(), "report": report}
    (out / "compare.json").write_text(json.dumps(doc, indent=2) + "\n")
    for key in ("A_original", "A_our", "Error_A",
                "V_original", "V_our", "Error_V", "H"):
        print(f"{key}={report[key]:.6f}")
    print(f"wrote {out / 'compare.json'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "sparsify": cmd_sparsify,
        "mesh": cmd_mesh,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (PqrError, SamplingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OptimizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MESH


if __name__ == "__main__":
    sys.exit(main())
