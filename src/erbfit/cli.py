"""Command-line front end: info, sparsify, mesh, and compare subcommands.

Typical round trip:

    erbfit sparsify mol.pqr --out run/
    erbfit mesh run/model.json --out run/
    erbfit compare mol.pqr run/model.json --out run/

Each output records the settings of the command that wrote it (RunConfig).
Only summary.txt and timings.json (cmd_sparsify) hold wall times, so two
runs of one command write the same bytes otherwise.  main ends every command
with the exit code of its error's class (EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .field import Box, GaussianField, bounding_box, positive, write_lines
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
from .pqr import parse_pqr_file
from .sampler import make_grid, select_constraints
from . import __version__

# 2 an unreadable or invalid input (ArgumentError: a flag value that is not a
# number), 3 a collapse of the fit, 4 a mesh that cannot be made or measured,
# 130 SIGINT or, while main runs, SIGTERM
EXIT_CODES = {OSError: 2, ValueError: 2, argparse.ArgumentError: 2, OptimizationError: 3,
              MeshError: 4, KeyboardInterrupt: 130}


@dataclass(frozen=True)
class RunConfig:
    """What a run's outputs record, as '# key=value' header lines or a JSON "config".

    settings maps the name of each setting flag the command takes, its long
    option with dashes as underscores (--error-cap as error_cap), to the
    parsed value, in the order the command takes them.  The output directory
    is deliberately not a setting: it changes where files land, not what they
    contain, so identical commands pointed at different directories stay
    byte-identical.
    """

    command: str
    inputs: tuple[str, ...]
    settings: dict

    def header_lines(self) -> list[str]:
        return [f"erbfit {__version__}", f"command={self.command}",
                *(f"input={p}" for p in self.inputs),
                *(f"{key}={value!r}" for key, value in self.settings.items())]

    def as_dict(self) -> dict:
        return {"version": __version__, "command": self.command,
                "inputs": list(self.inputs), **self.settings}


def _field_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        p.add_argument("--decay", type=float, default=0.5,
                       help="Gaussian kernel decay rate d (default %(default)s)"),
        p.add_argument("--isovalue", type=float, default=1.0,
                       help="level-set value c defining the surface (default %(default)s)"),
    ]


def _fit_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    """The selection flags, then one flag per OptimizerConfig field, its dest the field's name."""
    return [
        p.add_argument("--band", type=float, default=1.0,
                       help="half-width of the |phi - c| band selecting constraint "
                            "points (default %(default)s)"),
        p.add_argument("--constraint-spacing", type=float, default=1.0,
                       help="grid spacing for constraint sampling in Angstrom "
                            "(default %(default)s)"),
        p.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iter,
                       help="total optimizer iterations (default %(default)s)"),
        p.add_argument("--sparse-iter", type=int, default=OptimizerConfig.sparse_iter,
                       help="iterations before the permanent pure-accuracy phase "
                            "(default %(default)s)"),
        p.add_argument("--prune-tol", type=float, default=OptimizerConfig.prune_tol,
                       help="coefficient magnitude below which a basis is deleted "
                            "(default %(default)s)"),
        p.add_argument("--prune-interval", type=int, default=OptimizerConfig.prune_interval,
                       help="prune every this many iterations (default %(default)s)"),
        p.add_argument("--epsilon", dest="epsilon_floor", metavar="EPSILON", type=float,
                       default=OptimizerConfig.epsilon_floor,
                       help="floor for the accuracy weight w_s (default %(default)s)"),
        p.add_argument("--error-cap", dest="max_error_cap", metavar="ERROR_CAP", type=float,
                       default=OptimizerConfig.max_error_cap,
                       help="max pointwise error that forces a pure-accuracy "
                            "iteration (default %(default)s)"),
    ]


def _mesh_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    return [p.add_argument("--mesh-spacing", type=float, default=0.5,
                           help="grid spacing for isosurface meshing in Angstrom "
                                "(default %(default)s)")]


def _add_command(sub, name: str, summary: str, inputs: dict[str, str], *setting_flags) -> None:
    """A subcommand taking `inputs`, the flags that setting_flags add, --out and --deterministic.

    args.settings maps each setting's recorded name to its flag's dest.
    """
    p = sub.add_parser(name, help=summary, exit_on_error=False)
    for dest, text in inputs.items():
        p.add_argument(dest, help=text)
    settings = [action for add_flags in setting_flags for action in add_flags(p)]
    p.add_argument("--out", dest="out_dir", default=".", metavar="DIR",
                   help="output directory (default: current directory)")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted and ignored: every run is deterministic")
    p.set_defaults(settings={a.option_strings[0][2:].replace("-", "_"): a.dest
                             for a in settings})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erbfit", exit_on_error=False,
        description="Sparse ellipsoid-Gaussian RBF fitting of Gaussian "
                    "molecular surfaces.")
    parser.add_argument("--version", action="version", version=f"erbfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarize a PQR file", exit_on_error=False)
    p_info.add_argument("pqr", help="input PQR file")

    _add_command(sub, "sparsify", "fit a sparse ellipsoid RBF model to a molecule",
                 {"pqr": "input PQR file"}, _field_flags, _fit_flags)
    _add_command(sub, "mesh", "mesh the isosurface of a PQR field or a fitted model",
                 {"source": "PQR file or model JSON document"}, _field_flags, _mesh_flags)
    _add_command(sub, "compare", "mesh a molecule and a fitted model on one grid and "
                                 "report area/volume errors and Hausdorff distance",
                 {"pqr": "input PQR file", "model": "fitted model JSON document"},
                 _field_flags, _mesh_flags)
    return parser


def _run_config(args: argparse.Namespace, inputs: tuple[str, ...]) -> RunConfig:
    return RunConfig(args.command, inputs,
                     {name: getattr(args, dest) for name, dest in args.settings.items()})


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _looks_like_model(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            head = fh.read(256).lstrip()
    except OSError:
        return False
    return head.startswith(b"{")


def _molecule_field_box(args: argparse.Namespace, pqr: str) -> tuple:
    """The molecule of the PQR file, its field at --decay and --isovalue, and its bounding box."""
    molecule = parse_pqr_file(pqr)
    field = GaussianField.from_molecule(molecule, decay=args.decay, isovalue=args.isovalue)
    return molecule, field, bounding_box(molecule)


def _model_box(meta: dict, model: RbfModel, isovalue: float, spacing: float) -> Box:
    """Meshing box for a bare model: the stored metadata box, else one that holds the surface.

    The model reaches the isovalue c only where some basis reaches c / n, so
    only inside the ellipsoids of model.reach_boxes at the floor c.  The box
    holds their boxes and one mesh spacing more, so the grid's outer nodes
    lie below the isovalue.
    """
    positive("isovalue", isovalue)
    positive("grid spacing", spacing)
    if "box_lo" in meta and "box_hi" in meta:
        return Box(lo=np.array(meta["box_lo"]), hi=np.array(meta["box_hi"]))
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
    return 0


def cmd_sparsify(args: argparse.Namespace) -> int:
    """Fit a model; a collapse or an interrupt still writes trace.csv and summary.txt.

    timings.json holds the wall time of each phase (parse, select, init,
    optimize, post, save) and the fit's counts of passes, trials and
    (block, basis) pairs (IterationTrace).
    """
    optimizer_config = OptimizerConfig(
        **{f.name: getattr(args, f.name) for f in fields(OptimizerConfig)})
    config = _run_config(args, (args.pqr,))
    header = config.header_lines()
    phases = {}  # wall time of each phase, in order
    since = time.perf_counter()

    def phase_done(name: str) -> None:
        nonlocal since
        now = time.perf_counter()
        phases[name] = now - since
        since = now

    molecule, field, box = _molecule_field_box(args, args.pqr)
    phase_done("parse")
    grid = make_grid(box, args.constraint_spacing)
    constraints = select_constraints(field, grid, args.band)
    phase_done("select")
    model0 = init_model(molecule, args.decay)
    out = _out_dir(args)
    phase_done("init")

    try:
        model, trace = optimize(model0, constraints, optimizer_config)
    except (OptimizationError, KeyboardInterrupt) as exc:
        status = "INTERRUPTED" if isinstance(exc, KeyboardInterrupt) else "FAILED"
        failed = [*header, f"{status}: {exc}"]
        if getattr(exc, "trace", None) is not None:
            exc.trace.to_csv(out / "trace.csv", header_lines=failed)
        write_lines(out / "summary.txt", failed, [f"status={status}"])
        raise
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
    write_lines(out / "summary.txt", header, summary)
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
    return 0


def cmd_mesh(args: argparse.Namespace) -> int:
    if _looks_like_model(args.source):
        # a model's decays are its own: --decay is checked but not recorded
        positive("decay", args.decay)
        args.settings = {k: v for k, v in args.settings.items() if k != "decay"}
        model, meta = load_model(args.source)
        evaluator = model.values
        box = _model_box(meta, model, args.isovalue, args.mesh_spacing)
    else:
        _, field, box = _molecule_field_box(args, args.source)
        evaluator = field.values
    config = _run_config(args, (args.source,))
    out = _out_dir(args)

    mesh = extract_isosurface(evaluator, box, args.mesh_spacing, args.isovalue)
    write_obj(mesh, out / "mesh.obj", header_lines=config.header_lines())
    print(f"wrote {out / 'mesh.obj'} "
          f"({mesh.vertices.shape[0]} vertices, {mesh.n_f} triangles)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _run_config(args, (args.pqr, args.model))
    _, field, box = _molecule_field_box(args, args.pqr)
    model, _ = load_model(args.model)
    out = _out_dir(args)

    report = compare_surfaces(field.values, model.values, box,
                              args.mesh_spacing, args.isovalue)
    doc = {"config": config.as_dict(), "report": report}
    (out / "compare.json").write_text(json.dumps(doc, indent=2) + "\n")
    for key, value in report.items():
        print(f"{key}={value:.6f}")
    print(f"wrote {out / 'compare.json'}")
    return 0


def main(argv=None) -> int:
    handlers = {"info": cmd_info, "sparsify": cmd_sparsify, "mesh": cmd_mesh,
                "compare": cmd_compare}
    # a SIGTERM ends the run as Ctrl-C does; only the main thread may set it
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler) if on_main else None
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except tuple(EXIT_CODES) as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        print(f"error: {'interrupted' if interrupted else exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
