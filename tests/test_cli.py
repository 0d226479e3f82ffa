"""End-to-end command-line behavior: arguments, outputs, exit codes."""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import erbfit
import erbfit.cli
import erbfit.model
import erbfit.optimizer
import erbfit.sampler
from erbfit import __version__
from erbfit.cli import main
from erbfit.field import GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.mesh import MeshError
from erbfit.model import RbfModel, reach, rotations, save_model
from erbfit.optimizer import (OptimizationError, energy_terms, fit_residual,
                              max_pointwise_error)
from erbfit.sampler import make_grid

# generic radius: the meshing box is the atom center plus or minus
# (radius + padding), so a radius commensurate with the grid spacing would
# park grid points exactly on the level set and make the mesh topology
# sensitive to 1-ulp evaluator differences
SINGLE_ATOM = (
    "REMARK one carbon\n"
    "ATOM      1 C    UNK A   1       0.037  -0.111   0.053  0.0000 1.3700\n"
)
ATOM_R = 1.37

QUICK_FIT = ["--max-iter", "60", "--sparse-iter", "40",
             "--constraint-spacing", "0.7"]


@pytest.fixture(scope="module")
def atom_pqr(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "atom.pqr"
    path.write_text(SINGLE_ATOM)
    return path


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, atom_pqr):
    """One quick sparsify run shared by the model-consuming tests."""
    out = tmp_path_factory.mktemp("fit")
    code = main(["sparsify", str(atom_pqr), "--out", str(out), *QUICK_FIT])
    assert code == 0
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_info(bundled_pqr, capsys):
    assert main(["info", str(bundled_pqr)]) == 0
    out = capsys.readouterr().out
    assert "N=21" in out
    assert "bounding box lo:" in out
    assert "radius range:" in out


def test_main_runs_off_the_main_thread(bundled_pqr, capsys):
    # only the main thread may set a signal handler, so elsewhere main runs
    # the command without its SIGTERM handler and leaves the handler alone
    handler = signal.getsignal(signal.SIGTERM)
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(["info", str(bundled_pqr)])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert codes == [0]
    assert "N=21" in capsys.readouterr().out
    assert signal.getsignal(signal.SIGTERM) is handler


def test_info_missing_file(tmp_path, run_main):
    code, lines = run_main(["info", tmp_path / "nope.pqr"])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def test_info_malformed_file(tmp_path, run_main):
    bad = tmp_path / "bad.pqr"
    bad.write_text("ATOM 1 C UNK A 1 what 0.0 0.0 0.0 1.5\n")
    code, lines = run_main(["info", bad])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def test_info_malformed_serial(tmp_path, run_main):
    bad = tmp_path / "serial.pqr"
    bad.write_text("ATOM x1 C ALA A 1 0 0 0 0 1.5\n")
    assert run_main(["info", bad]) == (2, ["error: line 1: malformed serial 'x1'"])


def test_sparsify_outputs(atom_pqr, fit_dir, capsys):
    for name in ("model.json", "trace.csv", "weights.txt", "summary.txt"):
        assert (fit_dir / name).exists(), name

    doc = json.loads((fit_dir / "model.json").read_text())
    meta = doc["metadata"]
    assert meta["config"]["command"] == "sparsify"
    assert meta["n_atoms"] == 1
    assert meta["final"]["n_bases"] >= 1
    assert meta["final"]["iterations"] == 60

    trace_lines = (fit_dir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == f"# erbfit {__version__}"
    assert any(ln.startswith("# max_iter=60") for ln in trace_lines)
    data_rows = [ln for ln in trace_lines if not ln.startswith("#")]
    assert data_rows[0] == "iter,f,Es,El1,ws,wl,nbasis,tau"
    assert len(data_rows) == 61

    summary = (fit_dir / "summary.txt").read_text()
    assert "n_erbf=" in summary
    assert "wall_time_s=" in summary


def test_sparsify_writes_timings(fit_dir):
    # timings.json: the wall time of each phase in order, and the fit's point
    # passes, one per line-search trial plus one at the start and one after
    # each prune that removed bases
    doc = json.loads((fit_dir / "timings.json").read_text())
    assert list(doc["phases_s"]) == ["parse", "select", "init", "optimize", "post", "save"]
    assert all(t >= 0.0 for t in doc["phases_s"].values())
    assert doc["config"]["command"] == "sparsify"
    rows = [ln.split(",") for ln in (fit_dir / "trace.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    nbasis = [int(r[6]) for r in rows]
    prunes = sum(1 for a, b in zip(nbasis, nbasis[1:]) if b < a)
    steps = sum(1 for r in rows if float(r[7]) > 0.0)
    assert doc["line_search_trials"] >= steps > 0
    assert doc["point_passes"] == 1 + doc["line_search_trials"] + prunes
    # one basis and points that fit in one block: every pass takes the pair
    assert doc["block_pairs"] == doc["block_pairs_full"] == doc["point_passes"]
    summary = (fit_dir / "summary.txt").read_text()
    assert f"wall_time_s={doc['phases_s']['optimize']:.2f}" in summary


def test_sparsify_empty_selection(atom_pqr, tmp_path, run_main):
    code, lines = run_main(["sparsify", atom_pqr, "--out", tmp_path,
                            "--band", "1e-12", "--constraint-spacing", "2.0"])
    assert code == 2 and len(lines) == 1 and "selection band" in lines[0]


def test_sparsify_collapse_reports_failure(atom_pqr, tmp_path, run_main):
    code, lines = run_main(["sparsify", atom_pqr, "--out", tmp_path,
                            "--prune-tol", "100", "--max-iter", "40",
                            "--sparse-iter", "40", "--constraint-spacing", "0.7"])
    assert code == 3 and len(lines) == 1 and lines[0].startswith("error:")
    trace = (tmp_path / "trace.csv").read_text()
    assert "FAILED" in trace
    summary = (tmp_path / "summary.txt").read_text()
    assert "status=FAILED" in summary
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("how", ["KeyboardInterrupt", "SIGTERM"])
def test_sparsify_interrupt_ends_like_a_collapse(atom_pqr, tmp_path, run_main, monkeypatch, how):
    # an interrupt in the 20th pass over the points, raised there or by a
    # SIGTERM to the process, ends the run with exit 130 and one line, the
    # trace of the iterations before it and an INTERRUPTED summary; main's
    # SIGTERM handler is gone when it returns
    assert main(["sparsify", str(atom_pqr), "--out", str(tmp_path / "full"), *QUICK_FIT]) == 0
    fused_pass, calls = erbfit.optimizer._fused_pass, []

    def interrupting(*args):
        calls.append(None)
        if len(calls) == 20:
            if how == "KeyboardInterrupt":
                raise KeyboardInterrupt
            assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
            os.kill(os.getpid(), signal.SIGTERM)
        return fused_pass(*args)

    monkeypatch.setattr(erbfit.optimizer, "_fused_pass", interrupting)
    handler = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "cut"
    assert run_main(["sparsify", atom_pqr, "--out", out, *QUICK_FIT]) \
        == (130, ["error: interrupted"])
    assert signal.getsignal(signal.SIGTERM) is handler
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "status=INTERRUPTED"
    stopped = next(line for line in summary if line.startswith("# INTERRUPTED: at iteration "))
    rows = [line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    full = [line for line in (tmp_path / "full" / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == int(stopped.rsplit(" ", 1)[1]) > 1
    assert rows == full[:len(rows)]
    assert not (out / "model.json").exists()


def test_sparsify_refuses_a_field_flat_over_the_grid(atom_pqr, tmp_path, run_main):
    # at a subnormal decay phi is the atom count, 1, at every node, so no node
    # on a face of the constraint grid is below the isovalue: the surface is
    # not inside the grid, and the fit is refused before it starts
    code, lines = run_main(["sparsify", atom_pqr, "--decay", "1e-320", "--out", tmp_path])
    assert code == 2 and len(lines) == 1 and "constraint grid's boundary" in lines[0]
    assert not (tmp_path / "trace.csv").exists()


def test_sparsify_deterministic_outputs(atom_pqr, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["sparsify", str(atom_pqr), "--out", str(d),
                     "--deterministic", *QUICK_FIT]) == 0
    for name in ("model.json", "trace.csv", "weights.txt"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_sparsify_evaluates_the_final_model_once(atom_pqr, tmp_path, monkeypatch):
    # the final model is evaluated once, by the fit's last pass: after the
    # optimizer returns, E_s and the max pointwise error come from the
    # residual it hands back, with no pass over the points, and they have
    # the bits of a fresh pass (the points fit in one block)
    calls = {"passes": 0}
    fused_pass = erbfit.model._fused_pass
    optimize = erbfit.cli.optimize
    fitted = {}

    def counting_pass(*args):
        calls["passes"] += 1
        return fused_pass(*args)

    def optimize_then_count(model0, constraints, config=None):
        result = optimize(model0, constraints, config)
        fitted.update(model=result[0], constraints=constraints)
        monkeypatch.setattr(erbfit.model, "_fused_pass", counting_pass)
        monkeypatch.setattr(erbfit.optimizer, "_fused_pass", counting_pass)
        return result

    monkeypatch.setattr(erbfit.cli, "optimize", optimize_then_count)
    assert main(["sparsify", str(atom_pqr), "--out", str(tmp_path), *QUICK_FIT]) == 0
    assert calls["passes"] == 0
    monkeypatch.undo()
    final = json.loads((tmp_path / "model.json").read_text())["metadata"]["final"]
    residual = fit_residual(fitted["model"], fitted["constraints"])
    assert final["Es"] == energy_terms(fitted["model"], residual)[0]
    assert final["max_pointwise_error"] == max_pointwise_error(residual)


def test_sparsify_without_iterations_makes_one_pass(atom_pqr, tmp_path):
    # --max-iter 0: optimize makes the one pass that gives the final
    # energies, so the rule of test_sparsify_writes_timings holds here too
    assert main(["sparsify", str(atom_pqr), "--out", str(tmp_path),
                 "--max-iter", "0", "--sparse-iter", "0",
                 "--constraint-spacing", "0.7"]) == 0
    doc = json.loads((tmp_path / "timings.json").read_text())
    # no trials and no prunes
    assert doc["line_search_trials"] == 0
    assert doc["point_passes"] == 1
    assert doc["block_pairs"] == doc["block_pairs_full"] == 1
    final = json.loads((tmp_path / "model.json").read_text())["metadata"]["final"]
    assert final["iterations"] == 0


def test_mesh_from_pqr(atom_pqr, tmp_path, capsys):
    code = main(["mesh", str(atom_pqr), "--out", str(tmp_path),
                 "--mesh-spacing", "0.4"])
    assert code == 0
    lines = (tmp_path / "mesh.obj").read_text().splitlines()
    assert lines[0] == f"# erbfit {__version__}"
    assert any(ln.startswith("v ") for ln in lines)
    assert any(ln.startswith("f ") for ln in lines)
    assert "vertices" in capsys.readouterr().out


def test_mesh_from_model(fit_dir, tmp_path, capsys):
    code = main(["mesh", str(fit_dir / "model.json"), "--out", str(tmp_path),
                 "--mesh-spacing", "0.4"])
    assert code == 0
    lines = (tmp_path / "mesh.obj").read_text().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    assert n_v > 50  # a sphere-like surface, not a degenerate sliver


def test_mesh_no_surface_in_box(atom_pqr, tmp_path, run_main):
    code, lines = run_main(["mesh", atom_pqr, "--out", tmp_path, "--isovalue", "1000.0"])
    assert code == 4 and len(lines) == 1 and lines[0].startswith("error:")


def test_compare_exact_model(atom_pqr, tmp_path, capsys):
    # a saved one-atom starting model reproduces the field to rounding error
    from erbfit.initializer import init_model
    from erbfit.model import save_model
    from erbfit.pqr import parse_pqr_file

    molecule = parse_pqr_file(str(atom_pqr))
    model = init_model(molecule, decay=0.5)
    model_path = tmp_path / "exact.json"
    save_model(model, model_path, metadata={})

    code = main(["compare", str(atom_pqr), str(model_path),
                 "--out", str(tmp_path), "--mesh-spacing", "0.3"])
    assert code == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    rep = doc["report"]
    assert set(rep) == {"A_original", "A_our", "Error_A",
                        "V_original", "V_our", "Error_V", "H"}
    assert rep["Error_A"] < 1e-9
    assert rep["Error_V"] < 1e-9
    assert rep["H"] < 1e-6
    assert rep["A_original"] == pytest.approx(4 * np.pi * ATOM_R**2, rel=0.02)
    out = capsys.readouterr().out
    assert "Error_A=" in out and "H=" in out


def test_compare_fitted_model(atom_pqr, fit_dir, tmp_path, capsys):
    code = main(["compare", str(atom_pqr), str(fit_dir / "model.json"),
                 "--out", str(tmp_path), "--mesh-spacing", "0.4"])
    assert code == 0
    rep = json.loads((tmp_path / "compare.json").read_text())["report"]
    assert all(np.isfinite(v) for v in rep.values())


def test_recorded_config_is_pinned(atom_pqr, fit_dir, tmp_path):
    # every output records the settings of the command that wrote it, and
    # only those; these bytes must not drift
    header = [f"erbfit {__version__}", "command=sparsify", f"input={atom_pqr}",
              "decay=0.5", "isovalue=1.0", "band=1.0", "constraint_spacing=0.7",
              "max_iter=60", "sparse_iter=40", "prune_tol=0.001",
              "prune_interval=20", "epsilon=0.01", "error_cap=0.5"]
    for name in ("trace.csv", "weights.txt", "summary.txt"):
        lines = (fit_dir / name).read_text().splitlines()
        assert [ln[2:] for ln in lines if ln.startswith("# ")] == header, name
    model = str(fit_dir / "model.json")
    assert main(["compare", str(atom_pqr), model, "--out", str(tmp_path),
                 "--mesh-spacing", "0.4"]) == 0
    config = json.loads((tmp_path / "compare.json").read_text())["config"]
    assert list(config.items()) == [
        ("version", __version__), ("command", "compare"), ("inputs", [str(atom_pqr), model]),
        ("decay", 0.5), ("isovalue", 1.0), ("mesh_spacing", 0.4),
    ]
    assert main(["mesh", model, "--out", str(tmp_path), "--isovalue", "0.9"]) == 0
    lines = (tmp_path / "mesh.obj").read_text().splitlines()
    assert [ln[2:] for ln in lines if ln.startswith("# ")] == [
        f"erbfit {__version__}", "command=mesh", f"input={model}",
        "isovalue=0.9", "mesh_spacing=0.5"]


def test_sparsify_takes_no_mesh_spacing(atom_pqr, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sparsify", str(atom_pqr), "--out", str(tmp_path), "--mesh-spacing", "0.4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mesh-spacing 0.4" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_default_sparsify_config_has_the_selection_settings():
    # perfbench/microbench.py rebuilds a model's constraint set from this
    # record when the model carries none
    config = erbfit.cli._run_config(
        erbfit.cli._build_parser().parse_args(["sparsify", "mol.pqr"]), ("mol.pqr",)).as_dict()
    assert {key: config[key] for key in ("decay", "isovalue", "constraint_spacing", "band")} \
        == {"decay": 0.5, "isovalue": 1.0, "constraint_spacing": 1.0, "band": 1.0}


def test_compare_open_model_surface_exits_4(bundled_pqr, molecule, tmp_path, run_main):
    # one wide basis whose level set is a sphere of radius ~9.9 A around the
    # centroid, larger than the molecule's box: its mesh would be open
    basis = {"coeff_sqrt": float(np.sqrt(50.0)), "decay_sqrt": [0.2, 0.2, 0.2],
             "center": molecule.centers.mean(axis=0).tolist(), "angles": [0.0, 0.0, 0.0]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format": "erbfit-model", "version": 1, "bases": [basis]}))
    code, lines = run_main(["compare", bundled_pqr, model, "--out", tmp_path])
    assert code == 4 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith("the mesh would be open")
    assert not (tmp_path / "compare.json").exists()


def test_out_directory_created(atom_pqr, tmp_path):
    nested = tmp_path / "deep" / "run"
    code = main(["mesh", str(atom_pqr), "--out", str(nested),
                 "--mesh-spacing", "0.5"])
    assert code == 0
    assert (nested / "mesh.obj").exists()


EMPTY_MODEL = '{"format": "erbfit-model", "version": 1, "bases": []}'
# a finite c~ or d~ whose square overflows: second basis, with and without a stored box
OVERFLOW_BASES = ('[{"coeff_sqrt": 1.2, "decay_sqrt": [0.7, 0.7, 0.7], "center": [0, 0, 0], '
                  '"angles": [0, 0, 0]}, {"coeff_sqrt": %s, "decay_sqrt": [0.7, %s, 0.7], '
                  '"center": [0, 0, 0], "angles": [0, 0, 0]}]')
OVERFLOW_MODEL = '{"format": "erbfit-model", "version": 1, %s"bases": %s}'
OVERFLOW_REASON = "model.json: basis 1: its weight or decay overflows a double"
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(erbfit.__file__).parents[1])}


def test_outputs_do_not_depend_on_the_blas_thread_count(bundled_pqr, tmp_path):
    # erbfit runs OpenBLAS on one thread whatever OPENBLAS_NUM_THREADS says;
    # at two threads the fit's products and the grid sum's GEMMs would sum in
    # another order and every output below would differ in its bits.  Both
    # runs name their files by the same relative paths, which the outputs record
    digests = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        shutil.copyfile(bundled_pqr, run / "mol.pqr")
        for args in (["sparsify", "mol.pqr", "--max-iter", "200", "--sparse-iter", "150"],
                     ["compare", "mol.pqr", "out/model.json", "--mesh-spacing", "0.5"]):
            proc = subprocess.run([sys.executable, "-m", "erbfit.cli", *args, "--out", "out"],
                                  cwd=run, capture_output=True, text=True, timeout=120,
                                  env={**SRC_ENV, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        digests.append({name: hashlib.sha256((run / "out" / name).read_bytes()).hexdigest()
                        for name in ("model.json", "trace.csv", "weights.txt", "compare.json")})
    assert digests[0] == digests[1]


def test_commands_run_without_scipy(atom_pqr, tmp_path):
    # numpy is the one runtime dependency, but the test extra installs scipy:
    # with scipy blocked, a stray import of it fails the run
    script = ("import sys; sys.modules['scipy'] = None; from erbfit.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    for args in (["sparsify", str(atom_pqr), *QUICK_FIT],
                 ["compare", str(atom_pqr), "out/model.json"],
                 ["mesh", "out/model.json"]):
        proc = subprocess.run([sys.executable, "-c", script, *args, "--out", "out"],
                              cwd=tmp_path, capture_output=True, text=True, env=SRC_ENV,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "compare.json").exists()
    assert (tmp_path / "out" / "mesh.obj").exists()


@pytest.mark.parametrize("command, doc, reason", [
    ("mesh", '{"format": "erbfit-model", "version": 1}', "'bases' must be a list"),
    ("compare", '{"format": "erbfit-model", "version": 1, "bases": [{"coeff_sqrt": NaN, '
                '"decay_sqrt": [0.7, 0.7, 0.7], "center": [0, 0, 0], "angles": [0, 0, 0]}]}',
     "'coeff_sqrt' must be a finite number"),
    ("mesh", EMPTY_MODEL, "the model has no bases"),
    ("compare", EMPTY_MODEL, "the model has no bases"),
    ("mesh", EMPTY_MODEL[:51], "model.json: not valid JSON (line 1, column 52)"),
    ("compare", EMPTY_MODEL[:51], "model.json: not valid JSON (line 1, column 52)"),
    ("mesh", b'{"format": "\xff\xfe"}', "model.json: not UTF-8 text"),
    ("compare", b'{"format": "\xff\xfe"}', "model.json: not UTF-8 text"),
    ("mesh", OVERFLOW_MODEL % ("", OVERFLOW_BASES % ("1e200", "0.7")), OVERFLOW_REASON),
    ("mesh", OVERFLOW_MODEL % ('"metadata": {"box_lo": [-3, -3, -3], "box_hi": [3, 3, 3]}, ',
                               OVERFLOW_BASES % ("1e200", "0.7")), OVERFLOW_REASON),
    ("compare", OVERFLOW_MODEL % ("", OVERFLOW_BASES % ("1.2", "1e155")), OVERFLOW_REASON),
], ids=["mesh-no-bases", "compare-nan-coeff", "mesh-empty-bases", "compare-empty-bases",
        "mesh-truncated", "compare-truncated", "mesh-binary", "compare-binary",
        "mesh-overflow-weight", "mesh-boxed-overflow-weight", "compare-overflow-decay"])
def test_malformed_model_exits_2_with_one_line(atom_pqr, tmp_path, run_main, command, doc,
                                               reason):
    model = tmp_path / "model.json"
    model.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    inputs = [model] if command == "mesh" else [atom_pqr, model]
    code, lines = run_main([command, *inputs, "--out", tmp_path])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(reason)


@pytest.mark.parametrize("command, name", [
    ("mesh", "nope.pqr"), ("mesh", "nope.json"), ("compare", "nope.json"),
    ("sparsify", "nope.pqr")])
def test_missing_input_exits_2_with_one_line(atom_pqr, tmp_path, run_main, command, name):
    # a missing molecule or model for mesh, a missing model for compare, a
    # missing molecule for sparsify; the output directory is made only once
    # the inputs are read, so none is left behind
    missing = tmp_path / name
    inputs = [atom_pqr, missing] if command == "compare" else [missing]
    code, lines = run_main([command, *inputs, "--out", tmp_path / "out"])
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("error:") and str(missing) in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["info", "sparsify", "mesh"])
def test_binary_pqr_exits_2_with_one_line(tmp_path, run_main, command):
    pqr = tmp_path / "binary.pqr"
    pqr.write_bytes(b"ATOM      1 C    UNK A   1  \xff\xfe\x00\x01  0.000  0.000  0.0000 1.5\n")
    out = [] if command == "info" else ["--out", tmp_path]
    code, lines = run_main([command, pqr, *out])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith("binary.pqr: not UTF-8 text")


def test_benchmark_hooks_and_public_names_resolve(bundled_pqr, molecule, tmp_path):
    # the traced benchmark wraps named functions of the CLI and its layers;
    # it exits naming any hook that a refactor removed
    traced_cli = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    proc = subprocess.run(
        [sys.executable, str(traced_cli), str(tmp_path / "spans.json"), "info", str(bundled_pqr)],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spans.json").exists()
    for name in erbfit.__all__:
        assert hasattr(erbfit, name), name

    # compare: both mesh evaluators are wrapped, and each counts the grid's
    # points from the argument the mesh hands it
    save_model(init_model(molecule, decay=0.45), tmp_path / "model.json")
    proc = subprocess.run(
        [sys.executable, str(traced_cli), str(tmp_path / "compare_spans.json"), "compare",
         str(bundled_pqr), str(tmp_path / "model.json"), "--mesh-spacing", "1.0",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "compare_spans.json").read_text())["spans"]
    n_points = make_grid(bounding_box(molecule), 1.0).n_points
    for name in ("field.mesh_eval", "model.mesh_eval"):
        assert [s["points"] for s in spans if s["name"] == name] == [n_points], name


def test_benchmark_microbench_runs(bundled_pqr, molecule, tmp_path):
    # perfbench/microbench.py times RbfModel.values at points and
    # eval_model_gradient on the constraint set that the CLI's default
    # sparsify flags select, here for a model that records no settings
    microbench = Path(__file__).parents[1] / "perfbench" / "microbench.py"
    save_model(init_model(molecule, decay=0.5), tmp_path / "model.json")
    proc = subprocess.run(
        [sys.executable, str(microbench), str(bundled_pqr), str(tmp_path / "model.json"),
         str(tmp_path / "micro.json")],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "micro.json").read_text())
    assert doc["points"] > 0
    for label in ("initial", "final"):
        assert doc[label]["bases"] == len(molecule)
        assert doc[label]["values_s"] > 0 and doc[label]["gradient_s"] > 0


def test_cli_import_loads_no_scipy(bundled_pqr, molecule, tmp_path):
    # erbfit depends on numpy alone: a `compare`, which meshes both surfaces
    # and measures their Hausdorff distance, ends with no scipy module loaded
    save_model(init_model(molecule, decay=0.45), tmp_path / "model.json")
    script = ("import sys; from erbfit.cli import main; "
              "code = main(sys.argv[1:]); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
              "sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "compare", str(bundled_pqr), str(tmp_path / "model.json"),
         "--mesh-spacing", "1.0", "--out", str(tmp_path)],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "compare.json").is_file()
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("command, radius, reason", [
    ("sparsify", "40.0", "atom 1: the weight e^(d r^2) overflows at decay 0.5 and radius 40.0"),
    *((command, radius, f"atom serial 1: radius must be finite and positive, got {radius}")
      for radius in ("nan", "inf") for command in ("info", "sparsify", "compare")),
], ids=["big-atom", "info-radius-nan", "sparsify-radius-nan", "compare-radius-nan",
        "info-radius-inf", "sparsify-radius-inf", "compare-radius-inf"])
def test_non_finite_number_exits_2_with_one_line(fit_dir, tmp_path, run_main, command, radius,
                                                 reason):
    # a radius that is not finite, or one whose weight overflows at the
    # default decay; the setting flags are test_every_setting_is_finite_and_positive's
    pqr = tmp_path / "radius.pqr"
    pqr.write_text(f"ATOM 1 C UNK A 1 0.000 0.000 0.000 0.0000 {radius}\n")
    inputs = [pqr, fit_dir / "model.json"] if command == "compare" else [pqr]
    out = [] if command == "info" else ["--out", tmp_path]
    code, lines = run_main([command, *inputs, *out])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(reason)


# every float flag, the name the settings rule gives it and the commands that
# take it; mesh-model meshes the quick fit's model.json, which stores its box
_SETTING_FLAGS = [
    ("--decay", "decay", ("sparsify", "mesh", "compare", "mesh-model")),
    ("--isovalue", "isovalue", ("sparsify", "mesh", "compare", "mesh-model")),
    ("--band", "band", ("sparsify",)),
    ("--constraint-spacing", "grid spacing", ("sparsify",)),
    ("--mesh-spacing", "grid spacing", ("mesh", "compare", "mesh-model")),
    ("--prune-tol", "prune_tol", ("sparsify",)),
    ("--epsilon", "epsilon_floor", ("sparsify",)),
    ("--error-cap", "max_error_cap", ("sparsify",)),
]


@pytest.mark.parametrize("command, flag, name, value", [
    pytest.param(command, flag, name, value, id=f"{command}{flag}={value}")
    for flag, name, commands in _SETTING_FLAGS for command in commands
    for value in ("nan", "inf", "0", "-1", "word")])
def test_every_setting_is_finite_and_positive(atom_pqr, fit_dir, tmp_path, run_main, monkeypatch,
                                              command, flag, name, value):
    # the rule refuses the setting before the field or the model is evaluated
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} {flag} {value} got past the settings check")

    monkeypatch.setattr(erbfit.cli, "optimize", must_not_run)
    monkeypatch.setattr(GaussianField, "values", must_not_run)
    # selection calls the field through this name, not through values
    monkeypatch.setattr(erbfit.sampler, "eval_phi_batch", must_not_run)
    monkeypatch.setattr(RbfModel, "values", must_not_run)
    inputs = {"sparsify": [atom_pqr], "mesh": [atom_pqr], "mesh-model": [fit_dir / "model.json"],
              "compare": [atom_pqr, fit_dir / "model.json"]}[command]
    code, lines = run_main([command.removesuffix("-model"), *inputs, flag, value,
                            "--out", tmp_path])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(f"argument {flag}: invalid float value: 'word'" if value == "word"
                             else f"{name} must be finite and positive, got {float(value)}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command}{flag}")
    for flag, _, commands in _SETTING_FLAGS for command in commands])
def test_a_huge_setting_ends_with_a_documented_exit(atom_pqr, fit_dir, tmp_path, run_main,
                                                    command, flag):
    # 1e308 passes the settings rule; what it does to the run must still end
    # in an exit code of the table, with at most one error line.  A spacing
    # that does not fit twice on an axis of the box is refused by the grid
    inputs = {"sparsify": [atom_pqr, *QUICK_FIT], "mesh": [atom_pqr],
              "mesh-model": [fit_dir / "model.json"],
              "compare": [atom_pqr, fit_dir / "model.json"]}[command]
    code, lines = run_main([command.removesuffix("-model"), *inputs, flag, "1e308",
                            "--out", tmp_path])
    assert code in (0, 2, 3, 4)
    assert len(lines) == (code != 0) and all(ln.startswith("error:") for ln in lines)
    if flag.endswith("-spacing"):
        assert (code, lines) == (2, ["error: grid spacing 1e+308 does not fit twice on the x "
                                     "axis of the box, of extent 11.48; use a finer spacing"])


def _bare_model(tmp_path, coeff_sqrt, decay_sqrt, angles):
    """A one-basis model document at the origin with no stored meshing box."""
    basis = {"coeff_sqrt": coeff_sqrt, "decay_sqrt": decay_sqrt, "center": [0.0, 0.0, 0.0],
             "angles": angles}
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format": "erbfit-model", "version": 1, "bases": [basis]}))
    return model


@pytest.mark.parametrize("gamma", [0.0, np.pi / 2], ids=["gamma0", "gamma-half-pi"])
def test_mesh_bare_model_box_follows_rotated_bases(tmp_path, gamma):
    # weight 10 and decays (0.05, 1, 1): a long ellipsoid, about 6.8 A along
    # its first axis at the isovalue 1, which gamma = pi/2 turns onto y; the
    # box holds it either way, so the mesh is closed
    model = _bare_model(tmp_path, float(np.sqrt(10.0)), [float(np.sqrt(0.05)), 1.0, 1.0],
                        [0.0, 0.0, gamma])
    assert main(["mesh", str(model), "--out", str(tmp_path)]) == 0
    vertices = np.array([[float(v) for v in ln.split()[1:]]
                         for ln in (tmp_path / "mesh.obj").read_text().splitlines()
                         if ln.startswith("v ")])
    extent = np.ptp(vertices, axis=0)
    long_axis = 1 if gamma else 0
    assert extent[long_axis] > 12.0
    assert extent[1 - long_axis] < 4.0 and extent[2] < 4.0


def test_bare_model_box_is_the_reach_boxes_of_its_bases():
    # rotated anisotropic bases; the third, with n w / c = 3 * 0.3 < 1, stays
    # below the isovalue everywhere and is left out of the box
    m = RbfModel(coeff_sqrt=np.sqrt([2.0, 5.0, 0.3]),
                 decay_sqrt=[[0.3, 0.9, 1.2], [1.1, 0.4, 0.7], [0.5, 0.5, 0.5]],
                 centers=[[0.0, 1.0, -2.0], [3.0, -1.0, 0.5], [9.0, 9.0, 9.0]],
                 angles=[[0.4, -0.9, 1.3], [2.1, 0.3, -0.6], [0.0, 0.0, 0.0]])
    box = erbfit.cli._model_box({}, m, 1.0, 0.5)
    levels = np.log(3 * m.weights[:2])
    r = rotations(m.angles[:2])[0]
    half = reach(levels, r, m.decay_sqrt[:2])
    assert np.array_equal(box.lo, (m.centers[:2] - half).min(axis=0) - 0.5)
    assert np.array_equal(box.hi, (m.centers[:2] + half).max(axis=0) + 0.5)
    # the box of the ellipsoid u^T D u <= E reaches sqrt(E (A^-1)_pp) along axis p
    a_inv = np.linalg.inv(np.swapaxes(r, 1, 2) @ (m.decay_sqrt[:2, :, None] ** 2 * r))
    assert np.allclose(half, np.sqrt(levels[:, None] * np.diagonal(a_inv, axis1=1, axis2=2)))


@pytest.mark.parametrize("isovalue, reason", [
    ("1.0", "basis 1 does not decay along an axis, so no finite box holds the model surface"),
    ("10.0", "the model stays below the isovalue 10.0: no basis weight exceeds isovalue / 1"),
], ids=["zero-decay", "below-isovalue"])
def test_mesh_bare_model_without_a_box_exits_4(tmp_path, run_main, isovalue, reason):
    model = _bare_model(tmp_path, 2.0, [0.0, 1.0, 1.0], [0.3, 0.0, 0.0])
    assert run_main(["mesh", model, "--isovalue", isovalue, "--out", tmp_path]) \
        == (4, [f"error: {reason}"])
    assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize("code, reason", [
    (2, "the model has no bases"),
    (4, "basis 1 does not decay along an axis, so no finite box holds the model surface"),
], ids=["exit-2", "exit-4"])
def test_the_module_entry_point_refuses_with_one_line(tmp_path, code, reason):
    # the other refusals run main in process; these two check the process:
    # its exit status and a stderr of one line, with no traceback.  The
    # models: one with no bases, and the bare model of the test above
    model = _bare_model(tmp_path, 2.0, [0.0, 1.0, 1.0], [0.3, 0.0, 0.0])
    if code == 2:
        model.write_text(EMPTY_MODEL)
    proc = subprocess.run([sys.executable, "-m", "erbfit.cli", "mesh", str(model),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    lines = proc.stderr.splitlines()
    assert proc.returncode == code and len(lines) == 1
    assert lines[0].startswith("error: ") and lines[0].endswith(reason)
    assert not (tmp_path / "out").exists()


def test_compare_model_without_decay_on_an_axis_exits_4(bundled_pqr, molecule, tmp_path,
                                                        run_main):
    # a basis that never decays along x: its block spans the grid on that
    # axis, and its level set runs through the box walls
    basis = {"coeff_sqrt": 1.5, "decay_sqrt": [0.0, 0.7, 0.7],
             "center": molecule.centers.mean(axis=0).tolist(), "angles": [0.0, 0.0, 0.0]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format": "erbfit-model", "version": 1, "bases": [basis]}))
    code, lines = run_main(["compare", bundled_pqr, model, "--out", tmp_path])
    assert code == 4 and len(lines) == 1 and lines[0].endswith("the mesh would be open")


@pytest.mark.parametrize("command", ["mesh", "compare"],
                         ids=["mesh-over-budget", "compare-over-budget"])
def test_bad_grid_spacing_exits_2_with_one_line(atom_pqr, fit_dir, tmp_path, run_main, command):
    # 0.001 A over the atom's box is about 3e11 grid points: refused from the
    # count, before anything is allocated
    inputs = [atom_pqr, fit_dir / "model.json"] if command == "compare" else [atom_pqr]
    code, lines = run_main([command, *inputs, "--mesh-spacing", "0.001", "--out", tmp_path])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith("use a coarser spacing")


def _model_text(centers, coeff_sqrt=1.5, decay_sqrt=0.7, metadata=None):
    """A model document with one unrotated basis of the given weight and decay per center."""
    bases = [{"coeff_sqrt": coeff_sqrt, "decay_sqrt": [decay_sqrt] * 3, "center": center,
              "angles": [0.0, 0.0, 0.0]} for center in centers]
    return json.dumps({"format": "erbfit-model", "version": 1, "metadata": metadata or {},
                       "bases": bases})


# inputs whose numbers overflow a double along the way: atoms at x = +-1e308,
# whose box extent is past the largest double; an atom whose radius puts its
# box corners there; models whose stored box or bases lie at +-1e308; a basis
# of weight 1e300, whose level against the grid cutoff overflows
OVERFLOW_INPUTS = {
    "far.pqr": "ATOM      1 C    UNK A   1    1e308  0.0  0.0  0.0 1.5\n"
               "ATOM      2 C    UNK A   1   -1e308  0.0  0.0  0.0 1.5\n",
    "wide.pqr": "ATOM      1 C    UNK A   1    0.0  0.0  0.0  0.0 1e308\n",
    "boxed.json": _model_text([[0.0, 0.0, 0.0]],
                              metadata={"box_lo": [-1e308] * 3, "box_hi": [1e308] * 3}),
    "far.json": _model_text([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]),
    "heavy.json": _model_text([[0.0, 0.0, 0.0]], coeff_sqrt=1e150, decay_sqrt=3.0),
}


@pytest.mark.parametrize("command, inputs, flags, code", [
    ("sparsify", ["far.pqr"], [], 2),
    ("mesh", ["far.pqr"], [], 2),
    ("compare", ["far.pqr", "heavy.json"], [], 2),
    ("mesh", ["boxed.json"], [], 2),
    ("mesh", ["far.json"], [], 2),
    ("info", ["wide.pqr"], [], 2),
    ("sparsify", ["bundled"], ["--decay", "1e-320"], 2),
    ("mesh", ["atom"], ["--decay", "1e-320"], 4),
    ("mesh", ["heavy.json"], [], 0),
    ("compare", ["atom", "heavy.json"], [], 4),
], ids=["sparsify-far-atoms", "mesh-far-atoms", "compare-far-atoms", "mesh-huge-stored-box",
        "mesh-far-bases", "info-huge-radius", "sparsify-subnormal-decay",
        "mesh-subnormal-decay", "mesh-huge-weight", "compare-huge-weight"])
def test_overflowing_input_prints_no_numpy_warning(bundled_pqr, atom_pqr, tmp_path, run_main,
                                                   command, inputs, flags, code):
    # each overflow is computed under np.errstate, so the command ends with
    # its exit code and at most its one error line, whatever numpy's warning
    # filters are
    for name, text in OVERFLOW_INPUTS.items():
        (tmp_path / name).write_text(text)
    given = {"bundled": bundled_pqr, "atom": atom_pqr}
    paths = [given.get(name, tmp_path / name) for name in inputs]
    out = [] if command == "info" else ["--out", tmp_path / "out"]
    got, lines = run_main([command, *paths, *flags, *out])
    assert got == code
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command, inputs", [
    ("sparsify", ["far.pqr"]),
    ("mesh", ["far.pqr"]),
    ("compare", ["far.pqr", "heavy.json"]),
    ("mesh", ["boxed.json"]),
    ("mesh", ["far.json"]),
], ids=["sparsify-far-atoms", "mesh-far-atoms", "compare-far-atoms", "mesh-huge-stored-box",
        "mesh-far-bases"])
def test_a_box_without_finite_extent_is_named(tmp_path, run_main, command, inputs):
    # no grid spacing helps a box whose extent overflows a double, so the
    # message names the box, not the spacing
    for name, text in OVERFLOW_INPUTS.items():
        (tmp_path / name).write_text(text)
    code, lines = run_main([command, *(tmp_path / name for name in inputs),
                            "--out", tmp_path / "out"])
    assert code == 2 and len(lines) == 1 and lines[0].endswith("has no finite extent")
    assert "spacing" not in lines[0]


@pytest.mark.parametrize("error, code", [
    (OSError("the disk is full"), 2),
    (ValueError("a bad value"), 2),
    (OptimizationError("the fit collapsed"), 3),
    (MeshError("the mesh would be open"), 4),
], ids=["OSError", "ValueError", "OptimizationError", "MeshError"])
def test_exit_code_goes_by_the_error_class(atom_pqr, fit_dir, tmp_path, run_main, monkeypatch,
                                           error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(erbfit.cli, "compare_surfaces", fail)
    assert run_main(["compare", atom_pqr, fit_dir / "model.json", "--out", tmp_path]) \
        == (code, [f"error: {error}"])
