"""End-to-end command-line behavior: arguments, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erbfit
from erbfit import __version__
from erbfit.cli import main

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


def test_info_missing_file(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.pqr")]) == 2
    assert "error:" in capsys.readouterr().err


def test_info_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.pqr"
    bad.write_text("ATOM 1 C UNK A 1 what 0.0 0.0 0.0 1.5\n")
    assert main(["info", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_sparsify_empty_selection(atom_pqr, tmp_path, capsys):
    code = main(["sparsify", str(atom_pqr), "--out", str(tmp_path),
                 "--band", "1e-12", "--constraint-spacing", "2.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sparsify_collapse_reports_failure(atom_pqr, tmp_path, capsys):
    code = main(["sparsify", str(atom_pqr), "--out", str(tmp_path),
                 "--prune-tol", "100", "--max-iter", "40",
                 "--sparse-iter", "40", "--constraint-spacing", "0.7"])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    trace = (tmp_path / "trace.csv").read_text()
    assert "FAILED" in trace
    summary = (tmp_path / "summary.txt").read_text()
    assert "status=FAILED" in summary
    assert not (tmp_path / "model.json").exists()


def test_sparsify_deterministic_outputs(atom_pqr, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["sparsify", str(atom_pqr), "--out", str(d),
                     "--deterministic", *QUICK_FIT]) == 0
    for name in ("model.json", "trace.csv", "weights.txt"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


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


def test_mesh_no_surface_in_box(atom_pqr, tmp_path, capsys):
    code = main(["mesh", str(atom_pqr), "--out", str(tmp_path),
                 "--isovalue", "1000.0"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


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


def test_out_directory_created(atom_pqr, tmp_path):
    nested = tmp_path / "deep" / "run"
    code = main(["mesh", str(atom_pqr), "--out", str(nested),
                 "--mesh-spacing", "0.5"])
    assert code == 0
    assert (nested / "mesh.obj").exists()


@pytest.mark.parametrize("command, doc", [
    ("mesh", '{"format": "erbfit-model", "version": 1}'),
    ("compare", '{"format": "erbfit-model", "version": 1, "bases": [{"coeff_sqrt": NaN, '
                '"decay_sqrt": [0.7, 0.7, 0.7], "center": [0, 0, 0], "angles": [0, 0, 0]}]}'),
], ids=["mesh-no-bases", "compare-nan-coeff"])
def test_malformed_model_exits_2_with_one_line(atom_pqr, tmp_path, command, doc):
    model = tmp_path / "model.json"
    model.write_text(doc)
    inputs = [str(model)] if command == "mesh" else [str(atom_pqr), str(model)]
    env = {**os.environ, "PYTHONPATH": str(Path(erbfit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "erbfit.cli", command, *inputs, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
