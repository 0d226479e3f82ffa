import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

import erbfit.model
import erbfit.optimizer
from erbfit.cli import main
from erbfit.pqr import parse_pqr_file

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bundled_pqr() -> Path:
    return DATA_DIR / "molecule.pqr"


@pytest.fixture(scope="session")
def molecule(bundled_pqr):
    return parse_pqr_file(bundled_pqr)


def _run_main(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except BaseException as exc:
            pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="session")
def run_main():
    """main(argv) in process, its arguments taken as str: (exit code, stderr
    lines), stdout dropped.  The test fails when an exception escapes main or
    main emits any warning."""
    return _run_main


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def point_passes(monkeypatch):
    """Counts of the passes over the points (erbfit.model._fused_pass, under
    both the names that call it), of their moment parts (one per block that
    ran it) and of the rotations calls, kept up to date for the rest of the
    test."""
    calls = {"passes": 0, "moments": 0, "rotations": 0}
    fused_pass, moment_part = erbfit.model._fused_pass, erbfit.model._moment_part
    rotations = erbfit.model.rotations

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    counting_pass = counting("passes", fused_pass)
    monkeypatch.setattr(erbfit.model, "_fused_pass", counting_pass)
    monkeypatch.setattr(erbfit.optimizer, "_fused_pass", counting_pass)
    monkeypatch.setattr(erbfit.model, "_moment_part", counting("moments", moment_part))
    monkeypatch.setattr(erbfit.model, "rotations", counting("rotations", rotations))
    return calls
