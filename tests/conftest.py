from pathlib import Path

import numpy as np
import pytest

import erbfit.model
import erbfit.optimizer
from erbfit.pqr import parse_pqr_file

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bundled_pqr() -> Path:
    return DATA_DIR / "molecule.pqr"


@pytest.fixture(scope="session")
def molecule(bundled_pqr):
    return parse_pqr_file(bundled_pqr)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def point_passes(monkeypatch):
    """Counts of the passes over the points (erbfit.model._fused_pass, under
    both the names that call it) and of the rotations calls, kept up to date
    for the rest of the test."""
    calls = {"passes": 0, "rotations": 0}
    fused_pass, rotations = erbfit.model._fused_pass, erbfit.model.rotations

    def counting_pass(*args):
        calls["passes"] += 1
        return fused_pass(*args)

    def counting_rotations(*args):
        calls["rotations"] += 1
        return rotations(*args)

    monkeypatch.setattr(erbfit.model, "_fused_pass", counting_pass)
    monkeypatch.setattr(erbfit.optimizer, "_fused_pass", counting_pass)
    monkeypatch.setattr(erbfit.model, "rotations", counting_rotations)
    return calls
