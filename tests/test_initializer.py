"""One-basis-per-atom initialization that reproduces the molecular field."""

import numpy as np
import pytest

from erbfit.field import GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.optimizer import energy_terms, fit_residual
from erbfit.pqr import Atom, Molecule
from erbfit.sampler import make_grid, select_constraints


def _one_atom_molecule(radius, center=(0.0, 0.0, 0.0)):
    atom = Atom(
        serial=1,
        name="C",
        residue="UNK",
        chain="",
        residue_seq="1",
        center=np.asarray(center, dtype=float),
        charge=0.0,
        radius=radius,
    )
    return Molecule(atoms=(atom,))


def test_zero_radius_gives_unit_weight():
    # parse-level validation forbids r = 0, but the formula is still defined
    m = init_model(_one_atom_molecule(0.0), decay=0.5)
    assert m.coeff_sqrt[0] == 1.0
    assert m.weights[0] == 1.0


def test_weight_formula_single_atom():
    m = init_model(_one_atom_molecule(1.5), decay=0.5)
    assert np.isclose(m.weights[0], np.exp(0.5 * 1.5**2), rtol=0, atol=1e-15)
    assert np.allclose(m.decay_sqrt[0] ** 2, 0.5)
    assert np.array_equal(m.angles[0], np.zeros(3))


def test_centers_copied_not_aliased(molecule):
    m = init_model(molecule, decay=0.5)
    assert np.array_equal(m.centers, molecule.centers)
    m.centers[0, 0] += 1.0
    assert m.centers[0, 0] != molecule.centers[0, 0]


def test_initial_model_reproduces_field(molecule, rng):
    decay = 0.5
    m = init_model(molecule, decay=decay)
    assert m.n_bases == len(molecule.atoms)
    f = GaussianField.from_molecule(molecule, decay=decay)
    box = bounding_box(molecule)
    pts = rng.uniform(box.lo, box.hi, size=(200, 3))
    phi = np.array([f.values(p[None])[0] for p in pts])
    phi_tilde = m.values(pts)
    assert np.max(np.abs(phi_tilde - phi)) < 1e-10


@pytest.mark.parametrize("spacing", [1.0, 0.5])
def test_grid_sum_serves_the_field_and_the_initial_model(molecule, spacing):
    # the same GridSpec.block_sum, fed the field's atoms or the model's bases
    grid = make_grid(bounding_box(molecule), spacing)
    phi = GaussianField.from_molecule(molecule, decay=0.5).values(grid)
    model = init_model(molecule, decay=0.5).values(grid)
    assert np.max(np.abs(model - phi)) < 1e-12
    for band in (1.0, 0.5):
        assert np.array_equal(np.abs(model - 1.0) <= band, np.abs(phi - 1.0) <= band)


def test_initial_fit_energy_is_zero(molecule):
    decay = 0.5
    m = init_model(molecule, decay=decay)
    f = GaussianField.from_molecule(molecule, decay=decay)
    cs = select_constraints(f, make_grid(bounding_box(molecule), 1.5), band=1.0)
    es, el1 = energy_terms(m, fit_residual(m, cs))
    assert es < 1e-18
    assert el1 > 0.0


def test_other_decay_value(rng):
    decay = 0.8
    mol = _one_atom_molecule(1.2, center=(0.5, -1.0, 2.0))
    m = init_model(mol, decay=decay)
    f = GaussianField.from_molecule(mol, decay=decay)
    pts = rng.uniform(-2.0, 4.0, size=(50, 3))
    phi = np.array([f.values(p[None])[0] for p in pts])
    assert np.max(np.abs(m.values(pts) - phi)) < 1e-12


def test_nonpositive_decay_rejected(molecule):
    with pytest.raises(ValueError):
        init_model(molecule, decay=0.0)
    with pytest.raises(ValueError):
        init_model(molecule, decay=-0.5)


@pytest.mark.parametrize("radius, decay, reason", [
    (1.5, np.nan, "decay must be finite and positive, got nan"),
    (1.5, np.inf, "decay must be finite and positive, got inf"),
    (40.0, 0.5, "the weight e^(d r^2) overflows"),
    (np.nan, 0.5, "atom 1: radius must be finite and non-negative, got nan"),
    (np.inf, 0.5, "atom 1: radius must be finite and non-negative, got inf"),
])
def test_non_finite_decay_or_weight_rejected(radius, decay, reason):
    with pytest.raises(ValueError) as info:
        init_model(_one_atom_molecule(radius), decay=decay)
    assert reason in str(info.value)
