"""The globule generator is a pure function of its seed."""

import numpy as np

from inputs import BOND, MIN_SEPARATION, RADIUS_RANGE, globule, write_globule


def test_same_seed_same_files(tmp_path):
    a = write_globule(tmp_path / "a", seed=7, n_atoms=120)
    b = write_globule(tmp_path / "b", seed=7, n_atoms=120)
    for key in ("pqr", "model"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_other_seed_other_molecule():
    assert not np.array_equal(globule(120, 1).centers, globule(120, 2).centers)


def test_walk_invariants():
    mol = globule(120, 3)
    centers, radii = mol.centers, mol.radii
    dist = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    # a connected tree: every atom has a bond of BOND; non-bonded pairs keep their distance
    assert np.allclose(dist.min(axis=1), BOND)
    assert ((dist >= MIN_SEPARATION) | np.isclose(dist, BOND)).all()
    assert radii.min() >= RADIUS_RANGE[0] and radii.max() <= RADIUS_RANGE[1]
