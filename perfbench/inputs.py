"""Seeded benchmark inputs: the bundled molecule and the 400-atom globule.

The globule is a branched self-avoiding walk confined to a sphere of
ATOM_VOLUME cubic Angstrom per atom: bonds of BOND Angstrom, every non-bonded
pair at least MIN_SEPARATION apart, radii uniform in RADIUS_RANGE.  When the
walk cannot extend its newest atom it grows from a random earlier one.  The
molecule is written with `format_pqr` and re-read with `parse_pqr`, so the
program sees exactly the bytes the benchmark hashes.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from erbfit.initializer import init_model
from erbfit.model import save_model
from erbfit.pqr import Atom, Molecule, format_pqr, parse_pqr

GLOBULE_ATOMS = 400
ATOM_VOLUME = 20.0
BOND = 1.5
MIN_SEPARATION = 2.2
RADIUS_RANGE = (1.4, 1.9)
STAND_IN_DECAY = 0.45
_TRIES_PER_ATOM = 30
_MAX_RESTARTS = 100_000


def globule(n_atoms: int, seed: int) -> Molecule:
    """Branched self-avoiding walk of n_atoms inside a sphere; deterministic in seed."""
    rng = np.random.default_rng(seed)
    radius = (3.0 * ATOM_VOLUME * n_atoms / (4.0 * np.pi)) ** (1.0 / 3.0)
    pos = np.zeros((n_atoms, 3))
    count = 1
    grow_from = 0
    restarts = 0
    while count < n_atoms:
        dirs = rng.normal(size=(_TRIES_PER_ATOM, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        placed = False
        for cand in pos[grow_from] + BOND * dirs:
            if cand @ cand > radius * radius:
                continue
            dist2 = ((pos[:count] - cand) ** 2).sum(axis=1)
            dist2[grow_from] = np.inf  # the bonded parent sits at BOND
            if dist2.min() >= MIN_SEPARATION ** 2:
                pos[count] = cand
                grow_from = count
                count += 1
                placed = True
                break
        if not placed:
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise RuntimeError(f"globule walk stuck at {count} atoms (seed {seed})")
            grow_from = int(rng.integers(count))
    radii = rng.uniform(*RADIUS_RANGE, size=n_atoms)
    atoms = tuple(
        Atom(serial=i + 1, name="C", residue="GLB", chain="A",
             residue_seq=str(i // 10 + 1), center=pos[i], charge=0.0,
             radius=float(radii[i]))
        for i in range(n_atoms)
    )
    return Molecule(atoms=atoms, source_path=f"<globule seed={seed}>")


def write_globule(directory: Path, seed: int, n_atoms: int = GLOBULE_ATOMS) -> dict:
    """Write mol.pqr and the stand-in model.json for the globule; returns file facts."""
    directory.mkdir(parents=True, exist_ok=True)
    pqr = directory / "mol.pqr"
    pqr.write_text(format_pqr(globule(n_atoms, seed)))
    molecule = parse_pqr(pqr.read_text(), source_path=str(pqr))
    model = directory / "standin.json"
    save_model(init_model(molecule, decay=STAND_IN_DECAY), model)
    return {"pqr": pqr, "model": model, "molecule": molecule}


def write_bundled(directory: Path, source: Path) -> dict:
    """Copy the bundled molecule byte for byte; the seed does not change it."""
    directory.mkdir(parents=True, exist_ok=True)
    pqr = directory / "mol.pqr"
    shutil.copyfile(source, pqr)
    molecule = parse_pqr(pqr.read_text(), source_path=str(pqr))
    return {"pqr": pqr, "model": None, "molecule": molecule}
