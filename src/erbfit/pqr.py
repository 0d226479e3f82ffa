"""PQR molecule ingestion.

PQR is a PDB-like text format whose ATOM/HETATM records end with per-atom
charge and radius.  Files in the wild vary in column widths, so records are
treated as whitespace-delimited (the PDB2PQR convention) rather than
fixed-column: the last five tokens of a record are x, y, z, charge, radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import positive


class PqrError(ValueError):
    """Base class for PQR ingestion failures."""


class PqrParseError(PqrError):
    """Malformed record; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class PqrValidationError(PqrError):
    """Record parsed but violates an atom invariant; names the serial."""


@dataclass(frozen=True)
class Atom:
    """One ATOM/HETATM record: center and radius drive the math, the rest is bookkeeping."""

    serial: int
    name: str
    residue: str
    chain: str
    residue_seq: str
    center: np.ndarray  # (3,) float64, Angstrom
    charge: float       # elementary charges; parsed but unused downstream
    radius: float       # Angstrom, finite and > 0


@dataclass(frozen=True)
class Molecule:
    """Ordered atom list with its source path; immutable and freely shareable."""

    atoms: tuple[Atom, ...]
    source_path: str = "<memory>"

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise PqrError("molecule has no atoms")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def centers(self) -> np.ndarray:
        """(N, 3) array of atom centers."""
        return np.array([a.center for a in self.atoms], dtype=np.float64)

    @property
    def radii(self) -> np.ndarray:
        """(N,) array of atom radii."""
        return np.array([a.radius for a in self.atoms], dtype=np.float64)


def _parse_record(tokens: list[str], line_number: int) -> Atom:
    # Tail of every record is x y z charge radius; the head is
    # [rec, serial, name, residue, (chain)?, resSeq].  Chain-ID presence is
    # detected by token count: >= 11 tokens means a chain column exists.
    if len(tokens) < 10:
        raise PqrParseError(
            f"expected at least 10 fields in {tokens[0]} record, got {len(tokens)}",
            line_number,
        )
    tail = tokens[-5:]
    head = tokens[:-5]
    values = []
    for tok in tail:
        try:
            values.append(float(tok))
        except ValueError:
            raise PqrParseError(f"malformed numeric field {tok!r}", line_number) from None
    x, y, z, charge, radius = values
    if not all(np.isfinite(v) for v in (x, y, z)):
        raise PqrParseError("non-finite coordinate", line_number)
    try:
        serial = int(head[1])
    except ValueError:
        raise PqrParseError(f"malformed serial {head[1]!r}", line_number) from None
    chain = head[4] if len(head) >= 6 else ""
    positive(f"atom serial {serial}: radius", radius, PqrValidationError)
    return Atom(
        serial=serial,
        name=head[2],
        residue=head[3],
        chain=chain,
        residue_seq=head[-1],
        center=np.array([x, y, z], dtype=np.float64),
        charge=charge,
        radius=radius,
    )


def parse_pqr(text: str, source_path: str = "<memory>") -> Molecule:
    """Parse PQR text into a Molecule.

    Only ATOM/HETATM records are consumed; all other lines are ignored.
    Raises PqrParseError (with line number) on malformed numeric fields,
    PqrValidationError on a radius that is not finite and positive, and
    PqrError if no atoms remain.
    """
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] not in ("ATOM", "HETATM"):
            continue
        atoms.append(_parse_record(tokens, lineno))
    if not atoms:
        raise PqrError(f"no ATOM/HETATM records found in {source_path}")
    return Molecule(atoms=tuple(atoms), source_path=source_path)


def parse_pqr_file(path: str | Path) -> Molecule:
    """Read and parse a PQR file from disk; PqrError naming the file if it is not UTF-8 text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise PqrError(f"{path}: not UTF-8 text") from None
    return parse_pqr(text, source_path=str(path))


def format_pqr(molecule: Molecule) -> str:
    """Serialize a Molecule back to PQR text.

    Coordinates and radii are written with shortest round-trip precision so
    that re-parsing reproduces them to machine precision.
    """
    lines = []
    for a in molecule.atoms:
        chain = f" {a.chain}" if a.chain else ""
        x, y, z = (float(v) for v in a.center)
        lines.append(
            f"ATOM {a.serial} {a.name} {a.residue}{chain} {a.residue_seq} "
            f"{x!r} {y!r} {z!r} {float(a.charge)!r} {float(a.radius)!r}"
        )
    return "\n".join(lines) + "\n"
