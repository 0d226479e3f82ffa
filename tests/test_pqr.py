"""PQR parsing, validation, and round-trip serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erbfit.pqr import (
    Atom,
    Molecule,
    PqrError,
    PqrParseError,
    PqrValidationError,
    format_pqr,
    parse_pqr,
)


def test_single_record_no_chain():
    mol = parse_pqr("ATOM 1 C ALA 1 0.0 0.0 0.0 0.0 1.7")
    assert len(mol) == 1
    a = mol.atoms[0]
    assert a.serial == 1
    assert a.name == "C"
    assert a.residue == "ALA"
    assert a.chain == ""
    assert np.array_equal(a.center, np.zeros(3))
    assert a.radius == 1.7
    assert a.charge == 0.0


def test_chain_column_detected_by_token_count():
    mol = parse_pqr("ATOM 7 N GLY B 3 1.0 2.0 3.0 -0.5 1.55")
    a = mol.atoms[0]
    assert a.chain == "B"
    assert a.residue_seq == "3"
    assert np.array_equal(a.center, np.array([1.0, 2.0, 3.0]))


def test_remark_lines_ignored():
    text = "\n".join([
        "REMARK generated for a test",
        "ATOM 1 C ALA 1 0.0 0.0 0.0 0.1 1.7",
        "ATOM 2 O ALA 1 1.0 0.0 0.0 -0.1 1.52",
        "END",
    ])
    mol = parse_pqr(text)
    assert len(mol) == 2
    assert [a.serial for a in mol.atoms] == [1, 2]


def test_hetatm_consumed():
    mol = parse_pqr("HETATM 1 ZN ZN 1 0.0 0.0 0.0 2.0 1.39")
    assert mol.atoms[0].name == "ZN"


def test_malformed_numeric_reports_line_number():
    text = "REMARK x\nATOM 1 C ALA 1 0.0 oops 0.0 0.0 1.7\n"
    with pytest.raises(PqrParseError, match="line 2"):
        parse_pqr(text)


def test_short_record_rejected():
    with pytest.raises(PqrParseError, match="line 1"):
        parse_pqr("ATOM 1 C ALA 1 0.0 0.0 1.7")


def test_nonpositive_radius_names_serial():
    # NaN passes a "radius <= 0" test, so every radius that is not finite and
    # positive is named
    for radius in ("-1.0", "0.0", "nan", "inf", "-inf"):
        with pytest.raises(PqrValidationError,
                           match=f"serial 9: radius must be finite and positive, got {radius}"):
            parse_pqr(f"ATOM 9 C ALA 1 0.0 0.0 0.0 0.0 {radius}")


def test_nonfinite_coordinate_rejected():
    with pytest.raises(PqrParseError):
        parse_pqr("ATOM 1 C ALA 1 nan 0.0 0.0 0.0 1.7")


def test_empty_input_rejected():
    with pytest.raises(PqrError):
        parse_pqr("REMARK nothing here\n")


def test_empty_molecule_rejected():
    with pytest.raises(PqrError):
        Molecule(atoms=())


def test_whitespace_insensitive():
    a = parse_pqr("ATOM   1    C  ALA    1   0.5  1.5   -2.5 0.0 1.7\n\n\n").atoms[0]
    b = parse_pqr("ATOM 1 C ALA 1 0.5 1.5 -2.5 0.0 1.7").atoms[0]
    assert np.array_equal(a.center, b.center)
    assert a.radius == b.radius


def test_ordering_preserved(rng):
    lines = []
    coords = rng.uniform(-10, 10, (20, 3))
    for i, c in enumerate(coords):
        lines.append(f"ATOM {i} C ALA 1 {c[0]} {c[1]} {c[2]} 0.0 1.7")
    mol = parse_pqr("\n".join(lines))
    assert np.allclose(mol.centers, coords)
    assert [a.serial for a in mol.atoms] == list(range(20))


# identifiers are whitespace-free printable ASCII, the tokens a record is split into
_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _molecules(draw):
    n = draw(st.integers(1, 8))
    atoms = tuple(
        Atom(serial=draw(st.integers(-10**6, 10**9)), name=draw(_TOKEN),
             residue=draw(_TOKEN), chain=draw(st.one_of(st.just(""), _TOKEN)),
             residue_seq=draw(_TOKEN),
             center=np.array(draw(st.lists(_FINITE, min_size=3, max_size=3))),
             charge=draw(_FINITE),
             # radii across decades, from subnormal to huge
             radius=draw(st.floats(min_value=0.0, max_value=1e300, exclude_min=True)))
        for _ in range(n)
    )
    return Molecule(atoms=atoms)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(random_molecule=_molecules())
def test_roundtrip_machine_precision(random_molecule, molecule):
    # the bundled file and random molecules: -0.0, exponents and empty chains
    # come back bit for bit
    for mol in (molecule, random_molecule):
        back = parse_pqr(format_pqr(mol))
        assert np.array_equal(_bits(back.centers), _bits(mol.centers))
        assert np.array_equal(_bits(back.radii), _bits(mol.radii))
        assert np.array_equal(_bits([a.charge for a in back.atoms]),
                              _bits([a.charge for a in mol.atoms]))
        for got, want in zip(back.atoms, mol.atoms, strict=True):
            assert (got.serial, got.name, got.residue, got.chain, got.residue_seq) == \
                (want.serial, want.name, want.residue, want.chain, want.residue_seq)


def test_bundled_molecule_parses(molecule):
    assert 20 <= len(molecule) <= 60
    assert (molecule.radii > 0).all()
    assert np.isfinite(molecule.centers).all()
