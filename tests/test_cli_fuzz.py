"""Mutated PQR records and model fields through main, in process.

Every run must end with a documented exit code (0, 2, 3 or 4), print at most
one error line, raise nothing out of main and emit no warning.  The draws are
bounded so that a grid within MAX_GRID_POINTS stays small: coordinates within
30 A of the origin or beyond 1e6 A, mesh spacings of at least 0.5 A or one of
the refused values, and at most 5 iterations.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from erbfit.cli import main
from erbfit.field import bounding_box
from erbfit.initializer import init_model
from erbfit.model import save_model
from erbfit.pqr import parse_pqr_file

PQR = Path(__file__).parent / "data" / "molecule.pqr"
PQR_LINES = PQR.read_text().splitlines()
ATOM_LINES = [i for i, line in enumerate(PQR_LINES) if line.startswith("ATOM")]

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# the refused values of a float setting or a number field, and a word
BAD = ["nan", "inf", "-1", "0", "1e308", "word"]
coordinate = st.one_of(st.floats(-30.0, 30.0).map(lambda v: f"{v:.3f}"),
                       st.sampled_from(["1e6", "-2.5e7", "1e300", "-1e308"]))
spacing = st.sampled_from(["0.5", "0.75", "1.0", "2.0", *BAD])
fit_flags = st.integers(0, 5).flatmap(lambda n: st.integers(0, n).map(
    lambda s: ["--max-iter", str(n), "--sparse-iter", str(s)]))

# a value for each whitespace token of an ATOM record, by its position:
# record, serial, name, residue, chain, residue number, x, y, z, charge, radius
TOKENS = [st.sampled_from(["ATOM", "HETATM", "ATOMS", "REMARK"]),
          st.sampled_from(["1", "-3", "x1", "1e3", "99999999999999999999"]),
          st.sampled_from(["C", "", "N1"]),
          st.sampled_from(["UNK", "ALA"]),
          st.sampled_from(["A", "1"]),
          st.sampled_from(["1", "-1", "word"]),
          coordinate, coordinate, coordinate,
          st.sampled_from(["0.1", *BAD]),
          st.one_of(st.floats(0.5, 3.0).map(lambda v: f"{v:.2f}"), st.sampled_from(BAD))]


@st.composite
def mutated_pqr(draw):
    """The bundled molecule with one or two tokens replaced, or a record cut short."""
    lines = list(PQR_LINES)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.sampled_from(ATOM_LINES))
        tokens = lines[i].split()
        if tokens and draw(st.booleans()):
            # half the time one of the five numbers that end a record
            k = draw(st.integers(0, len(tokens) - 1) | st.integers(max(len(tokens) - 5, 0),
                                                                   len(tokens) - 1))
            tokens[k] = draw(TOKENS[k])
        else:
            tokens = tokens[:draw(st.integers(0, max(len(tokens) - 1, 0)))]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _model_doc() -> dict:
    molecule = parse_pqr_file(PQR)
    box = bounding_box(molecule)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(init_model(molecule, decay=0.5), path,
                   metadata={"box_lo": box.lo.tolist(), "box_hi": box.hi.tolist()})
        return json.loads(path.read_text())


MODEL = _model_doc()
number = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(
    [float("nan"), float("inf"), -1.0, 0.0, 1e308, 1e6, -1e300, 10**400, "word", None, [], {}]))


@st.composite
def mutated_model(draw):
    """The initial model of the bundled molecule with one field changed or removed."""
    doc = json.loads(json.dumps(MODEL))
    where = draw(st.sampled_from(["basis", "basis", "metadata", "document"]))
    if where == "basis":
        basis = doc["bases"][draw(st.integers(0, len(doc["bases"]) - 1))]
        key = draw(st.sampled_from(sorted(basis)))
        if isinstance(basis[key], list) and draw(st.booleans()):
            basis[key][draw(st.integers(0, len(basis[key]) - 1))] = draw(number)
        elif draw(st.booleans()):
            basis[key] = draw(number)
        else:
            del basis[key]
    elif where == "metadata":
        key = draw(st.sampled_from(["box_lo", "box_hi"]))
        if draw(st.booleans()):
            doc["metadata"][key][draw(st.integers(0, 2))] = draw(number)
        else:
            del doc["metadata"][key]  # the box then comes from the bases
    else:
        key = draw(st.sampled_from(["format", "version", "n_bases", "bases", "metadata"]))
        doc[key] = draw(st.one_of(number, st.just([])))
    return json.dumps(doc)


def _run(argv: list[str]) -> None:
    """main(argv) with its output captured; checks how the run ended."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= (code != 0)
    assert [str(w.message) for w in caught] == []


@FUZZ
@given(text=mutated_pqr(), command=st.sampled_from(["info", "sparsify", "mesh"]),
       fit=fit_flags, mesh_spacing=spacing)
def test_mutated_pqr_ends_with_a_documented_exit(text, command, fit, mesh_spacing):
    with tempfile.TemporaryDirectory() as tmp:
        pqr = Path(tmp) / "mol.pqr"
        pqr.write_text(text)
        flags = {"info": [], "sparsify": fit,
                 "mesh": ["--mesh-spacing", mesh_spacing]}[command]
        out = [] if command == "info" else ["--out", tmp]
        _run([command, str(pqr), *flags, *out])


@FUZZ
@given(text=mutated_model(), command=st.sampled_from(["mesh", "compare"]),
       mesh_spacing=spacing)
def test_mutated_model_ends_with_a_documented_exit(text, command, mesh_spacing):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text)
        inputs = [str(model)] if command == "mesh" else [str(PQR), str(model)]
        _run([command, *inputs, "--mesh-spacing", mesh_spacing, "--out", tmp])

