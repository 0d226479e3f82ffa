"""README.md's pointers into the code, its flags and its library example stay true."""

import contextlib
import importlib
import io
import re
from pathlib import Path

from erbfit.cli import _build_parser

README = (Path(__file__).parents[1] / "README.md").read_text()
DATA_DIR = Path(__file__).parent / "data"


def _resolve(dotted: str):
    """The object a dotted erbfit name points to: the longest importable
    module prefix, then attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _options(parser) -> set[str]:
    """Every option string of the parser and of its subcommands' parsers."""
    options = {s for action in parser._actions for s in action.option_strings}
    for action in parser._actions:
        for sub in getattr(action, "choices", None) or {}:
            options |= _options(action.choices[sub])
    return options


def test_every_dotted_name_resolves():
    names = set(re.findall(r"`(erbfit(?:\.\w+)+)`", README))
    assert len(names) >= 10
    for name in sorted(names):
        assert _resolve(name) is not None, name


def test_every_documented_flag_is_an_option():
    # the flags on pip's lines are pip's; the flags README calls gone must be gone
    text = "\n".join(line for line in README.splitlines() if not line.startswith("pip "))
    gone = re.search(r"former (.*?) flags\s+are\s+gone", text, re.S)
    removed = set(re.findall(r"--[a-z][a-z-]*", gone.group(1)))
    flags = set(re.findall(r"--[a-z][a-z-]*", text.replace(gone.group(0), "")))
    options = _options(_build_parser())
    assert removed == {"--threads", "--seed"}
    assert not removed & options
    assert flags - options == set()
    assert {"--decay", "--mesh-spacing", "--error-cap", "--out"} <= flags


def test_library_example_runs_on_the_bundled_molecule():
    example = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    assert example.count('"mol.pqr"') == 1
    code = example.replace('"mol.pqr"', repr(str(DATA_DIR / "molecule.pqr")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    n_bases = int(out.getvalue().split()[0])
    assert out.getvalue() == f"{n_bases} bases for 21 atoms\n"
    assert 1 <= n_bases < 21
