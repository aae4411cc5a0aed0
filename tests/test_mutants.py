"""Mutation gate for the sliced Jacobi-Trudi / Koike-Terada rows.

Each mutant changes one line of `characters.py` in a copy of the package
and runs the standing scan from that copy.  The scan must notice: exit 2
on a mismatch, or exit 1 with a one-line message, never 0 and never a
traceback.  Each run costs about 0.3 s.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistchar"

STANDING = ["scan", "--theorems", "all", "--t", "2,3,4", "--n", "1,2", "--max-size", "7"]

# (line as written, line as mutated)
MUTANTS = {
    # One entry high reads wrong values; one entry low also runs the
    # deepest row's slice off the front of the table.
    "second-term-slice-one-high": (
        "z[a - s : a - s - l : -1]",
        "z[a - s + 1 : a - s - l + 1 : -1]",
    ),
    "second-term-slice-one-low": (
        "z[a - s : a - s - l : -1]",
        "z[a - s - 1 : a - s - l - 1 : -1]",
    ),
    "sp-column-0-keeps-its-second-term": (
        "tuple(sign * d ** (2 * j + s) if j or s else 0 for j in range(l))",
        "tuple(sign * d ** (2 * j + s) for j in range(l))",
    ),
    "scale-exponent-reads-2j": (
        "sign * d ** (2 * j + s) if j or s",
        "sign * d ** (2 * j) if j or s",
    ),
    "padding-one-short": (
        "o = 2 * l - 2 + s",
        "o = 2 * l - 3 + s",
    ),
}


def _scan(tmp_path, mutant=None):
    copy = tmp_path / "twistchar"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        old, new = MUTANTS[mutant]
        path = copy / "characters.py"
        text = path.read_text()
        assert text.count(old) == 1, mutant
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "twistchar.cli", *STANDING],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_the_copy_passes_unmutated(tmp_path):
    out = _scan(tmp_path)
    assert out.returncode == 0, out.stderr
    assert "mismatch=0" in out.stderr


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_mutant_of_the_sliced_rows_fails_the_standing_scan(tmp_path, mutant):
    out = _scan(tmp_path, mutant)
    assert "Traceback" not in out.stderr, out.stderr
    if out.returncode == 1:
        assert out.stderr.startswith("twistchar: ") and out.stderr.count("\n") == 1, out.stderr
    else:
        assert out.returncode == 2, (out.returncode, out.stdout[-300:])
