"""Mutation gate for the twisted rows and the derivation.

Each mutant changes one line of a module in a copy of the package and
runs the standing scan from that copy.  A mutant of the sliced
Jacobi-Trudi / Koike-Terada rows or of the derivation must be noticed:
exit 2 on a mismatch (or, for the slicing, exit 1 with a one-line
message), never 0 and never a traceback.  An equivalent mutant must leave
the standing records byte for byte, so it pins why the line may take
either form.  Each run costs about 0.3 s.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistchar"

STANDING = ["scan", "--theorems", "all", "--t", "2,3,4", "--n", "1,2", "--max-size", "7"]

# sha256 of the standing scan's --out records, as pinned in CI.
STANDING_DIGEST = "b86909f20e2aece49e8e0701b92265815ffed5debfb49c9ead2d62e786c10cb2"

# name: (module, line as written, line as mutated)
SLICING = {
    # One entry high reads wrong values; one entry low also runs the
    # deepest row's slice off the front of the table.
    "second-term-slice-one-high": (
        "characters.py",
        "z[a - s : a - s - l : -1]",
        "z[a - s + 1 : a - s - l + 1 : -1]",
    ),
    "second-term-slice-one-low": (
        "characters.py",
        "z[a - s : a - s - l : -1]",
        "z[a - s - 1 : a - s - l - 1 : -1]",
    ),
    "sp-column-0-keeps-its-second-term": (
        "characters.py",
        "tuple(sign * d ** (2 * j + s) if j or s else 0 for j in range(l))",
        "tuple(sign * d ** (2 * j + s) for j in range(l))",
    ),
    "scale-exponent-reads-2j": (
        "characters.py",
        "sign * d ** (2 * j + s) if j or s",
        "sign * d ** (2 * j) if j or s",
    ),
    "padding-one-short": (
        "characters.py",
        "o = 2 * l - 2 + s",
        "o = 2 * l - 3 + s",
    ),
}

DERIVATION = {
    "oe-second-term-sign": ("characters.py", "GroupType.OE: (2, -1)", "GroupType.OE: (2, 1)"),
    "oo-reads-s-0": ("characters.py", "GroupType.OO: (1, 1)", "GroupType.OO: (0, 1)"),
    "partners-one-high": (
        "partitions.py",
        "((i, t - 1 - z - i) for i in range(t))",
        "((i, t - z - i) for i in range(t))",
    ),
    "schur1-rotates-the-wrong-way": ("factorization.py", "quo[-1:] + quo[:-1]", "quo[1:] + quo[:1]"),
    "minus-y-sign-counts-parts": (
        "factorization.py",
        "odd += minus * sum(quo[i])",
        "odd += minus * len(quo[i])",
    ),
    "oe-odd-t-epsilon-reads-t": ("factorization.py", "(t - 1) * n // 2", "t * n // 2"),
    "block-sign-negated": (
        "partitions.py",
        "-1 if parity % 2 else 1",
        "1 if parity % 2 else -1",
    ),
}

EQUIVALENT = {
    # s_[alpha; beta] at (Y, 1/Y) is the dual of s_[beta; alpha] there, and
    # the dual character takes the same value on a point set that is closed
    # under inversion.
    "pair-swapped": ("factorization.py", "(quo[j], quo[i])", "(quo[i], quo[j])"),
    # x^(b+1) - xbar^b and x^b - xbar^(b+1) differ by the factor x^-1 in
    # row x, which the numerator and the denominator both take.
    "oo-laurent-shifted": ("characters.py", "GroupType.OO: (1, 0, -1)", "GroupType.OO: (0, 1, -1)"),
}

MUTANTS = {**SLICING, **DERIVATION, **EQUIVALENT}


def _scan(tmp_path, mutant=None, *extra):
    copy = tmp_path / "twistchar"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, old, new = MUTANTS[mutant]
        path = copy / module
        text = path.read_text()
        assert text.count(old) == 1, mutant
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "twistchar.cli", *STANDING, *extra],
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


@pytest.mark.parametrize("mutant", SLICING)
def test_a_mutant_of_the_sliced_rows_fails_the_standing_scan(tmp_path, mutant):
    out = _scan(tmp_path, mutant)
    assert "Traceback" not in out.stderr, out.stderr
    if out.returncode == 1:
        assert out.stderr.startswith("twistchar: ") and out.stderr.count("\n") == 1, out.stderr
    else:
        assert out.returncode == 2, (out.returncode, out.stdout[-300:])


@pytest.mark.parametrize("mutant", DERIVATION)
def test_a_mutant_of_the_derivation_fails_the_standing_scan(tmp_path, mutant):
    out = _scan(tmp_path, mutant)
    assert "Traceback" not in out.stderr, out.stderr
    assert out.returncode == 2, (out.returncode, out.stderr[-300:])


@pytest.mark.parametrize("mutant", EQUIVALENT)
def test_an_equivalent_mutant_keeps_the_standing_records(tmp_path, mutant):
    records = tmp_path / "standing.jsonl"
    out = _scan(tmp_path, mutant, "--out", str(records))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(records.read_bytes()).hexdigest() == STANDING_DIGEST
