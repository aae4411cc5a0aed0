"""Mutation gate for the twisted rows, the derivation, the right side's
bialternants and point sets, and the lattice leaf.

Each mutant changes one line (one of them two adjacent lines) of a
module in a copy of the package and runs the standing scan from that
copy.  A mutant of the sliced
Jacobi-Trudi / Koike-Terada rows or of the derivation must be noticed:
exit 2 on a mismatch (or, for the slicing, exit 1 with a one-line
message), never 0 and never a traceback.  A mutant of the right side's
integer bialternant or of a factor's point set must give exit 2 with
its own count of mismatches.  A mutant that
builds an invalid value is refused before any mismatch is seen: exit 1
with a one-line message.  An equivalent mutant must leave the standing
records byte for byte, so it pins why the line may take either form.
A mutant that only moves a record field `match` never reads passes the
scan with other records; the Tier-1 tests listed with it must fail when
run from the same copy.  Each scan costs about 0.3 s.  A mutant of the
lattice walk's leaf, which reads each core's size off the bead sum and
bead count the walk carries at one padding, is run through `series`
instead: exit 2 with a MISMATCH row, never 0 and never a traceback, and
an equivalent one, such as a larger padding, must leave the table byte
for byte.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "twistchar"

STANDING = ["scan", "--theorems", "all", "--t", "2,3,4", "--n", "1,2", "--max-size", "7"]

# sha256 of the standing scan's --out records, as pinned in CI.
STANDING_DIGEST = "b86909f20e2aece49e8e0701b92265815ffed5debfb49c9ead2d62e786c10cb2"

SERIES = ["series", "--z", "0", "--t", "3", "--N", "26"]

# sha256 of that command's table.
SERIES_DIGEST = "138e7edcf3e96865deab85198c319d0a69813d4fcfbfc825c96d5138f4839f4b"

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

# name: (module, line as written, line as mutated, mismatches on the scan)
RIGHT_SIDE = {
    "minus-y-keeps-its-sign": ("factorization.py", "(-p, q)", "(p, q)", 20),
    "point-one-read-as-two": ("factorization.py", "ys + ((1, 1),)", "ys + ((2, 1),)", 70),
    "sp-laurent-sign-plus": ("characters.py", "GroupType.SP: (1, 1, -1)", "GroupType.SP: (1, 1, 1)", 33),
    "oe-laurent-sign-minus": ("characters.py", "GroupType.OE: (0, 0, 1)", "GroupType.OE: (0, 0, -1)", 33),
    # OE's b = 0 entry then reads x^0 + xbar^0 = 2, not its half.
    "oe-b0-entry-not-halved": ("characters.py", "if b or k else", "if b else", 82),
}

REFUSED = {
    # A quotient part read one low can be negative, and weyl_character
    # refuses a negative part on a value-cache miss.
    "quotient-part-one-low": (
        "partitions.py",
        "range(len(r) - 1, -1, -1)",
        "range(len(r), -1, -1)",
    ),
    # schur1's excess then sums to 2, so a live core has no class c
    # holding exactly one bead above n: the class lookup raises.
    "excess-counts-class-ones": ("partitions.py", "+ (i < ones) for i", "+ (i <= ones) for i"),
    # 1/Y then repeats Y, so the first (Y, 1/Y) factor's GL denominator
    # vanishes: DegeneratePointError.
    "inverse-y-not-inverted": ("factorization.py", "tuple((q, p) for p, q in ys)", "tuple((p, q) for p, q in ys)"),
}

EQUIVALENT = {
    # s_[alpha; beta] at (Y, 1/Y) is the dual of s_[beta; alpha] there, and
    # the dual character takes the same value on a point set that is closed
    # under inversion.
    "pair-swapped": ("factorization.py", "(quo[j], quo[i])", "(quo[i], quo[j])"),
    # x^(b+1) - xbar^b and x^b - xbar^(b+1) differ by the factor x^-1 in
    # row x, which the numerator and the denominator both take.
    "oo-laurent-shifted": ("characters.py", "GroupType.OO: (1, 0, -1)", "GroupType.OO: (0, 1, -1)"),
    # The offsets sum to 0, so those on the even classes sum to minus
    # those on the odd ones: tilt keeps its parity, and step with it.
    "tilt-reads-even-classes": ("factorization.py", "sum(cls.offsets[1::2])", "sum(cls.offsets[::2])"),
}

LATTICE_LEAF = {
    "leaf-size-one-high": (
        "series.py",
        "size = beads - count * (count - 1) // 2",
        "size = beads - count * (count - 1) // 2 + 1",
    ),
    # Class i's runner counted with one bead more than it holds, in the
    # bead count only: L is the carried count, not t*n.
    "bead-count-one-high": ("series.py", "count = length + a + b", "count = length + a + 1 + b"),
    # Two adjacent lines.  No core at z = 0, t = 3 has size 26, so no
    # size runs past the row, and the guard's loss must not hide the
    # mismatch.
    "size-guard-gone-one-high": (
        "series.py",
        "size = beads - count * (count - 1) // 2\n            if 0 <= size <= bound:",
        "size = beads - count * (count - 1) // 2 + 1\n            if True:",
    ),
}

LATTICE_EQUIVALENT = {
    # Runner i's k beads sum to k*i + t*k*(k - 1)/2, and L(L - 1)/2 with
    # L = tn moves with them: one more bead on every runner shifts each
    # bead up by t and adds bead i at the bottom, which leaves the size.
    "padding-one-more": ("series.py", "n = isqrt(bound // t) + 1", "n = isqrt(bound // t) + 2"),
}

# name: (module, line as written, line as mutated, Tier-1 tests that must fail)
UNSEEN = {
    # One padding step then moves sigma and epsilon by the parity of T n0 +
    # tilt: both flip together where they should not, so the total sign
    # that match checks holds and only the two record fields move.
    "step-reads-n0": (
        "factorization.py",
        "* (n0 + 1) + tilt) % 2",
        "* n0 + tilt) % 2",
        (
            "test_factorization.py::test_sign_exponent_values",
            "test_factorization.py::test_moved_sigma_is_the_block_sign_at_each_padding",
            "test_factorization.py::test_carried_epsilon_is_the_closed_form_at_each_n",
            "test_factorization.py::test_an_uncarried_epsilon_fails_the_split",
        ),
    ),
}

MUTANTS = {**SLICING, **DERIVATION, **RIGHT_SIDE, **REFUSED, **EQUIVALENT, **LATTICE_LEAF, **LATTICE_EQUIVALENT, **UNSEEN}


def _copy(tmp_path, mutant=None):
    copy = tmp_path / "twistchar"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, old, new = MUTANTS[mutant][:3]
        path = copy / module
        text = path.read_text()
        assert text.count(old) == 1, mutant
        path.write_text(text.replace(old, new))


def _run(tmp_path, *args):
    # python -m args, importing the package from the copy under tmp_path.
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _scan(tmp_path, mutant=None, *extra):
    _copy(tmp_path, mutant)
    return _run(tmp_path, "twistchar.cli", *STANDING, *extra)


def test_the_copy_passes_unmutated(tmp_path):
    out = _scan(tmp_path)
    assert out.returncode == 0, out.stderr
    assert "mismatch=0" in out.stderr
    out = _run(tmp_path, "twistchar.cli", *SERIES)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == SERIES_DIGEST


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


@pytest.mark.parametrize("mutant", RIGHT_SIDE)
def test_a_mutant_of_the_right_side_fails_the_standing_scan(tmp_path, mutant):
    out = _scan(tmp_path, mutant)
    assert "Traceback" not in out.stderr, out.stderr
    assert out.returncode == 2, (out.returncode, out.stderr[-300:])
    assert f" mismatch={RIGHT_SIDE[mutant][3]} " in out.stderr, out.stderr[-300:]


@pytest.mark.parametrize("mutant", REFUSED)
def test_a_mutant_that_builds_an_invalid_value_exits_1_with_one_line(tmp_path, mutant):
    out = _scan(tmp_path, mutant)
    assert out.returncode == 1, (out.returncode, out.stderr[-300:])
    assert out.stderr.startswith("twistchar: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize("mutant", EQUIVALENT)
def test_an_equivalent_mutant_keeps_the_standing_records(tmp_path, mutant):
    records = tmp_path / "standing.jsonl"
    out = _scan(tmp_path, mutant, "--out", str(records))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(records.read_bytes()).hexdigest() == STANDING_DIGEST


@pytest.mark.parametrize("mutant", LATTICE_LEAF)
def test_a_mutant_of_the_lattice_leaf_fails_the_series_check(tmp_path, mutant):
    _copy(tmp_path, mutant)
    out = _run(tmp_path, "twistchar.cli", *SERIES)
    assert "Traceback" not in out.stderr, out.stderr
    assert out.returncode == 2, (out.returncode, out.stderr[-300:])
    assert "   <- MISMATCH" in out.stdout
    assert out.stderr == "series: z=0 t=3 N=26 MISMATCH\n"


@pytest.mark.parametrize("mutant", LATTICE_EQUIVALENT)
def test_an_equivalent_mutant_of_the_lattice_leaf_keeps_the_series_table(tmp_path, mutant):
    _copy(tmp_path, mutant)
    out = _run(tmp_path, "twistchar.cli", *SERIES)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == SERIES_DIGEST


@pytest.mark.parametrize("mutant", UNSEEN)
def test_a_mutant_the_scan_cannot_see_fails_its_tier1_tests(tmp_path, mutant):
    records = tmp_path / "standing.jsonl"
    out = _scan(tmp_path, mutant, "--out", str(records))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(records.read_bytes()).hexdigest() != STANDING_DIGEST
    nodes = UNSEEN[mutant][3]
    tests = _run(tmp_path, "pytest", "-q", "-p", "no:cacheprovider", *(str(TESTS / n) for n in nodes))
    # pytest names each failure by its path from the working directory.
    failed = re.findall(r"^FAILED \S*/(test_\w+\.py::\S+)", tests.stdout, re.M)
    assert sorted(failed) == sorted(nodes), tests.stdout[-2000:]
