"""The record types: immutable value objects, cheap to import.

The paper's objects are NamedTuples (SeriesZ, an arithmetic type, is a
slotted class), so importing the CLI builds no dataclass machinery.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from twistchar.cyclotomic import field
from twistchar.factorization import TheoremId, predict, verify
from twistchar.partitions import abacus, classify_core, frobenius
from twistchar.series import SeriesZ, gf_z_asymmetric

SRC = Path(__file__).resolve().parent.parent / "src"

# Each record type with an instance and its fields, named here so that the
# contract does not lean on the type's own introspection API.
RECORDS = {
    "FrobeniusCoords": (lambda: frobenius((4, 2, 2, 1)), ("alpha", "beta")),
    "Abacus": (lambda: abacus((3, 2, 1, 1, 1), 3, 6), ("beta", "runners")),
    "CoreClass": (lambda: classify_core((3, 2, 1, 1, 1), 3, 2), ("offsets",)),
    "Prediction": (
        lambda: predict(TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2),
        ("t", "n", "epsilon", "sigma", "sign", "factors"),
    ),
    "VerificationReport": (
        lambda: verify(TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2),
        (
            "theorem", "partition", "t", "n", "predicted_vanishing", "lhs", "rhs",
            "sign_exponent", "sigma_sign", "match", "seed",
        ),
    ),
    "CycloField": (lambda: field(5), ("t", "phi")),
    "SeriesZ": (lambda: gf_z_asymmetric(1, 12), ("coeffs",)),
}


def _record(name):
    make, names = RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    return rec, {f: getattr(rec, f) for f in names}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every command would pay for them at start-up: dataclasses imports
    # inspect, ast and dis, about 10 ms in all.
    code = (
        "import sys; import twistchar.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_cli_import_loads_cyclotomic_but_the_package_exports_none_of_it():
    # No runtime path computes in Q(w), but the benchmark harness reads
    # twistchar.cyclotomic from sys.modules once the CLI is imported.
    code = (
        "import sys; import twistchar.cli; from twistchar import characters; "
        "print('twistchar.cyclotomic' in sys.modules); "
        "print(' '.join(n for n in ('CycloElem', 'CycloField', 'cyclotomic_poly', 'field', "
        "'omega_pow') if hasattr(twistchar, n) or n in twistchar.__all__)); "
        "print(' '.join(n for n in ('_entry_matrix', 'CycloElem', 'cyclotomic') "
        "if hasattr(characters, n)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n") == ["True", "", "", ""]


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    rec, fields = _record(name)
    for field_name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, field_name, value)
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    rec, fields = _record(name)
    twin = type(rec)(**fields)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    assert pickle.loads(pickle.dumps(rec)) == rec
    first = next(iter(fields))
    other = type(rec)(**{**fields, first: None})
    assert other != rec


def test_series_is_not_a_tuple():
    s = SeriesZ((1, 2, 3))
    assert not isinstance(s, tuple)
    assert s != (1, 2, 3) and s != SeriesZ((1, 2))
    with pytest.raises(TypeError):
        s + s
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(TypeError):
        3 * s
    assert repr(s) == "SeriesZ(coeffs=(1, 2, 3))"
