"""Command-line interface: output shapes, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from twistchar import cli, factorization, partitions
from twistchar.factorization import TheoremId
from twistchar.partitions import partitions_up_to


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_literals():
    assert cli.parse_partition("") == ()
    assert cli.parse_partition(" 4,2,2,1 ") == (4, 2, 2, 1)
    for bad in ("1,2", "0", "x", "2,,1", "-1"):
        with pytest.raises(ValueError):
            cli.parse_partition(bad)


def test_classify_text_output(capsys):
    code, out, err = run(["classify", "3,2,1,1,1", "--t", "3", "--n", "2"], capsys)
    assert code == 0
    assert "core           (1,1)" in out
    assert "quotient       ((), (1), (1))" in out
    assert "frobenius      (2,0 | 4,0)" in out
    assert "residue counts (3, 1, 2)" in out
    assert "class          Symplectic" in out
    assert "rank           1" in out


def test_classify_json_output(capsys):
    code, out, err = run(
        ["classify", "4,2,2,1", "--t", "2", "--n", "2", "--json"], capsys
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["partition"] == [4, 2, 2, 1]
    assert rec["core"] == [2, 1]
    assert rec["quotient"] == [[2], [1]]
    assert rec["frobenius"] == {"arms": [3, 0], "legs": [3, 1]}
    assert rec["self_conjugate"] is True and rec["symplectic"] is False
    assert rec["single_row"] is None
    assert rec["rank"] == 1


def test_classify_empty_partition(capsys):
    code, out, _ = run(["classify", "", "--t", "2", "--n", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["partition"] == [] and rec["empty"] is True


@pytest.mark.parametrize(
    "la, c, labels",
    [
        ("", 0, "Empty, SingleRow(0), Symplectic, Orthogonal, SelfConjugate"),
        ("1", 1, "SingleRow(1), SelfConjugate"),
    ],
    ids=["empty-core", "core-1"],
)
def test_classify_reads_each_verdict_through_one_rule(la, c, labels, monkeypatch, capsys):
    # c = 0 and c = 1 compare equal to False and True, yet print as the
    # class of the point 1, not as a verdict that hides or a bare label.
    calls = []
    real = partitions.CoreClass.z_asymmetric

    def counted(self, z, ones=0):
        calls.append((z, ones))
        return real(self, z, ones)

    monkeypatch.setattr(partitions.CoreClass, "z_asymmetric", counted)
    rows = [(th.z, th.ones) for th in TheoremId]
    code, out, _ = run(["classify", la, "--t", "2", "--n", "1"], capsys)
    assert code == 0 and calls == rows
    assert f"class          {labels}\n" in out
    calls.clear()
    code, out, _ = run(["classify", la, "--t", "2", "--n", "1", "--json"], capsys)
    assert code == 0 and calls == rows
    assert f'"single_row":{c},' in out
    rec = json.loads(out)
    assert type(rec["single_row"]) is int and rec["empty"] is (la == "")


def test_classify_rejects_bad_arguments(capsys):
    assert run(["classify", "2,1", "--t", "1", "--n", "2"], capsys)[0] == 1
    assert run(["classify", "1,1,1", "--t", "3", "--n", "1"], capsys)[0] == 0
    assert run(["classify", "1,1,1,1", "--t", "3", "--n", "1"], capsys)[0] == 1
    assert run(["classify", "1,2", "--t", "2", "--n", "1"], capsys)[0] == 1
    assert run(["classify", "a", "--t", "2", "--n", "1"], capsys)[0] == 1
    assert run(["classify", "0", "--t", "2", "--n", "1"], capsys)[0] == 1


def test_classify_reads_one_short_abacus_whatever_n(monkeypatch, capsys):
    # The counts at padding tn are n plus the core's offsets, so classify
    # reads beta(la, m) at m = 6, the least multiple of t = 3 that fits la.
    argv = ["classify", "3,2,1,1,1", "--t", "3", "--json", "--n"]
    small = json.loads(run(argv + ["2"], capsys)[1])
    real = partitions.beta_set

    def short(la, m):
        assert m <= 6, f"classify read beta({la}, {m})"
        return real(la, m)

    monkeypatch.setattr(partitions, "beta_set", short)
    n = 10**9
    code, out, err = run(argv + [str(n)], capsys)
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["residue_counts"] == [n + 1, n - 1, n] == [c - 2 + n for c in small["residue_counts"]]
    assert {**rec, "n": 2, "residue_counts": small["residue_counts"]} == small
    code, out, _ = run(argv[:-2] + ["--n", str(n)], capsys)
    assert code == 0
    assert f"residue counts ({n + 1}, {n - 1}, {n})  (padding {3 * n})" in out


def test_classify_a_huge_first_part_answers_at_once(capsys):
    code, out, err = run(
        ["classify", "99999999999999999999,3,1", "--t", "3", "--n", "1", "--json"], capsys
    )
    assert code == 0 and err == ""
    assert out == (
        '{"partition":[99999999999999999999,3,1],"t":3,"n":1,"core":[2,1,1],'
        '"quotient":[[],[],[33333333333333333333]],'
        '"frobenius":{"arms":[99999999999999999998,1],"legs":[2,0]},'
        '"residue_counts":[0,2,1],"empty":false,"single_row":null,"symplectic":true,'
        '"orthogonal":false,"self_conjugate":false,"rank":1}\n'
    )


def test_a_huge_part_with_singular_support_verifies_at_once(capsys):
    # An odd part at t = 2 sits in the wrong residue class: the twisted
    # character is 0 before any h table is built.
    code, out, err = run(
        ["verify", "schurfac", "99999999999999999999", "--t", "2", "--n", "1", "--json"], capsys
    )
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["predicted_vanishing"] and rec["match"]
    assert rec["lhs"] == rec["rhs"] == ["0"]


def test_sizes_too_large_to_evaluate_exit_one(monkeypatch, capsys):
    # The h table of a live 20-digit part cannot be indexed: refused before
    # any allocation.
    code, out, err = run(["verify", "schurfac", "99999999999999999998", "--t", "2", "--n", "1"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("twistchar: too large to evaluate: OverflowError")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify", exhausted)
    code, out, err = run(["verify", "schurfac", "2", "--t", "2", "--n", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "twistchar: too large to evaluate: MemoryError()\n"


def test_lattice_walk_deeper_than_the_stack_exits_one(capsys):
    # The walk recurses once per movable class pair, about N/2 of them here.
    code, out, err = run(["series", "--z", "0", "--t", "2100", "--N", "2100"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("twistchar: too large to evaluate: RecursionError")


def test_lattice_walk_deeper_than_the_stack_leaves_out_file_alone(tmp_path, capsys):
    # The columns are computed before --out is opened, as verify's record is.
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    argv = ["series", "--z", "0", "--t", "2100", "--N", "2100", "--out", str(p)]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("twistchar: too large to evaluate: RecursionError")
    assert p.read_bytes() == b'{"kept":true}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["2,1", "--t", "1", "--n", "2"],
        ["2,1", "--t", "2", "--n", "0"],
        ["1,1,1,1", "--t", "3", "--n", "1"],
    ],
)
def test_classify_errors_give_one_message_line(argv, capsys):
    code, out, err = run(["classify"] + argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")


def test_classify_length_bound_is_the_library_check(capsys):
    # classify refuses through factorization's case check, at schurfac's
    # bound tn, which its residue counts read.
    code, out, err = run(["classify", "1,1,1,1", "--t", "3", "--n", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "twistchar: partition has 4 parts, bound for schurfac is 3\n"


def test_verify_text_output(capsys):
    code, out, _ = run(["verify", "schurfac", "2,1", "--t", "2", "--n", "1"], capsys)
    assert code == 0
    assert "vanishing      True" in out
    assert "match          True" in out


def test_verify_json_output(capsys):
    code, out, _ = run(
        ["verify", "sympfact", "3,2,1,1,1", "--t", "3", "--n", "2", "--json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["match"] is True and rec["predicted_vanishing"] is False
    assert rec["theorem"] == "sympfact" and rec["partition"] == [3, 2, 1, 1, 1]
    assert rec["sigma_sign"] == -1 and rec["sign_exponent"] == 1


def test_verify_writes_a_value_past_the_int_str_digit_limit(capsys):
    # s_(3000) at t = 3000 has a value of more than 4300 digits, CPython's
    # default limit for int -> str.
    code, out, _ = run(["verify", "schurfac", "3000", "--t", "3000", "--n", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["match"] is True and rec["lhs"] == rec["rhs"]
    assert len(rec["lhs"][0]) > 4300


def test_verify_is_deterministic(capsys):
    argv = [
        "verify", "oorthfact", "2,2", "--t", "3", "--n", "1", "--json",
        "--seed", "4",
    ]
    assert run(argv, capsys) == run(argv, capsys)


def test_verify_rejects_unknown_theorem(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nope", "2,1", "--t", "2", "--n", "1"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "2,1", "--t", "2"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_scan_text_and_summary(capsys):
    code, out, err = run(
        ["scan", "--theorems", "schurfac", "--t", "2", "--n", "1", "--max-size", "3"],
        capsys,
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 6
    assert all(ln.startswith(("ok", "vanish")) for ln in lines)
    assert "scan: cases=6 match=6 mismatch=0 vanish_confirmed=3" in err


def test_scan_json_records(capsys):
    code, out, err = run(
        [
            "scan", "--theorems", "schurfac,schur1", "--t", "2", "--n", "1",
            "--max-size", "2", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    recs = [json.loads(ln) for ln in out.splitlines() if ln]
    assert len(recs) == 8
    assert all(r["match"] for r in recs)
    assert {r["theorem"] for r in recs} == {"schurfac", "schur1"}
    for key in ("partition", "t", "n", "seed", "lhs", "rhs"):
        assert key in recs[0]


def test_scan_output_file_is_stable(tmp_path, capsys):
    base = [
        "scan", "--theorems", "sympfact", "--t", "2,3", "--n", "1",
        "--max-size", "3", "--seeds", "0,1",
    ]
    p1, p2, p3 = (tmp_path / f"r{i}.jsonl" for i in range(3))
    assert cli.main(base + ["--out", str(p1)]) == 0
    capsys.readouterr()
    assert cli.main(base + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert cli.main(base + ["--jobs", "2", "--out", str(p3)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    recs = [json.loads(ln) for ln in p1.read_text().splitlines()]
    assert len(recs) == 26
    assert all(r["match"] for r in recs)


def _sublist(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=len(values), unique=True)


@given(
    theorems=_sublist([th.value for th in TheoremId]),
    ts=_sublist([2, 3, 4, 5]),
    ns=_sublist([1, 2]),
    max_size=st.integers(0, 4),
    seeds=_sublist([0, 1, 636]),
)
@settings(max_examples=10, deadline=None)
def test_scan_bytes_do_not_depend_on_jobs(theorems, ts, ns, max_size, seeds):
    argv = [
        "scan", "--theorems", ",".join(theorems), "--t", ",".join(map(str, ts)),
        "--n", ",".join(map(str, ns)), "--max-size", str(max_size),
        "--seeds", ",".join(map(str, seeds)), "--format", "json",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for jobs in ("1", "2"):
            out = Path(tmp) / f"jobs{jobs}.jsonl"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert cli.main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
    assert outs[0] == outs[1] and outs[0]


def test_standing_grid_records_are_byte_identical(tmp_path, capsys):
    # The --out bytes of the standing grid are a fixed contract: the
    # record format must not drift when the evaluation route changes.
    p = tmp_path / "standing.jsonl"
    argv = [
        "scan", "--theorems", "all", "--t", "2,3,4", "--n", "1,2",
        "--max-size", "7", "--seeds", "0", "--out", str(p),
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "b86909f20e2aece49e8e0701b92265815ffed5debfb49c9ead2d62e786c10cb2"
    )


def test_wide_grid_records_are_byte_identical(tmp_path, capsys):
    # The standing grid stops at t = 4; this pin holds the records of the
    # theorems at t = 5..8, where the class pairings have several pairs.
    p = tmp_path / "wide.jsonl"
    argv = [
        "scan", "--theorems", "all", "--t", "5,6,7,8", "--n", "1,2",
        "--max-size", "8", "--seeds", "0", "--out", str(p),
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(p.read_bytes().splitlines()) == 2632
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "eb9431a814dc159d9a336afe4832a6b1a11db234ad879aac420a9b49abe80fd7"
    )


def test_multi_n_grid_records_are_byte_identical(tmp_path, capsys):
    # The other pins stop at n = 2, one step past the least n of most
    # cases; here sigma_sign is carried two and three steps as well.
    p = tmp_path / "multi_n.jsonl"
    argv = [
        "scan", "--theorems", "all", "--t", "2,3,4,5", "--n", "1,2,3,4",
        "--max-size", "8", "--seeds", "0", "--out", str(p),
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(p.read_bytes().splitlines()) == 4865
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "633bf6ac214c32d802237da5149cd27920220fe47334025b345d43a9aca60566"
    )


def output_digest(argvs, capsys):
    h = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(argv, capsys)
        h.update(f"{argv}\n{code}\n{out}{err}".encode())
    return h.hexdigest()


def test_classify_and_series_output_is_byte_identical(capsys):
    # Like the standing scan grid, the text and JSON of classify and the
    # series table are a fixed contract across changes to their routes.
    classify = [
        ["classify", ",".join(map(str, la)), "--t", str(t), "--n", str(n)] + extra
        for t, n in [(2, 1), (2, 3), (3, 2), (4, 1), (5, 2), (7, 1)]
        for la in partitions_up_to(7, max_length=t * n)
        for extra in ([], ["--json"])
    ]
    series = [
        ["series", "--z", str(z), "--t", str(t), "--N", "16"]
        for z in (-1, 0, 1, 2)
        for t in (2, 3, 5, 8)
        if (z, t) not in ((2, 2), (2, 3))
    ]
    assert output_digest(classify, capsys) == (
        "778362d8d9761b5531e54c5399812a894512057272fcac9b44924c105f2a0611"
    )
    assert output_digest(series, capsys) == (
        "d7acfb2cd9115710cab6b634755911c47a3adb5d7ec7b8f43d2e8b8568ad9205"
    )
    # z = 2 >= t-1: no class pair, so the empty core alone, and no product.
    for t in (2, 3):
        code, out, _ = run(["series", "--z", "2", "--t", str(t), "--N", "16"], capsys)
        assert code == 0
        assert out.splitlines()[1].split() == ["0", "1", "-", "1"]


def test_series_census_output_is_byte_identical(tmp_path, capsys):
    # The whole census CI runs, at a smaller N: every -t-1 <= z <= t+1 for
    # 2 <= t <= 8, each table with its exit code and stderr line, and each
    # table's --out records, whose "product" is null for z outside 0..t-2.
    census = [
        ["series", "--z", str(z), "--t", str(t), "--N", "30"]
        for t in range(2, 9)
        for z in range(-t - 1, t + 2)
    ]
    assert output_digest(census, capsys) == (
        "1f357e253d3e6ac09a7246ea294004ce22e85677950ce726693fff5ff4896296"
    )
    p, records = tmp_path / "series.jsonl", hashlib.sha256()
    for argv in census:
        assert run(argv + ["--out", str(p)], capsys)[0] == 0
        records.update(p.read_bytes())
    assert records.hexdigest() == (
        "8e0472c60039788716dc43f12c5a5ba512d2d27d5df981f5a13c6406c223dabd"
    )


_OUT_ARGV = {
    "scan": ["scan", "--t", "2", "--n", "1", "--max-size", "1"],
    "verify": ["verify", "schurfac", "2", "--t", "2", "--n", "1"],
    "series": ["series", "--z", "1", "--t", "3", "--N", "8"],
}


@pytest.mark.parametrize(
    "argv,empty",
    [(argv, False) for argv in _OUT_ARGV.values()]
    + [(argv, True) for argv in _OUT_ARGV.values()],
    ids=list(_OUT_ARGV) + [f"{name}-empty" for name in _OUT_ARGV],
)
def test_unwritable_out_fails_before_any_work(monkeypatch, capsys, tmp_path, argv, empty):
    # A path in a missing directory, or an empty path: neither names a file
    # that can be opened, and the empty one must not read as "no --out".
    def never(item):
        raise AssertionError("a case ran before --out was opened")

    monkeypatch.setattr(cli, "_scan_case", never)
    target = "" if empty else str(tmp_path / "missing" / "x")
    code, out, err = run(argv + ["--out", target], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("twistchar: ")
    assert repr(target) in err and "Traceback" not in err


def test_failed_verify_leaves_out_file_alone(tmp_path, capsys):
    # Three parts exceed tn = 2, which verify only finds inside the case.
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    code, _, err = run(
        ["verify", "schurfac", "1,1,1", "--t", "2", "--n", "1", "--out", str(p)], capsys
    )
    assert code == 1 and err.startswith("twistchar: ")
    assert p.read_bytes() == b'{"kept":true}\n'


def test_failed_scan_keeps_the_records_before_the_failure(monkeypatch, tmp_path, capsys):
    argv = ["scan", "--theorems", "schurfac", "--t", "2", "--n", "1", "--max-size", "3",
            "--jobs", "1", "--out"]
    clean = tmp_path / "clean.jsonl"
    assert cli.main(argv + [str(clean)]) == 0
    capsys.readouterr()

    real, calls = cli._scan_case, []

    def third_fails(item):
        # The third case's point draw runs out of tries.
        calls.append(item)
        if len(calls) == 3:
            raise ValueError("could not draw n=1 distinct points in 200 tries for seed=0")
        return real(item)

    monkeypatch.setattr(cli, "_scan_case", third_fails)
    cut = tmp_path / "cut.jsonl"
    code, _, err = run(argv + [str(cut)], capsys)
    assert code == 1 and err.count("\n") == 1 and err.startswith("twistchar: could not draw")
    assert cut.read_text().splitlines() == clean.read_text().splitlines()[:2]


def test_scan_rejects_bad_lists(capsys):
    # Each refusal is one line naming its flag, or the library's t or n.
    bad = [
        (["scan", "--theorems", "bogus", "--t", "2", "--n", "1", "--max-size", "2"], "--theorems"),
        (["scan", "--t", "2,x", "--n", "1", "--max-size", "2"], "--t"),
        (["scan", "--t", "1", "--n", "1", "--max-size", "2"], "t=1"),
        (["scan", "--t", "2", "--n", "0", "--max-size", "2"], "n=0"),
        (["scan", "--t", "2", "--n", "1", "--max-size", "-1"], "--max-size"),
        (["scan", "--theorems", "", "--t", "2", "--n", "1", "--max-size", "2"], "--theorems"),
        (["scan", "--theorems", " , ", "--t", "2", "--n", "1", "--max-size", "2"], "--theorems"),
        (["scan", "--t", "2", "--n", "1", "--max-size", "2", "--seeds", ","], "--seeds"),
        (["scan", "--t", "2", "--n", "", "--max-size", "2"], "--n"),
    ]
    for argv, named in bad:
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("twistchar: "), argv
        assert named in err, argv


@pytest.mark.parametrize("names, bad", [("bogus,schurfac", "bogus"), ("all,schurfac", "all")])
def test_scan_names_an_unknown_theorem(names, bad, capsys):
    # "all" is a name only on its own.
    argv = ["scan", "--theorems", names, "--t", "2", "--n", "1", "--max-size", "2"]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")
    assert repr(bad) in err


def test_scan_mismatch_exit_code(monkeypatch, capsys):
    def fake(item):
        th, la, t, n, seed = item
        return {
            "theorem": th, "partition": list(la), "t": t, "n": n,
            "seed": seed, "trials": 1, "predicted_vanishing": False,
            "sign_exponent": 0, "sigma_sign": 1, "lhs": ["1"], "rhs": ["2"],
            "match": False,
        }

    monkeypatch.setattr(cli, "_scan_case", fake)
    code, out, err = run(
        ["scan", "--theorems", "schurfac", "--t", "2", "--n", "1", "--max-size", "1"],
        capsys,
    )
    assert code == 2
    assert "MISMATCH" in out
    assert "mismatch=2" in err


def test_verify_sampling_failure_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ValueError("could not draw n=1 distinct points in 200 tries for seed=0")

    monkeypatch.setattr(cli, "verify", boom)
    code, out, err = run(["verify", "schurfac", "2", "--t", "2", "--n", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "twistchar: could not draw n=1 distinct points in 200 tries for seed=0\n"


class _Constant:
    """Stands in for random.Random: every draw repeats its value."""

    def __init__(self, seed):
        pass

    def randint(self, low, high):
        return low


def test_sampling_exhaustion_exits_one(monkeypatch, capsys):
    # No real n exhausts the draw any more, so every draw repeats its value
    # here: the sampler redraws 200 times and gives up.
    monkeypatch.setattr(factorization, "random", SimpleNamespace(Random=_Constant))
    # verify reads the points' integer pairs, kept per (n, seed).
    factorization._seed_pairs.cache_clear()
    argv = ["verify", "schurfac", "1", "--t", "2", "--n", "2", "--seed", "1"]
    code, out, err = run(argv, capsys)
    factorization._seed_pairs.cache_clear()
    # A refusal like any other, naming n and the seed as given, not the
    # strided seed 1000003 of its point stream.
    assert code == 1 and out == ""
    assert err == "twistchar: could not draw n=2 distinct points in 200 tries for seed=1\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_refused_draw_leaves_scan_out_alone(monkeypatch, tmp_path, capsys, jobs):
    # The seed's points are drawn before --out is opened, so a draw that
    # runs out of tries is refused before the file is touched.
    monkeypatch.setattr(factorization, "random", SimpleNamespace(Random=_Constant))
    factorization._seed_pairs.cache_clear()
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    argv = ["scan", "--theorems", "schurfac", "--t", "2", "--n", "2", "--max-size", "2",
            "--seeds", "1", "--jobs", jobs, "--out", str(p)]
    code, out, err = run(argv, capsys)
    factorization._seed_pairs.cache_clear()
    assert code == 1 and out == ""
    assert err == "twistchar: could not draw n=2 distinct points in 200 tries for seed=1\n"
    assert p.read_bytes() == b'{"kept":true}\n'


def test_verify_draws_many_distinct_points(capsys):
    # The numerators reach max(80, n^2/5), so n = 60 finds 60 distinct
    # points, and seed 2 finds 3000 (with numerators up to 4n it ran out of
    # draws).
    for n, seed in [("60", "0"), ("3000", "2")]:
        code, out, err = run(["verify", "schurfac", "1", "--t", "2", "--n", n, "--seed", seed], capsys)
        assert code == 0 and err == ""
        assert "match          True" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "schurfac", "2", "--t", "2", "--n", "1", "--seed", "-1"],
        ["verify", "sympfact", "3,2,1,1,1", "--t", "3", "--n", "2", "--seed", "-5", "--json"],
        ["scan", "--t", "2", "--n", "1", "--max-size", "2", "--seeds=-1"],
        ["scan", "--t", "2", "--n", "1", "--max-size", "2", "--seeds=-1", "--jobs", "2"],
    ],
)
def test_non_injective_seeds_exit_one_with_a_message(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")


@pytest.mark.parametrize("bad", [["--seeds", "0,-1"], ["--trials", "2"]])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bad_seeds_and_trials_leave_scan_out_alone(tmp_path, capsys, jobs, bad):
    # Seed 0 alone would write records; the bad entry must stop the scan
    # first.  --trials is no flag: it is a usage error before any work.
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    argv = ["scan", "--theorems", "schurfac", "--t", "2", "--n", "1", "--max-size", "3",
            "--jobs", jobs, "--out", str(p)] + bad
    if bad[0] == "--trials":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""
    else:
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")
    assert p.read_bytes() == b'{"kept":true}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "schurfac", "2", "--t", "2", "--n", "1", "--trials", "2"],
        ["scan", "--t", "2", "--n", "1", "--max-size", "2", "--trials", "2"],
    ],
    ids=["verify", "scan"],
)
def test_trials_is_a_usage_error(argv, capsys, monkeypatch):
    # k point tuples for one case are k seeds, not one flag.  The error is
    # the subcommand's, with its own usage; a wide terminal keeps that
    # usage on one line.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: twistchar {argv[0]} [-h]") and "--seed" in usage
    assert error == f"twistchar {argv[0]}: error: unrecognized arguments: --trials 2"


def test_an_unknown_flag_before_the_command_is_the_top_levels(capsys, monkeypatch):
    # Only a leading subcommand goes straight to its own parser; here the
    # top-level parser meets --x first and names every unknown argument.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--x", "series", "--z", "1", "--t", "3", "--N", "5", "--trials", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: twistchar [-h] {classify,verify,scan,series}")
    assert error == "twistchar: error: unrecognized arguments: --x --trials 2"


def _spy_parses(monkeypatch):
    """Every parse_known_args call on a cli parser, as (prog, namespace);
    the namespace is None when the parse exits."""
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        call = [self.prog, None]
        calls.append(call)
        got = real(self, args, namespace)
        call[1] = got[0]
        return got

    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    return calls


_VALID_ARGV = [
    ["classify", "3,2,1,1,1", "--t", "3", "--n", "2"],
    ["classify", "", "--json", "--n=1", "--t", "2"],
    ["verify", "sympfact", "3,2,1,1,1", "--t", "3", "--n", "2"],
    ["verify", "schurfac", "2,1", "--n", "1", "--t=3", "--seed", "4", "--json", "--out", "OUT"],
    ["scan", "--t", "2", "--n", "1", "--max-size", "2"],
    ["scan", "--theorems", "schurfac", "--t=2,3", "--n", "1", "--max-size", "3",
     "--seeds", "0,1", "--format", "json", "--jobs", "1", "--out", "OUT"],
    ["series", "--z", "0", "--t", "3", "--N", "26"],
    ["series", "--N=8", "--t", "4", "--z", "-1", "--out", "OUT"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=lambda argv: "-".join(argv[:2]))
@pytest.mark.parametrize("from_sys", [False, True], ids=["argv", "sys.argv"])
def test_a_leading_command_is_parsed_once_by_its_own_parser(
    argv, from_sys, tmp_path, capsys, monkeypatch
):
    # The nested parse, top level then subparser, is the oracle: the direct
    # parse gives its Namespace without `command`, and the top-level parser
    # is never called.  main() with no argv reads sys.argv[1:].
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    nested = vars(cli.build_parser()[0].parse_args(argv))
    assert nested.pop("command") == argv[0]
    calls = _spy_parses(monkeypatch)
    if from_sys:
        monkeypatch.setattr(sys, "argv", ["twistchar", *argv])
        assert cli.main() == 0
    else:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert [prog for prog, _ in calls] == [f"twistchar {argv[0]}"]
    assert vars(calls[0][1]) == nested


@pytest.mark.parametrize(
    "argv, code", [([], 1), (["-h"], 0), (["bogus"], 1), (["--json"], 1)]
)
def test_anything_else_goes_to_the_top_level_parser(argv, code, capsys, monkeypatch):
    calls = _spy_parses(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert calls[0][0] == "twistchar"
    assert (out if code == 0 else err).startswith("usage: twistchar [-h]")


@pytest.mark.parametrize(
    "repeat",
    [["--seeds", "0,0"], ["--t", "2,3,2"], ["--n", "1,1"], ["--theorems", "schurfac,schurfac"]],
    ids=["seeds", "t", "n", "theorems"],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_repeated_list_entries_leave_scan_out_alone(tmp_path, capsys, jobs, repeat):
    # A repeated entry would check the same cases at the same points twice.
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    argv = ["scan", "--theorems", "schurfac", "--t", "2", "--n", "1", "--max-size", "1",
            "--jobs", jobs, "--out", str(p)] + repeat
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")
    assert repeat[0] in err
    assert p.read_bytes() == b'{"kept":true}\n'


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bad_jobs_exit_one_with_a_message(tmp_path, capsys, jobs):
    # Refused in cmd_scan beside --max-size, before --out is opened.
    p = tmp_path / "old.jsonl"
    p.write_bytes(b'{"kept":true}\n')
    argv = ["scan", "--t", "2", "--n", "1", "--max-size", "1", "--jobs", jobs, "--out", str(p)]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("twistchar: ")
    assert "--jobs" in err and jobs in err
    assert p.read_bytes() == b'{"kept":true}\n'


def test_a_jobs_flag_that_is_no_int_is_refused_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--t", "2", "--n", "1", "--max-size", "1", "--jobs", "abc"])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "twistchar scan: error: argument --jobs: invalid int value: 'abc'"


def test_an_interrupted_serial_scan_ends_in_one_line(monkeypatch, tmp_path, capsys):
    argv = ["scan", "--t", "2,3", "--n", "1", "--max-size", "3", "--out"]
    whole, cut = tmp_path / "whole.jsonl", tmp_path / "cut.jsonl"
    assert run(argv + [str(whole)], capsys)[0] == 0
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return factorization.verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify", interrupted)
    code, _, err = run(argv + [str(cut)], capsys)
    assert code == 130
    assert err == "twistchar: interrupted\n"
    assert cut.read_bytes().splitlines(keepends=True) == (
        whole.read_bytes().splitlines(keepends=True)[:2]
    )


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "cores, jobs, workers",
    [(4, "100000", 4), (4, "3", 3), (2, "2", 2), (1, "8", None), (None, "8", None)],
)
def test_scan_workers_never_exceed_the_cores(monkeypatch, tmp_path, capsys, cores, jobs, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    argv = ["scan", "--t", "2,3", "--n", "1", "--max-size", "3", "--seeds", "0,1", "--out"]
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    assert cli.main(argv + [str(serial)]) == 0
    assert cli.main(argv + [str(pooled), "--jobs", jobs]) == 0
    capsys.readouterr()
    # One worker runs serially and never builds a pool.
    assert _SerialPool.sizes == ([] if workers is None else [workers])
    assert pooled.read_bytes() == serial.read_bytes()


def test_one_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(["series", "--z", "1", "--t", "3", "--N", "8"], capsys)[0] == 0
    code, _, err = run(["scan", "--t", "2", "--n", "1", "--max-size", "2"], capsys)
    assert code == 0 and "mismatch=0" in err


def test_series_table(capsys):
    code, out, err = run(["series", "--z", "1", "--t", "3", "--N", "14"], capsys)
    assert code == 0
    assert "series: z=1 t=3 N=14 ok" in err
    rows = out.splitlines()
    assert rows[0].split() == ["m", "enum", "product", "lattice"]
    assert rows[1].split() == ["0", "1", "1", "1"]
    assert rows[3].split() == ["2", "1", "1", "1"]
    assert rows[11].split() == ["10", "1", "1", "1"]
    assert "MISMATCH" not in out


def test_series_builds_the_enum_column_without_listing_partitions(monkeypatch, capsys):
    argv = ["series", "--z", "1", "--t", "3", "--N", "14"]
    want = run(argv, capsys)

    def never(*args, **kwargs):
        raise AssertionError("series walked every partition")

    monkeypatch.setattr(cli, "partitions_up_to", never)
    assert run(argv, capsys) == want
    assert want[0] == 0


def test_series_without_product_route(capsys):
    code, out, err = run(["series", "--z", "-1", "--t", "3", "--N", "8"], capsys)
    assert code == 0
    assert out.splitlines()[1].split()[2] == "-"


def test_series_out_records(tmp_path, capsys):
    p = tmp_path / "series.jsonl"
    code, _, _ = run(
        ["series", "--z", "0", "--t", "3", "--N", "8", "--out", str(p)], capsys
    )
    assert code == 0
    recs = [json.loads(ln) for ln in p.read_text().splitlines()]
    assert len(recs) == 9
    assert all(r["match"] for r in recs)
    assert recs[5]["enum"] == 1 and recs[2]["enum"] == 0


def _bump_at_5(got):
    return tuple(c + (m == 5) for m, c in enumerate(got))


@pytest.mark.parametrize(
    "column, target, wrap",
    [
        ("enum", "enum_z_asymmetric_cores", _bump_at_5),
        ("product", "gf_z_cores", _bump_at_5),
        ("lattice", "z_core_sizes", _bump_at_5),
    ],
)
def test_series_reports_a_mismatch_on_its_row(monkeypatch, tmp_path, capsys, column, target, wrap):
    # One column off by one at m = 5; only that row and its record may
    # disagree.
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args: wrap(real(*args)))
    p = tmp_path / "series.jsonl"
    code, out, err = run(["series", "--z", "0", "--t", "3", "--N", "8", "--out", str(p)], capsys)
    assert code == 2
    rows = out.splitlines()
    assert [row.split()[0] for row in rows if "MISMATCH" in row] == ["5"]
    assert rows[6].endswith(" <- MISMATCH")
    assert "series: z=0 t=3 N=8 MISMATCH" in err
    recs = [json.loads(ln) for ln in p.read_text().splitlines()]
    assert [r["m"] for r in recs if not r["match"]] == [5]
    others = {recs[5][c] for c in ("enum", "product", "lattice") if c != column}
    assert others == {1} and recs[5][column] == 2


def test_series_rejects_unreachable_family(capsys):
    # Every z has a lattice column; only t < 2 and N < 0 are rejected.
    for t, sizes in [(3, ["0"]), (4, ["0", "3", "5"])]:
        code, out, err = run(["series", "--z", "-2", "--t", str(t), "--N", "12"], capsys)
        assert code == 0 and "ok" in err
        rows = [row.split() for row in out.splitlines()[1:]]
        assert all(row[1] == row[3] and row[2] == "-" for row in rows)
        assert [row[0] for row in rows if row[1] != "0"] == sizes
    assert run(["series", "--z", "0", "--t", "1", "--N", "5"], capsys)[0] == 1
    # The first column computed refuses N < 0, in the other columns' words.
    code, out, err = run(["series", "--z", "1", "--t", "3", "--N", "-1"], capsys)
    assert (code, out, err) == (1, "", "twistchar: order must be nonnegative, got -1\n")
