"""Command-line front end: classify, verify, scan, series.

Exit codes: 0 success, 2 mismatch, 1 refused with one stderr line: a usage
or validation error, no n distinct points for the seed, or a case too
large to evaluate (OverflowError, MemoryError or RecursionError).  Ctrl-C
exits 130 with one stderr line, and a serial scan's --out ends on its last
whole record; a `scan --jobs N` pool is not stopped cleanly, as
Executor.map has already submitted the whole grid.  Machine output is
line-delimited JSON, byte-identical for the same flags and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import product

from .factorization import TheoremId, _check_case, _seed_pairs, length_bound, verify
from .partitions import as_partition, frobenius, partitions_up_to, reading, size
from .series import enum_z_asymmetric_cores, gf_z_cores, z_core_sizes

# Records may pass CPython's 4300-digit int -> str limit; lifted on import, in scan workers too.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; reserve 2 for math mismatches.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition literal {text!r}")
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    return as_partition(parts)


def _grid(text: str, flag: str, entry=int) -> list:
    """One of scan's comma-separated lists, each entry read by `entry`.
    Every entry must parse, so a blank one is refused, and none may repeat:
    it would check the same cases at the same points twice."""
    try:
        entries = [entry(x.strip()) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if len(set(entries)) < len(entries):
        raise ValueError(f"{flag}: repeated entry in {text!r}")
    return entries


def _partition_str(la: tuple[int, ...]) -> str:
    return "(" + ",".join(str(p) for p in la) + ")"


def _open_out(path: str | None):
    """The --out file, opened once every refusable step is done, so that
    a refused command leaves an existing file as it was."""
    return contextlib.nullcontext() if path is None else open(path, "w")


def _emit(records, fh) -> None:
    if fh is not None:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def cmd_classify(args) -> int:
    t, n = args.t, args.n
    # schurfac's bound is tn, the padding that the residue counts read.
    la = _check_case(TheoremId.SCHUR_FAC, parse_partition(args.partition), t, n)
    # The quotient is the same at every padding that is a multiple of t, and
    # the counts at tn are n plus the offsets: the shared reading serves.
    _, cls, quo, _ = reading(la, t)
    fro = frobenius(la)
    counts = tuple(n + o for o in cls.offsets)
    # One verdict per theorem row, read through the rule: whether the core
    # leaves the row's character alive, and for the appended-one row the
    # class c of the point 1 instead, None when it vanishes.
    verdicts = []
    for th in TheoremId:
        live = cls.z_asymmetric(th.z, th.ones)
        if th.ones:
            live = cls.excess(th.ones).index(1) if live else None
        verdicts.append((th, live))
    if args.json:
        rec = {
            "partition": list(la),
            "t": t,
            "n": n,
            "core": list(cls.core),
            "quotient": [list(q) for q in quo],
            "frobenius": {"arms": list(fro.alpha), "legs": list(fro.beta)},
            "residue_counts": list(counts),
            **{th.key: live for th, live in verdicts},
            "rank": cls.rank,
        }
        print(json.dumps(rec, separators=(",", ":")))
        return 0
    # c is an int, and c = 0 or 1 compares equal to False or True.
    flags = [
        th.label if live is True else f"{th.label}({live})"
        for th, live in verdicts
        if live is not None and live is not False
    ]
    print(f"partition      {_partition_str(la)}  size {size(la)}")
    print(f"t, n           {t}, {n}")
    print(f"core           {_partition_str(cls.core)}")
    print(f"quotient       ({', '.join(_partition_str(q) for q in quo)})")
    print(f"frobenius      ({','.join(map(str, fro.alpha))} | {','.join(map(str, fro.beta))})")
    print(f"residue counts {counts}  (padding {t * n})")
    print(f"class          {', '.join(flags) if flags else '(none)'}")
    print(f"rank           {cls.rank}")
    return 0


def cmd_verify(args) -> int:
    la = parse_partition(args.partition)
    th = TheoremId(args.theorem)
    # The record is computed before --out is opened, so a case that fails
    # validation leaves an existing file as it was.
    rec = verify(th, la, args.t, args.n, seed=args.seed).as_dict()
    with _open_out(args.out) as fh:
        _emit([rec], fh)
    if args.json:
        print(json.dumps(rec, separators=(",", ":")))
    else:
        print(f"theorem        {th.value}")
        print(f"partition      {_partition_str(la)}  t={args.t}  n={args.n}")
        print(f"seed           {args.seed}")
        print(f"vanishing      {rec['predicted_vanishing']}")
        print(f"sign exponent  {rec['sign_exponent']}  sigma {rec['sigma_sign']}")
        print(f"lhs            {rec['lhs']}")
        print(f"rhs            {rec['rhs']}")
        print(f"match          {rec['match']}")
    return 0 if rec["match"] else 2


def _scan_case(item) -> dict:
    th, la, t, n, seed = item
    return verify(th, la, t, n, seed=seed).as_dict()


def _scan_items(theorems, ts, ns, max_size, seeds):
    for th in theorems:
        for t in ts:
            for n in ns:
                las = list(partitions_up_to(max_size, max_length=length_bound(th, t, n)))
                for seed in seeds:
                    for la in las:
                        yield (th, la, t, n, seed)


def cmd_scan(args) -> int:
    # "all" is a name only on its own; TheoremId names an unknown one.
    if args.theorems.strip() == "all":
        theorems = list(TheoremId)
    else:
        theorems = _grid(args.theorems, "--theorems", TheoremId)
    ts, ns, seeds = _grid(args.t, "--t"), _grid(args.n, "--n"), _grid(args.seeds, "--seeds")
    if args.max_size < 0:
        raise ValueError(f"need --max-size >= 0, got {args.max_size}")
    if args.jobs < 1:
        raise ValueError(f"need --jobs >= 1, got {args.jobs}")
    # The library checks each t, n and seed before --out is opened: the
    # case's range once per (theorem, t, n), and the seed where its points
    # are drawn, once per (n, seed).  Fork workers inherit the drawn pairs.
    for th, t, n in product(theorems, ts, ns):
        _check_case(th, (), t, n)
    for n, seed in product(ns, seeds):
        _seed_pairs(n, seed)

    items = _scan_items(theorems, ts, ns, args.max_size, seeds)
    cases = matches = vanishes = 0
    # Records arrive in grid order and each is written as it arrives, so a
    # scan that stops early keeps every record before the failing case.
    # Workers past the cores only wait, and a fork pool starts all of them
    # at once; with one core the scan runs serially.
    jobs = min(args.jobs, os.cpu_count() or 1)
    serial = jobs == 1
    if not serial:
        # Imported here, as the only use: concurrent.futures loads
        # multiprocessing and subprocess, about 40% of the CLI's import.
        from concurrent.futures import ProcessPoolExecutor
    with _open_out(args.out) as fh, (
        contextlib.nullcontext() if serial else ProcessPoolExecutor(max_workers=jobs)
    ) as pool:
        records = map(_scan_case, items) if serial else pool.map(_scan_case, items, chunksize=16)
        for rec in records:
            # A text scan with no --out writes no JSON, so it builds none.
            if fh is not None or args.format == "json":
                line = json.dumps(rec, separators=(",", ":"))
            if fh is not None:
                fh.write(line + "\n")
            if args.format == "json":
                print(line)
            else:
                status = (
                    "MISMATCH" if not rec["match"]
                    else "vanish" if rec["predicted_vanishing"] else "ok"
                )
                print(
                    f"{status:8s} {rec['theorem']:9s} t={rec['t']} n={rec['n']} "
                    f"seed={rec['seed']} la={_partition_str(tuple(rec['partition']))}"
                )
            cases += 1
            matches += rec["match"]
            vanishes += rec["match"] and rec["predicted_vanishing"]
    print(
        f"scan: cases={cases} match={matches} "
        f"mismatch={cases - matches} vanish_confirmed={vanishes}",
        file=sys.stderr,
    )
    return 2 if matches < cases else 0


def cmd_series(args) -> int:
    z, t, order = args.z, args.t, args.N
    # The columns are computed before --out is opened, as verify's record
    # is: z_core_sizes refuses N < 0 and t < 2 first, and a lattice walk
    # deeper than the stack leaves an existing file as it was.
    lattice = z_core_sizes(z, t, order)
    enumerated = enum_z_asymmetric_cores(z, t, order)
    try:
        product = gf_z_cores(z, t, order)
    except ValueError:
        # With N and t accepted, only a z outside 0..t-2, which has no
        # product form, is refused here: the column is left out.
        product = (None,) * (order + 1)
    rows = [
        (m, e, p, c, e == c and p in (None, e))
        for m, (e, p, c) in enumerate(zip(enumerated, product, lattice))
    ]
    with _open_out(args.out) as fh:
        _emit(
            (
                {"m": m, "enum": e, "product": p, "lattice": c, "match": agree}
                for m, e, p, c, agree in rows
            ),
            fh,
        )
    ok = all(row[-1] for row in rows)
    print(
        "   m   enum  product  lattice\n"
        + "\n".join(
            "%4d %6d %8s %8d%s"
            % (m, e, "-" if p is None else p, c, "" if agree else "   <- MISMATCH")
            for m, e, p, c, agree in rows
        )
    )
    print(f"series: z={z} t={t} N={order} {'ok' if ok else 'MISMATCH'}", file=sys.stderr)
    return 0 if ok else 2


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its {subcommand: parser} map."""
    parser = _Parser(prog="twistchar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="print core, quotient, and classification data")
    p.add_argument("partition", help="comma-separated parts, empty string for the empty partition")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check one identity at seeded sample points")
    p.add_argument("theorem", choices=[th.value for th in TheoremId])
    p.add_argument("partition")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="verify over all partitions below a size bound")
    p.add_argument("--theorems", default="all")
    p.add_argument("--t", required=True, help="comma-separated list")
    p.add_argument("--n", required=True, help="comma-separated list")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--seeds", default="0", help="comma-separated list")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("series", help="compare core counts: enumeration, product, lattice")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_series)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser would scan the line and hand it to the subparser
    # to parse again; a leading subcommand goes straight to its own parser.
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"twistchar: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError, RecursionError) as exc:
        # A part too large to index or hold a table of that length, or a
        # lattice walk with more movable class pairs than the stack holds.
        print(f"twistchar: too large to evaluate: {exc!r}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("twistchar: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
