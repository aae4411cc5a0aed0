"""One pass of a workload in a fresh interpreter; run by run.py.

Arguments are key=value pairs: workload, seed, pass, trace (0|1), limit
(ops to run, -1 for all, 0 for set-up only), fields (comma-separated t
values whose field(t) set-up builds) and spans (trace output path or -).
Only sys, os and time are imported before set-up is timed, so set-up pays
for every module twistchar itself imports.  The result is one JSON object
on the last line of stdout.
"""

import os
import sys
import time

# The machine's speed drifts by 10-20% within seconds when other tenants
# share its cores.  A fixed unit of interpreter work, timed right beside
# the work being measured, tracks that drift; dividing by it turns wall
# seconds into reference seconds: the time the same work would take on a
# machine where one unit takes REF_UNIT_S.  The unit uses builtins only,
# so it can run before the set-up it brackets.
REF_UNIT_S = 0.002
CALIBRATE_EVERY_S = 0.1


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def reference_unit(rounds=1000):
    """Time one unit: rational arithmetic on integer pairs, as in Q(w)."""
    start = time.perf_counter()
    num, den = 1, 3
    for i in range(1, rounds):
        n2, d2 = i % 7 + 1, i % 5 + 1
        num, den = num * n2 * i + den * d2, den * d2 * i
        g = _gcd(num, den)
        num, den = (num // g) % 1000000007, (den // g) % 1000000007 + 1
    return time.perf_counter() - start


reference_unit()
unit_before = sum(reference_unit() for _ in range(3)) / 3
t0 = time.perf_counter()
import twistchar.cli  # noqa: E402  (timed: this is the set-up being measured)

spec = dict(arg.split("=", 1) for arg in sys.argv[1:])
for t in filter(None, spec["fields"].split(",")):
    sys.modules["twistchar.cyclotomic"].field(int(t))
setup_s = time.perf_counter() - t0
unit_after = sum(reference_unit() for _ in range(3)) / 3
ref_setup_s = setup_s * REF_UNIT_S / ((unit_before + unit_after) / 2)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_ERRORS = 5


def scan_op(op):
    """`verify(th, la, t, n, seed)`, the work of one `twistchar scan` case."""
    th, la, t, n, seed = op
    fz = sys.modules["twistchar.factorization"]
    return fz.verify(fz.TheoremId(th), tuple(la), t, n, seed=seed)


def series_op(op):
    """`twistchar series --z z --t t --N N` with its output captured."""
    z, t, order = op
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = twistchar.cli.main(["series", "--z", str(z), "--t", str(t), "--N", str(order)])
    return rc, out.getvalue()


def main() -> dict:
    workload = spec["workload"]
    kind = workloads.WORKLOADS[workload].kind
    ops = workloads.ops_for_pass(workload, int(spec["seed"]), int(spec["pass"]))
    limit = int(spec.get("limit", "-1"))
    if limit >= 0:
        ops = ops[:limit]

    tracer = None
    if spec.get("trace") == "1":
        tracer = Tracer()
        tracer.install()

    call = scan_op if kind == "scan" else series_op
    clock = time.perf_counter
    latencies, errors = [], []
    failed = 0
    stream = hashlib.sha256()
    series_out = {}
    # units[w] is timed before the op at index starts[w]; ops between two
    # units are scaled by the mean of the units on either side.
    starts, units = [0], [reference_unit()]
    last_unit = clock()
    for i, op in enumerate(ops):
        start = clock()
        try:
            if tracer is None:
                result = call(op)
            else:
                tracer.current_op = i
                result = tracer.span("op", call, op)
        except Exception as exc:  # a failed op is counted, not fatal
            latencies.append(clock() - start)
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"{op!r}: {type(exc).__name__}: {exc}")
            result = None
        else:
            latencies.append(clock() - start)
        if clock() - last_unit >= CALIBRATE_EVERY_S:
            starts.append(i + 1)
            units.append(reference_unit())
            last_unit = clock()
        if result is None:
            continue
        if kind == "scan":
            rec = result.as_dict()
            stream.update((json.dumps(rec, separators=(",", ":")) + "\n").encode())
            ok = rec["match"] is True
        else:
            rc, text = result
            series_out[op] = text
            ok = rc == 0
        if not ok:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"{op!r}: wrong result")
    if starts[-1] < len(ops):
        starts.append(len(ops))
        units.append(reference_unit())
    ref_latencies = []
    for w in range(len(starts) - 1):
        scale = REF_UNIT_S / ((units[w] + units[w + 1]) / 2)
        ref_latencies += [x * scale for x in latencies[starts[w]:starts[w + 1]]]

    if kind == "series":
        # Ops run in seeded order; the digest is over the canonical order.
        for z, t in workloads.series_pairs():
            stream.update(series_out.get((z, t, workloads.SERIES_ORDER), "").encode())

    out = {
        "setup_s": setup_s,
        "ref_setup_s": ref_setup_s,
        "ops": len(ops),
        "failed": failed,
        "errors": errors,
        "latencies_s": latencies,
        "ref_latencies_s": ref_latencies,
        "unit_s": sum(units) / len(units),
        "digest": stream.hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "twistchar_file": os.path.abspath(twistchar.__file__),
    }
    if tracer is not None:
        out["layer"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
        out["patched"] = tracer.patched
        out["spans"] = len(tracer.start)
        if spec.get("spans", "-") != "-":
            tracer.write(spec["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
