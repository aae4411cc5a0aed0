"""Outside-in span tracing of twistchar's public functions.

The tracer wraps public functions from the benchmark's side; no file of
the program changes.  `from .linalg import det` style imports copy a
function into other modules, so every `twistchar*` module attribute (and
every class attribute, for methods such as `__rmul__ = __mul__`) that *is*
the original object is rebound to the wrapper.  A target that does not
exist is recorded in `missing` instead of raising, so the benchmark keeps
working when later refactors move or rename functions.

Each call records a span: a name, a start, an end, its parent span and the
op it belongs to.  Spans stay in memory, in flat arrays, until `write`.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

# (module, qualified name) of single functions to wrap.
FUNCTION_TARGETS = (
    ("twistchar.factorization", "verify"),
    ("twistchar.factorization", "lhs_value"),
    ("twistchar.factorization", "rhs_value"),
    ("twistchar.characters", "weyl_character"),
    ("twistchar.linalg", "det"),
    ("twistchar.cyclotomic", "CycloElem.__mul__"),
    ("twistchar.cyclotomic", "CycloElem.inv"),
    ("twistchar.cli", "main"),
)

# Modules whose every public module-level function is wrapped.
MODULE_TARGETS = ("twistchar.partitions", "twistchar.series")

DET_SIZES = range(1, 10)


def _coeff_bits(elem) -> int:
    coeffs = getattr(elem, "coeffs", ())
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.missing: list[str] = []
        self.patched: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        # Boundary observations.
        self.weyl_keys: set = set()
        self.vanishing = 0
        self.coeff_bits_max = 0
        self._open, self._close = self._recorders()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _recorders(self):
        """Span open/close closures over the arrays, kept short: they run on
        every traced call and set the tracing overhead."""
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def open_(nid: int) -> int:
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def close(idx: int) -> None:
            end[idx] = clock()
            stack.pop()

        return open_, close

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own, counted as one call."""
        nid = self._name_id(name)
        self.calls[nid] += 1
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, label=None, observe=None):
        base = self._name_id(name)
        calls, open_, close = self.calls, self._open, self._close

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while it is resumed, so each
            # resumption is a span; the call itself is only counted.
            resume = self._name_id(name + "/next")

            def spans(gen):
                while True:
                    idx = open_(resume)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item

            def traced_gen(*args, **kwargs):
                calls[base] += 1
                return spans(fn(*args, **kwargs))

            return traced_gen

        def traced(*args, **kwargs):
            calls[base] += 1
            idx = open_(base if label is None else self._name_id(label(name, *args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers -------------------------------------------------------

    def _observe_weyl(self, args, result) -> None:
        if len(args) >= 3:
            self.weyl_keys.add((args[0], args[2]))

    def _observe_verify(self, args, result) -> None:
        if getattr(result, "predicted_vanishing", False):
            self.vanishing += 1

    def _observe_coeffs(self, args, result) -> None:
        bits = _coeff_bits(result)
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits

    # -- patching --------------------------------------------------------

    def _rebind(self, orig, wrapper, owner=None) -> int:
        """Point every reference to orig at wrapper; return how many moved."""
        holders = [owner] if owner is not None else []
        holders += [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "twistchar" or n.startswith("twistchar."))
        ]
        moved = 0
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, orig))
                    moved += 1
        return moved

    def _options(self, short: str, qualname: str):
        if qualname == "verify":
            return {"observe": self._observe_verify}
        if qualname == "weyl_character":
            return {"observe": self._observe_weyl}
        if qualname == "det":
            return {"label": lambda name, rows, *rest: f"{name}/n{len(rows)}"}
        if short == "cyclotomic":
            return {"observe": self._observe_coeffs}
        return {}

    def install(self, function_targets=FUNCTION_TARGETS, module_targets=MODULE_TARGETS):
        """Wrap every target that exists; record the rest in self.missing."""
        for modname, qualname in function_targets:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}:{qualname}")
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else None
            orig = getattr(owner if owner_name else mod, attr, None)
            if not callable(orig):
                self.missing.append(f"{modname}:{qualname}")
                continue
            short = modname.rpartition(".")[2]
            wrapper = self._wrap(f"{short}.{qualname}", orig, **self._options(short, qualname))
            self.patched[f"{modname}:{qualname}"] = self._rebind(orig, wrapper, owner)
        for modname in module_targets:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}:*")
                continue
            short = modname.rpartition(".")[2]
            for attr, orig in list(vars(mod).items()):
                if (
                    inspect.isfunction(orig)
                    and not attr.startswith("_")
                    and orig.__module__ == modname
                ):
                    wrapper = self._wrap(f"{short}.{attr}", orig)
                    self.patched[f"{modname}:{attr}"] = self._rebind(orig, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: span count, inclusive seconds and self seconds.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly because one thread makes every call.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"spans": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["spans"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures named in BENCHMARK.json, from the spans."""
        tot = self.totals()

        def stat(name, key="incl_s"):
            return tot.get(name, {}).get(key, 0)

        def module_sum(prefix, key):
            return sum(r[key] for name, r in tot.items() if name.startswith(prefix + "."))

        def module_calls(prefix):
            return sum(c for name, c in zip(self.names, self.calls) if name.startswith(prefix + "."))

        weyl_calls = self.count("characters.weyl_character")
        verify_calls = self.count("factorization.verify")
        m = {
            "cyclotomic.mul_calls": self.count("cyclotomic.CycloElem.__mul__"),
            "cyclotomic.inv_calls": self.count("cyclotomic.CycloElem.inv"),
            "cyclotomic.mul_s": stat("cyclotomic.CycloElem.__mul__"),
            "cyclotomic.inv_s": stat("cyclotomic.CycloElem.inv"),
            "cyclotomic.coeff_bits_max": self.coeff_bits_max,
            "linalg.det_calls": self.count("linalg.det"),
            "linalg.det_s": module_sum("linalg", "incl_s"),
        }
        for k in DET_SIZES:
            m[f"linalg.det_calls.n{k}"] = stat(f"linalg.det/n{k}", "spans")
            m[f"linalg.det_s.n{k}"] = stat(f"linalg.det/n{k}")
        m.update(
            {
                "characters.weyl_calls": weyl_calls,
                "characters.self_s": stat("characters.weyl_character", "self_s"),
                "characters.point_reuse_share": (
                    1 - len(self.weyl_keys) / weyl_calls if weyl_calls else 0.0
                ),
                "factorization.lhs_s": stat("factorization.lhs_value"),
                "factorization.rhs_s": stat("factorization.rhs_value"),
                "factorization.vanish_share": (
                    self.vanishing / verify_calls if verify_calls else 0.0
                ),
                "partitions.calls": module_calls("partitions"),
                "partitions.self_s": module_sum("partitions", "self_s"),
                "series.calls": module_calls("series"),
                "series.self_s": module_sum("series", "self_s"),
                "cli.self_s": stat("cli.main", "self_s"),
            }
        )
        return m

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed JSON columns."""
        doc = {
            "names": self.names,
            "calls": list(self.calls),
            "missing": self.missing,
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
