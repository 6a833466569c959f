"""In-memory tracing of qkostant's layers, used only by traced benchmark runs.

``Tracer.install`` wraps public functions of the package and binds each
wrapper in every ``qkostant`` module namespace that holds the original, so
calls made inside the library are seen as well as calls from the benchmark.
``qpartition`` for example is rebound in ``g2_partition``,
``g2_multiplicity``, ``cli`` and the package itself.

There are three kinds of wrapper:

- ``span``: one span per call (name, start, end, parent span, op id), kept
  in column arrays and written out by ``write_spans`` after the run;
- ``cached``: a span that also reads the ``cache_info()`` delta around the
  call to classify it as a hit or a miss, and sums the output length;
- ``tally``: for functions called ~10^5 or more times per run (the QPoly
  methods, ``sigma_shift``, ``fund_to_root``, ``compute_abcdef``), only a
  call count and summed time, no span.

Every kind keeps per-name totals of calls, duration and self time, where
self time is the duration minus the time spent in wrapped callees.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute, kind); names in the metrics are "<module>.<attribute>".
TARGETS = (
    ("cli", "run", "span"),
    ("g2_partition", "qpartition", "cached"),
    ("g2_partition", "qpartition_bruteforce", "span"),
    ("g2_partition", "partition_tarski", "span"),
    ("g2_multiplicity", "compute_abcdef", "tally"),
    ("g2_multiplicity", "qmultiplicity_closed", "span"),
    ("g2_multiplicity", "qmultiplicity_weyl_sum", "span"),
    ("g2_multiplicity", "multiplicity", "span"),
    ("g2_multiplicity", "audit_cases", "span"),
    ("rootsys", "sigma_shift", "tally"),
    ("rootsys", "fund_to_root", "tally"),
    ("sp4", "qpartition_c2", "cached"),
    ("sp4", "qpartition_c2_bruteforce", "span"),
    ("sp4", "compute_case_c2", "span"),
    ("sp4", "multiplicity_c2_closed", "span"),
    ("sp4", "multiplicity_c2_weyl_sum", "span"),
)

CACHED = tuple(f"{mod}.{attr}" for mod, attr, kind in TARGETS if kind == "cached")
QPOLY_NEW = "qpoly.QPoly.new"
QPOLY_ADD_SUB = "qpoly.add_sub"


class Tracer:
    """Collects spans and per-name totals for one worker process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.cache: dict[str, list] = {}  # name -> [hits, misses, hit_s, miss_s, coeffs_out]
        self.coeffs_checked = 0
        self.missing: list[str] = []
        self.op = -1  # id of the benchmark op being run; set by the worker
        self._span = -1  # id of the innermost open span
        self._child = [0.0]  # stack of time spent in wrapped callees
        self._in_add_sub = False
        self._names: list[str] = []
        self._s_name = array("l")
        self._s_parent = array("l")
        self._s_op = array("l")
        self._s_start = array("d")
        self._s_end = array("d")
        self._cache_base: dict[str, int] = {}
        self._cache_info: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "qkostant" or name.startswith("qkostant."))]
        for mod_name, attr, kind in TARGETS:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules.get(f"qkostant.{mod_name}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            if kind == "tally":
                wrapper = self._tally(name, original)
            else:
                wrapper = self._span_wrapper(name, original, kind == "cached")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._install_qpoly(sys.modules["qkostant.qpoly"].QPoly)
        for name, info in self._cache_info.items():
            stamp = info()
            self._cache_base[name] = stamp.hits + stamp.misses

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _span_wrapper(self, name, fn, cached):
        stat = self._stat(name)
        nid = len(self._names)
        self._names.append(name)
        child = self._child
        s_name, s_parent, s_op = self._s_name, self._s_parent, self._s_op
        s_start, s_end = self._s_start, self._s_end
        # A cached target that has lost its cache counts every call as a miss.
        info = getattr(fn, "cache_info", None) if cached else None
        if info is not None:
            self._cache_info[name] = info
        if cached:
            cstat = self.cache.setdefault(name, [0, 0, 0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            sid = len(s_start)
            parent = self._span
            s_name.append(nid)
            s_parent.append(parent)
            s_op.append(self.op)
            s_end.append(0.0)
            self._span = sid
            hits = info().hits if info is not None else 0
            child.append(0.0)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                inner = child.pop()
                dur = t1 - t0
                child[-1] += dur
                s_end[sid] = t1
                self._span = parent
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - inner
            if cached:
                if info is not None and info().hits != hits:
                    cstat[0] += 1
                    cstat[2] += dur
                else:
                    cstat[1] += 1
                    cstat[3] += dur
                cstat[4] += len(result.coeffs)
            return result

        return wrapper

    def _tally(self, name, fn):
        stat = self._stat(name)
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = child.pop()
                child[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - inner

        return wrapper

    def _install_qpoly(self, qpoly_cls) -> None:
        """Tally QPoly construction and the outermost + / - of each operation.

        ``a - b`` runs ``a + (-b)`` inside QPoly; only the outer call counts,
        so ``add_sub.calls`` is the number of additions and subtractions the
        rest of the library asked for. Construction is a callee of both.
        """
        new_stat = self._stat(QPOLY_NEW)
        add_stat = self._stat(QPOLY_ADD_SUB)
        child = self._child
        init = qpoly_cls.__init__
        tracer = self

        def new(poly, coeffs=(), *args, **kwargs):
            cs = list(coeffs)
            tracer.coeffs_checked += len(cs)
            child.append(0.0)
            t0 = perf_counter()
            try:
                init(poly, cs, *args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child.pop()
                child[-1] += dur
                new_stat[0] += 1
                new_stat[1] += dur
                new_stat[2] += dur

        def add_sub(method):
            def wrapper(a, b):
                if tracer._in_add_sub:
                    return method(a, b)
                tracer._in_add_sub = True
                child.append(0.0)
                t0 = perf_counter()
                try:
                    return method(a, b)
                finally:
                    dur = perf_counter() - t0
                    inner = child.pop()
                    child[-1] += dur
                    tracer._in_add_sub = False
                    add_stat[0] += 1
                    add_stat[1] += dur
                    add_stat[2] += dur - inner

            return wrapper

        qpoly_cls.__init__ = new
        qpoly_cls.__add__ = add_sub(qpoly_cls.__add__)
        qpoly_cls.__sub__ = add_sub(qpoly_cls.__sub__)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals in ms, cache data and the completeness deltas."""
        cache_delta = {}
        for name, info in self._cache_info.items():
            stamp = info()
            cache_delta[name] = stamp.hits + stamp.misses - self._cache_base[name]
        return {
            "stats": {name: [calls, total * 1e3, own * 1e3]
                      for name, (calls, total, own) in self.stats.items()},
            "cache": {name: [h, m, hs * 1e3, ms * 1e3, out]
                      for name, (h, m, hs, ms, out) in self.cache.items()},
            "coeffs_checked": self.coeffs_checked,
            "cache_delta": cache_delta,
            "missing": self.missing,
            "spans": len(self._s_start),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        names = self._names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\n")
            rows = zip(self._s_parent, self._s_op, self._s_name, self._s_start, self._s_end)
            for sid, (parent, op, nid, start, end) in enumerate(rows):
                out.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\n")
