"""Spans around qheine's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper in every
qheine module that holds it, under whatever name the module imported it,
so calls between layers are seen too.  Spans are kept in memory and
turned into per-layer metrics when the run ends.  A span's self time is
its duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs traced; each becomes the span name "module.function"
TRACED = (
    ("qcore", "heine_phi"),
    ("qcore", "heine_coeffs"),
    ("qcore", "verify_identities"),
    ("gfrac", "ratio_eval"),
    ("gfrac", "gfraction_coeffs"),
    ("gfrac", "gfraction_eval"),
    ("gfrac", "ratio_moments"),
    ("gfrac", "totally_monotone_check"),
    ("geomtest", "boundary_curve"),
    ("geomtest", "vertical_convexity_check"),
    ("geomtest", "kq_membership_test"),
    ("geomtest", "bn_sequence"),
    ("scanner", "scan_point"),
    ("scanner", "records_to_csv"),
    ("cli", "main"),
)


def _work(name, args, result):
    """The work count a span records, read from arguments and return values."""
    if name == "qcore.heine_phi" or name == "gfrac.gfraction_eval":
        return result.terms_used
    if name == "qcore.heine_coeffs":
        return len(result.coeffs)
    if name == "gfrac.ratio_moments":
        return args[2]
    return None


class Tracer:
    """Spans as [name, parent index, start, end, work]; on only while `active`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _work(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function, and mpmath.qhyper, wherever bound."""
        import mpmath

        modules = [m for n, m in sys.modules.items()
                   if n == "qheine" or n.startswith("qheine.")]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"qheine.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        mpmath.qhyper = self._wrap("mpmath.qhyper", mpmath.qhyper)

    def metrics(self, ops):
        """Per-layer metrics; `ops` is the number of workload operations."""
        by_name = defaultdict(list)
        child_time = defaultdict(float)
        for name, parent, start, end, work in self.spans:
            by_name[name].append((end - start, work))
            if parent >= 0:
                child_time[parent] += end - start
        self_times = defaultdict(list)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            self_times[name].append(end - start - child_time[i])
        qhyper_in_identities = 0
        for name, parent, *_ in self.spans:
            if name == "mpmath.qhyper":
                while parent >= 0 and self.spans[parent][0] != "qcore.verify_identities":
                    parent = self.spans[parent][1]
                qhyper_in_identities += parent >= 0

        def mean_ms(name, keep=lambda work: True):
            times = [t for t, w in by_name[name] if keep(w)]
            return 1e3 * statistics.fmean(times) if times else 0.0

        def mean_self_ms(name):
            times = self_times[name]
            return 1e3 * statistics.fmean(times) if times else 0.0

        def mean_work(name):
            works = [w for _, w in by_name[name]]
            return statistics.fmean(works) if works else 0.0

        n_identities = len(by_name["qcore.verify_identities"])
        coeffs = sum(w for _, w in by_name["qcore.heine_coeffs"])
        return {
            "qcore.heine_phi.ms": (mean_ms("qcore.heine_phi"), "ms"),
            "qcore.heine_phi.terms": (mean_work("qcore.heine_phi"), "count"),
            "qcore.heine_coeffs.ms": (mean_ms("qcore.heine_coeffs"), "ms"),
            "qcore.heine_coeffs.coeffs_per_op": (coeffs / ops, "count"),
            "qcore.verify_identities.ms": (mean_ms("qcore.verify_identities"), "ms"),
            "qcore.verify_identities.mp_calls": (
                qhyper_in_identities / n_identities if n_identities else 0.0, "count"),
            "gfrac.ratio_eval.ms": (mean_ms("gfrac.ratio_eval"), "ms"),
            "gfrac.gfraction_coeffs.ms": (mean_ms("gfrac.gfraction_coeffs"), "ms"),
            "gfrac.gfraction_eval.depth": (mean_work("gfrac.gfraction_eval"), "count"),
            "gfrac.ratio_moments.ms_n15": (
                mean_ms("gfrac.ratio_moments", lambda n: n == 15), "ms"),
            "gfrac.ratio_moments.ms_n40": (
                mean_ms("gfrac.ratio_moments", lambda n: n == 40), "ms"),
            "gfrac.totally_monotone_check.ms": (mean_ms("gfrac.totally_monotone_check"), "ms"),
            "geomtest.boundary_curve.ms": (mean_ms("geomtest.boundary_curve"), "ms"),
            "geomtest.vertical_convexity_check.ms": (
                mean_ms("geomtest.vertical_convexity_check"), "ms"),
            "geomtest.kq_membership_test.ms": (mean_ms("geomtest.kq_membership_test"), "ms"),
            "geomtest.bn_sequence.ms": (mean_ms("geomtest.bn_sequence"), "ms"),
            "scanner.scan_point.self_ms": (mean_self_ms("scanner.scan_point"), "ms"),
            "scanner.records_to_csv.ms": (mean_ms("scanner.records_to_csv"), "ms"),
            "cli.main.self_ms": (mean_self_ms("cli.main"), "ms"),
        }
