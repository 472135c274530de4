"""Span recorder that times gcf_forge's layers from outside the program.

Each wrapped function is replaced at the module attribute through which its
caller looks it up, so `verify` calling `convergents` goes through the
wrapper while nothing inside the program changes. A span records name,
start, end, parent span and job id; spans stay in memory until the run
writes them out. Names a later refactor removes are listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expr", "poly", "factorize", "gcf", "series", "numerics", "verify", "cli")

# (module, attribute, span name); the span name's prefix is the layer
SPANNED = (
    ("gcf_forge.cli", "main", "cli.main"),
    ("gcf_forge.cli", "cmd_verify", "cli.report"),  # self time: JSON dump and write
    ("gcf_forge.cli", "report_to_dict", "cli.report"),
    ("gcf_forge.cli", "_print_report", "cli.report"),
    ("gcf_forge.cli", "load_problem_file", "cli.load"),
    ("gcf_forge.cli", "parse_rational", "expr.parse"),
    ("gcf_forge.cli", "parse_polynomial", "expr.parse"),
    ("gcf_forge.cli", "parse_const_expr", "expr.parse"),
    ("gcf_forge.cli", "verify_conjecture", "verify.pipeline"),
    ("gcf_forge.gcf", "integer_roots_from", "poly.factor"),
    ("gcf_forge.verify", "find_couplings", "factorize.search"),
    ("gcf_forge.factorize", "factor_rational", "poly.factor"),
    ("gcf_forge.verify", "convergents", "gcf.convergents"),
    ("gcf_forge.verify", "casoratian", "gcf.casoratian"),
    ("gcf_forge.verify", "check_reciprocal_identity", "verify.structural"),
    ("gcf_forge.verify", "check_numerator_product", "verify.structural"),
    ("gcf_forge.verify", "casoratian_recursion_depth", "verify.structural"),
    ("gcf_forge.verify", "pincherle_evidence", "verify.structural"),
    ("gcf_forge.verify", "_agreement_digits", "verify.agreement"),
    ("gcf_forge.verify", "partial_sums", "series.partial_sums"),
    ("gcf_forge.verify", "ratio_certificate", "series.certificate"),
    ("gcf_forge.series", "ratio_certificate", "series.certificate"),
    ("gcf_forge.verify", "sum_to_precision", "series.sum"),
    ("gcf_forge.series", "integer_roots_from", "poly.factor"),
    ("gcf_forge.verify", "eval_const_expr", "expr.target_eval"),
    ("gcf_forge.verify", "rational_to_real", "numerics.convert"),
    ("gcf_forge.verify", "real_reciprocal", "numerics.convert"),
    ("gcf_forge.series", "rational_to_real", "numerics.convert"),
)

# (module, attribute) of functions that are counted but not timed: every
# call to iterate_recurrence starts one walk of a recurrence frame
FRAME_WALKS = (("gcf_forge.gcf", "iterate_recurrence"), ("gcf_forge.verify", "iterate_recurrence"))
ELIGIBILITY = ("gcf_forge.verify", "check_boundary_selection")


def _int_bits(triples) -> int:
    last = triples[-1]
    return max(
        part.bit_length()
        for q in (last.A, last.B)
        for part in (q.numerator, q.denominator)
    )


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job = None
        self.counts: dict = defaultdict(Counter)  # job id -> counter
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def close_job(self, first_span: int) -> None:
        """End the job's span, and any span an overrun left open."""
        end = perf_counter()
        for span in self.spans[first_span:]:
            if span[2] is None:
                span[2] = end
        self.stack.clear()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[self.job][key] += amount

    def _spanned(self, fn, name: str, on_result):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, in the innermost layer it left
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.count(f"{layer}.errors")
                raise
            finally:
                self.end(span)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    # --- installation ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.absent:  # install() runs per cycle
                self.absent.append(f"{module_name}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        hooks = {
            "gcf.convergents": lambda r: self.count_max("gcf.max_int_bits", _int_bits(r)),
            "series.sum": self._summed,
            "factorize.search": lambda r: self.count("factorize.found", len(r)),
        }
        for module_name, attr, name in SPANNED:
            self._patch(module_name, attr, lambda fn, n=name: self._spanned(fn, n, hooks.get(n)))
        for module_name, attr in FRAME_WALKS:
            self._patch(module_name, attr, lambda fn: self._counted(fn, lambda r: self.count("gcf.frames")))
        self._patch(*ELIGIBILITY, lambda fn: self._counted(fn, self._eligible))

    def _summed(self, result) -> None:
        self.count("series.sums")
        self.count("series.terms_used", result[1])

    def _eligible(self, holds: bool) -> None:
        # only the pipeline's own eligibility filter, not the re-check inside
        # check_reciprocal_identity
        if holds and self.stack and self.spans[self.stack[-1]][0] == "verify.pipeline":
            self.count("factorize.eligible")

    def count_max(self, key: str, value: int) -> None:
        counter = self.counts[self.job]
        counter[key] = max(counter[key], value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def self_times(self) -> Counter:
        """Span name -> total self time: duration minus direct children's."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
