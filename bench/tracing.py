"""Per-layer tracing of a scan, from outside the package.

While a ``Tracer`` is active, each traced function is rebound in every
``anosovlab`` module namespace that holds it.  Rebinding only the defining
module would record nothing: ``verification`` does ``from .spectral import
attracting_space`` and looks the name up in its own globals.  Every call
records a span (name, start, end, parent, exception class); the originals
are restored on exit, also when the scan raises.

A span's self time is its duration minus that of its traced children, so it
includes untraced helpers it calls (``svd`` inside ``singular_gap``,
``Subspace`` construction inside the scan loop).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

import numpy as np


def _input_key(args) -> bytes:
    """The matrix (and index, when given) a spectral call was asked about."""
    m = args[0]
    key = np.asarray(getattr(m, "entries", m)).tobytes()
    return key + repr(args[1:]).encode()


# Traced names, as "<module>.<name>" under anosovlab, mapped to what each
# span notes about its call: the input (for distinct-input shares) or the
# size of the result (for kept shares).
TRACED = {
    "groups.words_of_length": None,
    "groups.evaluate": None,
    "groups.rp1_fixed_points": None,
    "spectral.attracting_space": lambda args, result: _input_key(args),
    "spectral.singular_gap": None,
    "spectral.eigenvalue_ratios": None,
    "spectral.length_functions": None,
    "core_linalg.grassmann_distance": None,
    "core_linalg.direct_sum_defect": None,
    "core_linalg.intersect": None,
    "core_linalg.eig_by_modulus": lambda args, result: _input_key(args),
    "core_linalg.wedge_volume": None,
    "verification.anosov_gap_scan": None,
    "verification.BoundaryAtlas": lambda args, result: len(result),
    "verification.linked_pairs": lambda args, result: len(result),
}
SCAN = "verification.scan"
MODULES = ("groups", "spectral", "core_linalg", "verification")

# Every per-layer metric with its unit and better direction, grouped by the
# end-to-end metric and workload it should move.  Written down before any
# optimisation lands, so a later change can be held to it.
_PREDICTIONS = (
    ("Schur-based attracting space: scan_s on ck-fuchsian71-L2, partly on "
     "hk-fuchsian51-L3 and posratio-fg-L3; no change on collar-fg-L3", {
         "spectral.attracting_space.calls": ("count", "lower"),
         "spectral.attracting_space.share": ("share", "lower"),
         "spectral.attracting_space.self_share": ("share", "lower"),
         "spectral.attracting_space.errors": ("count", "lower"),
         "spectral.attracting_space.distinct_share": ("share", "higher"),
         "spectral.attracting_space.iterations": ("count", "lower"),
         "core_linalg.grassmann_distance.calls": ("count", "lower"),
         "core_linalg.grassmann_distance.share": ("share", "lower"),
         "spectral.self_s": ("s", "lower"),
     }),
    ("batched H_k/C_k triple kernel and intersection cache: scan_s and "
     "items_per_s on hk-fuchsian51-L3, peak_rss_mb is the cost; no change "
     "on ck-fuchsian71-L2 or collar-fg-L3", {
         "core_linalg.direct_sum_defect.calls": ("count", "lower"),
         "core_linalg.direct_sum_defect.share": ("share", "lower"),
         "core_linalg.intersect.calls": ("count", "lower"),
         "core_linalg.intersect.share": ("share", "lower"),
         "core_linalg.intersect.errors": ("count", "lower"),
         "core_linalg.self_s": ("s", "lower"),
         "verification.scan.self_s": ("s", "lower"),
         "verification.scan.self_share": ("share", "lower"),
         "verification.scan.gap_failures": ("count", "lower"),
     }),
    ("one spectrum record per word: scan_s on collar-fg-L3; these have "
     "zero calls on the other workloads", {
         "core_linalg.eig_by_modulus.calls": ("count", "lower"),
         "core_linalg.eig_by_modulus.share": ("share", "lower"),
         "core_linalg.eig_by_modulus.distinct_share": ("share", "higher"),
         "spectral.eigenvalue_ratios.calls": ("count", "lower"),
         "spectral.eigenvalue_ratios.share": ("share", "lower"),
         "spectral.length_functions.calls": ("count", "lower"),
         "spectral.length_functions.share": ("share", "lower"),
     }),
    ("O(n^3) positivity scan: scan_s on posratio-fg-L3 only, through the "
     "scan self time and the wedge table", {
         "core_linalg.wedge_volume.calls": ("count", "lower"),
         "core_linalg.wedge_volume.share": ("share", "lower"),
         "verification.self_s": ("s", "lower"),
     }),
    ("certification gap scans: scan_s on ck-fuchsian71-L2 (about 20%) and "
     "hk-fuchsian51-L3 (about 7%)", {
         "verification.anosov_gap_scan.calls": ("count", "lower"),
         "verification.anosov_gap_scan.share": ("share", "lower"),
         "spectral.singular_gap.calls": ("count", "lower"),
         "spectral.singular_gap.share": ("share", "lower"),
     }),
    ("one word-ball data model: small everywhere today; should cut "
     "groups.evaluate.calls on every workload", {
         "groups.evaluate.calls": ("count", "lower"),
         "groups.evaluate.share": ("share", "lower"),
         "groups.rp1_fixed_points.calls": ("count", "lower"),
         "groups.rp1_fixed_points.share": ("share", "lower"),
         "groups.words_of_length.calls": ("count", "lower"),
         "groups.words_of_length.share": ("share", "lower"),
         "groups.self_s": ("s", "lower"),
         "verification.BoundaryAtlas.share": ("share", "lower"),
         "verification.linked_pairs.share": ("share", "lower"),
     }),
    ("workload definition: must not change on any workload, or the scan "
     "no longer measures the same input", {
         "verification.scan.items": ("count", "higher"),
         "verification.scan.items_kept_share": ("share", "higher"),
         "groups.rp1_fixed_points.errors": ("count", "lower"),
         "verification.BoundaryAtlas.points_kept_share": ("share", "higher"),
         "verification.linked_pairs.linked_share": ("share", "higher"),
     }),
    ("every layer: the traced scan on every workload, and what tracing "
     "adds to it", {
         "verification.scan.s": ("s", "lower"),
         "trace.overhead_share": ("share", "lower"),
     }),
)
LAYER_METRICS = {name: (unit, better, moves)
                 for moves, metrics in _PREDICTIONS
                 for name, (unit, better) in metrics.items()}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "anosovlab" or name.startswith("anosovlab.")]


class Tracer:
    """Context manager that records a span for every call of a traced name."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.errors: list = []
        self.notes: list = []
        self._stack: list = []
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        try:
            for qualname, note in TRACED.items():
                module_name, attr = qualname.split(".")
                module = importlib.import_module("anosovlab." + module_name)
                original = getattr(module, attr)
                wrapper = self._wrap(qualname, original, note)
                for holder in _package_modules():
                    if holder.__dict__.get(attr) is original:
                        setattr(holder, attr, wrapper)
                        self._patches.append((holder, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> bool:
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.errors.append(None)
        self.notes.append(None)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, note):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[i] = type(exc).__name__
                raise
            finally:
                self._close(i)
            if note is not None:
                self.notes[i] = note(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code that is not a traced function (the scan call)."""
        i = self._open(name)
        try:
            yield
        except Exception as exc:
            self.errors[i] = type(exc).__name__
            raise
        finally:
            self._close(i)

    def calls(self) -> Counter:
        return Counter(self.names)

    def error_classes(self) -> dict:
        """Exception classes raised out of each traced name, with counts."""
        out: dict = {}
        for name, err in zip(self.names, self.errors):
            if err is not None:
                out.setdefault(name, Counter())[err] += 1
        return out

    def layer_metrics(self, answer) -> dict:
        """The per-layer metrics of one traced scan (without overhead_share)."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        rp1_ok = Counter()
        rp1_all = Counter()
        for i, p in enumerate(self.parents):
            if p < 0:
                continue
            child[p] += duration[i]
            if self.names[i] == "groups.rp1_fixed_points":
                rp1_all[p] += 1
                rp1_ok[p] += self.errors[i] is None
        total = Counter()
        own = Counter()
        errors = Counter()
        notes: dict = {}
        for i, name in enumerate(self.names):
            total[name] += duration[i]
            own[name] += duration[i] - child[i]
            errors[name] += self.errors[i] is not None
            notes.setdefault(name, []).append(self.notes[i])
        calls = self.calls()
        if calls[SCAN] != 1:
            raise ValueError(f"expected one {SCAN} span, got {calls[SCAN]}")
        scan_s = total[SCAN]

        def ratio(a, b):
            return a / b if b else 0.0

        def distinct(name):
            return ratio(len(set(notes.get(name, ()))), calls[name])

        def kept(name, base):
            spans = [i for i, nm in enumerate(self.names) if nm == name]
            return ratio(sum(self.notes[i] for i in spans),
                         sum(base(i) for i in spans))

        m = {}
        for name in TRACED:
            m[name + ".calls"] = calls[name]
            m[name + ".share"] = total[name] / scan_s
            m[name + ".errors"] = errors[name]
        m["spectral.attracting_space.self_share"] = (
            own["spectral.attracting_space"] / scan_s)
        m["spectral.attracting_space.distinct_share"] = distinct(
            "spectral.attracting_space")
        m["spectral.attracting_space.iterations"] = ratio(
            calls["core_linalg.grassmann_distance"],
            calls["spectral.attracting_space"])
        m["core_linalg.eig_by_modulus.distinct_share"] = distinct(
            "core_linalg.eig_by_modulus")
        m["verification.scan.s"] = scan_s
        m["verification.scan.self_s"] = own[SCAN]
        m["verification.scan.self_share"] = own[SCAN] / scan_s
        m["verification.scan.items"] = answer.items
        m["verification.scan.items_kept_share"] = ratio(
            answer.items, answer.candidates)
        m["verification.scan.gap_failures"] = answer.counts.get(
            "gap_failures", 0)
        m["verification.BoundaryAtlas.points_kept_share"] = kept(
            "verification.BoundaryAtlas", lambda i: rp1_all[i])
        m["verification.linked_pairs.linked_share"] = kept(
            "verification.linked_pairs",
            lambda i: rp1_ok[i] * (rp1_ok[i] - 1))
        for module in MODULES:
            m[module + ".self_s"] = sum(
                v for k, v in own.items() if k.startswith(module + "."))
        return {k: v for k, v in m.items() if k in LAYER_METRICS}
