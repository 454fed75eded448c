"""Spans and counters recorded from outside gkpsim.

`patched(tracer)` replaces each name where its caller looks it up with a
wrapper that records a span (name, start, end, parent) in memory, and puts
every original back on exit. Nothing inside gkpsim changes, so the traced
CSV must be byte-identical to the untraced one.

A span's self time is its duration minus the durations of its direct
children. All spans of a pass nest inside one `cli.row` root per row, so
self times partition the row time, and the root's self time is the row time
that falls in no wrapped span.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import gkpsim.cli as cli
import gkpsim.logical as logical
import gkpsim.metrics as metrics
from gkpsim.charfun import FULL
from gkpsim.logical import LogicalSuperop


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.maxima = defaultdict(float)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(tracer, args, kwargs, result) runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}."""
        incl = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += incl[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += incl[i]
            entry[2] += incl[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}


# --- counters recorded after a call returns -------------------------------


def _count_channel(tracer, code, cf, trunc):
    tracer.counts["window_pairs"] += len(trunc.window(2 * code.n_modes)) ** 2
    tracer.counts["terms"] += len(cf.terms)


def _after_channel(tracer, args, kwargs, result):
    _count_channel(tracer, _arg(args, kwargs, 0, "code"), _arg(args, kwargs, 2, "cf"),
                   _arg(args, kwargs, 3, "trunc", logical.TruncationSpec(1)))


def _after_highprec(tracer, args, kwargs, result):
    _count_channel(tracer, _arg(args, kwargs, 1, "code"), _arg(args, kwargs, 0, "cf"),
                   _arg(args, kwargs, 3, "trunc", logical.TruncationSpec(1)))
    tracer.maxima["highprec_dps"] = max(tracer.maxima["highprec_dps"], _arg(args, kwargs, 4, "dps", 50))


def _after_box(tracer, args, kwargs, result):
    # computed, not measured: one erf difference per cell coordinate
    tracer.counts["erf_diffs"] += len(_arg(args, kwargs, 2, "cell").intervals)
    if _arg(args, kwargs, 0, "kernel").kind == FULL and result == 0:
        tracer.counts["underflow_zeros"] += 1


def _after_quad(tracer, args, kwargs, result):
    tracer.maxima["quad_err_max"] = max(tracer.maxima["quad_err_max"], float(result[1]))


# (owner, attribute, span name, counter hook). The owner is where the caller
# looks the name up: cli imported its names, logical and metrics call their
# own module globals, and LogicalSuperop methods are found on the class.
PATCHES = [
    (cli, "sweep_point", "cli.sweep_point", None),
    (cli, "envelope_charfun", "charfun.envelope", None),
    (cli, "loss_charfun", "charfun.loss", None),
    (cli, "random_displacement_charfun", "charfun.displacement", None),
    (cli, "dephased_envelope_charfun", "charfun.dephased_envelope", None),
    (cli, "compose", "charfun.compose", None),
    (cli, "logical_channel", "logical.channel", _after_channel),
    (cli, "highprec_channel_analysis", "logical.highprec", _after_highprec),
    (cli, "lowdin_orthonormalize", "metrics.lowdin", None),
    (cli, "average_gate_fidelity", "metrics.fidelity", None),
    (cli, "cptp_diagnostics", "metrics.cptp", None),
    (logical, "box_cell_integral", "logical.box", _after_box),
    (logical, "numeric_cell_integral", "logical.quad", _after_quad),
    (logical, "pauli_matrix", "superop.pauli", None),
    (logical, "_decay_precheck", "logical.precheck", None),
    (metrics, "gram_from_channel", "metrics.gram", None),
    (metrics, "choi_matrix", "metrics.choi", None),
    (LogicalSuperop, "matrix", "superop.matrix", None),
    (LogicalSuperop, "conjugate_input", "superop.conjugate", None),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers of PATCHES for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after in PATCHES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of everything the tracer recorded.

    Every `_s` value is self time except `logical.highprec_s`, which also
    covers the box integrals and precheck it calls.
    """
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    charfun_names = [n for n in spans if n.startswith("charfun.")]
    box_calls = calls("logical.box")
    channels = calls("logical.channel")
    return {
        "charfun.build_s": self_s(*charfun_names),
        "charfun.terms": tracer.counts["terms"],
        "logical.precheck_s": self_s("logical.precheck"),
        "logical.channel_calls": channels,
        "logical.channel_s": self_s("logical.channel"),
        "logical.window_pairs": tracer.counts["window_pairs"],
        "logical.box_calls": box_calls,
        "logical.box_s": self_s("logical.box"),
        "logical.box_us": 1e6 * self_s("logical.box") / box_calls if box_calls else 0.0,
        "logical.erf_diffs": tracer.counts["erf_diffs"],
        "logical.underflow_zeros": tracer.counts["underflow_zeros"],
        "logical.quad_calls": calls("logical.quad"),
        "logical.quad_s": self_s("logical.quad"),
        "logical.quad_err_max": tracer.maxima["quad_err_max"],
        "logical.highprec_s": spans.get("logical.highprec", (0, 0.0, 0.0))[1],
        "logical.highprec_self_s": self_s("logical.highprec"),
        "logical.highprec_dps": int(tracer.maxima["highprec_dps"]),
        "superop.matrix_calls": calls("superop.matrix"),
        "superop.matrix_per_channel": calls("superop.matrix") / channels if channels else 0.0,
        "superop.matrix_s": self_s("superop.matrix"),
        "superop.pauli_calls": calls("superop.pauli"),
        "superop.pauli_s": self_s("superop.pauli"),
        "superop.conjugate_s": self_s("superop.conjugate"),
        "metrics.gram_s": self_s("metrics.gram"),
        "metrics.lowdin_self_s": self_s("metrics.lowdin"),
        "metrics.fidelity_self_s": self_s("metrics.fidelity"),
        "metrics.cptp_self_s": self_s("metrics.cptp"),
        "metrics.choi_s": self_s("metrics.choi"),
        "cli.sweep_point_self_s": self_s("cli.sweep_point"),
        "cli.row_unattributed_s": self_s("cli.row"),
    }
