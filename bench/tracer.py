"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces each function named in ``WRAPPED`` with a
timing wrapper in every ``eddyspec`` module namespace that binds it (the
defining module, the modules that imported it by name, the package
re-exports), so calls between layers pass through the wrapper without any
change to the package.  ``uninstall`` puts the originals back.  A name
that does not exist at the measured commit is listed in ``absent`` and
skipped; the metrics that depend on it read zero.

Each call becomes one span (name, start, end, parent span, operation id),
kept in memory and written out by ``write_csv``.  The parent is the
innermost wrapped call still open when the span began, so a spectrum
evaluated by the Jacobian has the ``jacobian`` span as parent, one
evaluated inside the ridge search has ``minimize_scalar``, and one taken
by ``invert`` itself (initial evaluation, line search) has ``invert``.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time

import numpy as np

# (module, function) pairs wrapped at their module boundary.
WRAPPED = (
    ("specfun", "p_integral"),
    ("specfun", "build_grid"),
    ("forward", "coil_grid"),
    ("forward", "delta_l_spectrum"),
    ("forward", "delta_l"),
    ("forward", "phi"),
    ("sensitivity", "jacobian"),
    ("inversion", "minimize_scalar"),
    ("inversion", "invert"),
    ("dataio", "load_spectrum"),
    ("cli", "main"),
)

# Work recorded with a span, by span name: phi's first argument holds the
# quadrature nodes it evaluates, so its size summed over a spectrum is the
# number of kernel points (nodes x frequencies) that spectrum cost.
_WORK = {"forward.phi": lambda args, kwargs: int(np.size(args[0]))}

SETUP_OP = -1  # operation id of calls made outside any timed operation
PACKAGE = "eddyspec"


class Tracer:
    """Wrappers for the ``wrapped`` functions, resolved once; ``install``
    and ``uninstall`` (or ``with tracer:``) switch them in and out."""

    def __init__(self, wrapped=WRAPPED):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.calls: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, name index, t0, t1, parent id, op, work)
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._next_id = 0
        self._targets: list[tuple] = []
        self._patches: list[tuple] = []
        for mod_name, fn_name in wrapped:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.append(name)
            else:
                self._targets.append((fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        work = _WORK.get(name)
        stack, spans, calls, clock = self._stack, self.spans, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            calls[name] += 1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, index, t0, t1, parent, self.op,
                              work(args, kwargs) if work else 0))

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for fn, wrapper in self._targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "op", "work"])
            for sid, index, t0, t1, parent, op, work in self.spans:
                out.writerow([sid, self.names[index], f"{t0:.9f}", f"{t1:.9f}",
                              parent, op, work])


class SpanTable:
    """Column view of a tracer's spans with self times and parent names."""

    def __init__(self, tracer: Tracer):
        rows = np.array([s[:2] + s[4:] for s in tracer.spans], dtype=np.int64).reshape(-1, 5)
        times = np.array([s[2:4] for s in tracer.spans], dtype=float).reshape(-1, 2)
        self.names = tracer.names
        sid, self.name, parent, self.op, self.work = rows.T
        self.dur = times[:, 1] - times[:, 0]
        row_of = np.full(tracer._next_id, -1, dtype=np.int64)
        row_of[sid] = np.arange(sid.size)
        self.parent_row = np.where(parent >= 0, row_of[np.maximum(parent, 0)], -1)
        child_time = np.bincount(self.parent_row[self.parent_row >= 0],
                                 weights=self.dur[self.parent_row >= 0],
                                 minlength=sid.size)
        self.self_time = self.dur - child_time
        self.parent_name = np.where(
            self.parent_row >= 0, self.name[np.maximum(self.parent_row, 0)], -1)

    def index(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def select(self, name: str, in_ops: bool = True):
        mask = self.name == self.index(name)
        return mask & (self.op >= 0) if in_ops else mask

    def has_children(self):
        return np.bincount(self.parent_row[self.parent_row >= 0],
                           minlength=self.name.size) > 0


# Per-layer metrics of a traced run, in the order BENCHMARK.json lists
# them.  "op" is one fit on the fit workloads and one spectrum on
# forward_sweep; "build" is one cold coil_grid build.
LAYER_UNITS = {
    "trace.op_s": "s",
    "trace.overhead_pct": "%",
    "forward.coil_grid.builds": "count",
    "forward.coil_grid.cold_s": "s",
    "specfun.p_integral.calls": "calls/build",
    "specfun.build_grid.busy_s": "s/build",
    "forward.delta_l_spectrum.calls": "calls/op",
    "forward.delta_l_spectrum.busy_s": "s/op",
    "forward.delta_l.self_s": "s/op",
    "forward.phi.calls": "calls/op",
    "forward.phi.self_s": "s/op",
    "forward.kernel_points": "points/spectrum",
    "sensitivity.jacobian.calls": "calls/op",
    "sensitivity.jacobian.busy_s": "s/op",
    "inversion.fwd_evals_per_fit": "spectra/fit",
    "inversion.fwd_evals.jacobian": "spectra/fit",
    "inversion.fwd_evals.ridge": "spectra/fit",
    "inversion.fwd_evals.step": "spectra/fit",
    "inversion.ridge.busy_s": "s/op",
    "inversion.iterations_per_fit": "count/fit",
    "inversion.step_accept_ratio": "ratio",
    "inversion.invert.self_s": "s/op",
    "dataio.load_spectrum.busy_s": "s/op",
    "cli.main.self_s": "s/op",
}

# Parent span of a spectrum -> the caller it is charged to.
CALLERS = {
    "sensitivity.jacobian": "jacobian",
    "inversion.minimize_scalar": "ridge",
    "inversion.invert": "step",
}


def _ratio(a, b) -> float:
    return float(a) / b if b else 0.0


def layer_metrics(tracer: Tracer, times_plain, times_traced, fit_stats, builds):
    """Derive the per-layer metrics from the traced operations.

    ``times_plain`` and ``times_traced`` are the per-operation seconds of
    the same operations run untraced and traced;
    ``fit_stats`` holds (iterations, converged) per fit (empty when the
    workload has no fits); ``builds`` is the coil_grid cache-miss count
    of the traced calls.  Returns (metrics, caller counts, problems), where
    ``problems`` lists every way the spans are inconsistent.
    """
    t = SpanTable(tracer)
    n_ops = len(times_traced)
    n_fits = len(fit_stats)
    spec = t.select("forward.delta_l_spectrum")

    # Every call left exactly one span, and every spectrum of an operation
    # is charged to exactly one caller.
    problems = []
    for name, calls in tracer.calls.items():
        spans = int(np.sum(t.select(name, in_ops=False)))
        if spans != calls:
            problems.append(f"{name}: {calls} calls but {spans} spans")
    callers = {"jacobian": 0, "ridge": 0, "step": 0, "other": 0}
    for parent, n in zip(*np.unique(t.parent_name[spec], return_counts=True)):
        name = t.names[parent] if parent >= 0 else None
        callers[CALLERS.get(name, "other")] += int(n)
    if sum(callers.values()) != int(np.sum(spec)):
        problems.append(f"callers {callers} do not sum to {int(np.sum(spec))} spectra")
    if not n_fits:
        callers = dict.fromkeys(callers, 0)

    def busy(name):
        return float(np.sum(t.dur[t.select(name)]))

    def own(name):
        return float(np.sum(t.self_time[t.select(name)]))

    grid = t.select("forward.coil_grid", in_ops=False)
    cold = grid & t.has_children()
    iterations = sum(s[0] for s in fit_stats)
    line_search = callers["step"] - n_fits  # minus each fit's initial spectrum
    m = {
        "trace.op_s": float(np.mean(times_traced)),
        "trace.overhead_pct": 100.0 * (sum(times_traced) / sum(times_plain) - 1.0),
        "forward.coil_grid.builds": builds,
        "forward.coil_grid.cold_s": float(np.mean(t.dur[cold])) if cold.any() else 0.0,
        "specfun.p_integral.calls": _ratio(np.sum(t.select("specfun.p_integral", False)), builds),
        "specfun.build_grid.busy_s": _ratio(
            np.sum(t.dur[t.select("specfun.build_grid", False)]), builds),
        "forward.delta_l_spectrum.calls": _ratio(np.sum(spec), n_ops),
        "forward.delta_l_spectrum.busy_s": busy("forward.delta_l_spectrum") / n_ops,
        "forward.delta_l.self_s": own("forward.delta_l") / n_ops,
        "forward.phi.calls": _ratio(np.sum(t.select("forward.phi")), n_ops),
        "forward.phi.self_s": own("forward.phi") / n_ops,
        "forward.kernel_points": _ratio(np.sum(t.work[t.select("forward.phi")]), np.sum(spec)),
        "sensitivity.jacobian.calls": _ratio(np.sum(t.select("sensitivity.jacobian")), n_ops),
        "sensitivity.jacobian.busy_s": busy("sensitivity.jacobian") / n_ops,
        "inversion.fwd_evals_per_fit": _ratio(sum(callers.values()), n_fits),
        "inversion.fwd_evals.jacobian": _ratio(callers["jacobian"], n_fits),
        "inversion.fwd_evals.ridge": _ratio(callers["ridge"], n_fits),
        "inversion.fwd_evals.step": _ratio(callers["step"], n_fits),
        "inversion.ridge.busy_s": busy("inversion.minimize_scalar") / n_ops,
        "inversion.iterations_per_fit": _ratio(iterations, n_fits),
        "inversion.step_accept_ratio": _ratio(iterations, line_search),
        "inversion.invert.self_s": own("inversion.invert") / n_ops,
        "dataio.load_spectrum.busy_s": busy("dataio.load_spectrum") / n_ops,
        "cli.main.self_s": own("cli.main") / n_ops,
    }
    return m, callers, problems
