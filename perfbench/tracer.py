"""Per-layer tracing of chordfield, installed from outside the package.

``Tracer.install`` wraps the public functions of every layer module by
rebinding each ``chordfield.*`` module attribute, and each value of a
module-level dict, that refers to one; rebinding the module attribute also
catches calls made inside the defining module. It patches the ``Schedule``
path methods and ``SharedNoiseBatch.draws`` at class level, and wraps the
field callable that ``make_control_field`` returns. Installation lasts for
the life of the process.

Spans are aggregated on a stack per (layer, function, parent layer): a span's
self time is its duration minus that of the spans it encloses, and memory
stays bounded however many calls a run makes. The wrapper's own cost falls
outside the span it times, so it would count as the parent's self time; the
cost of one empty wrapped call is measured at installation and taken off the
parent's self time for each span it encloses.

A layer's ``calls`` are entries into it from another layer (or from the top
level) through one of its query functions: every public function and path
method of ``schedules``, which take times only, and for ``backbone``,
``proxy`` and ``chord`` the functions that take states. ``points`` adds the
rows of each such entry's state argument; for ``proxy`` a row counts once per
noise draw of its batch, so points are noised queries. Every public function
of these three layers must be listed either as a state query or as
state-free: installation fails on one that is neither, or on a listed name
that no longer exists, so that a renamed query cannot silently stop counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

LAYERS = ("schedules", "backbone", "proxy", "chord", "transport", "diagnostics", "experiments")
NOISE = "noise"  # SharedNoiseBatch.draws, reported with proxy
TOP = "top"  # parent of spans opened outside every layer
SCHEDULE_METHODS = ("beta", "alpha", "sigma", "alpha_dot", "sigma_dot")
# query functions that take states: layer -> {name: index of the state argument}
STATE_ARG = {
    "backbone": {
        "posterior_x0": 1,
        "posterior_eps": 1,
        "velocity": 1,
        "observable": 1,
        "delta_drift": 1,
        "log_marginal_density": 1,
    },
    "proxy": {
        "proxy_field": 1,
        "proxy_field_decoupled": 1,
        "sample_proxy_field": 1,
        "noising_sample": 1,
    },
    "chord": {
        "chord_field": 0,
        "surrogate_objective": 0,
        "window_minimizer": 0,
        "kernel_smooth": 0,
        "recursive_chord_series": 0,
    },
}
# public functions of the same layers that take no states and are not counted
STATE_FREE = {
    "backbone": {"marginal_moments", "sample_condition"},
    "proxy": {"derive_stream"},
    "chord": {
        "dirac_kernel",
        "chord_two_tap_kernel",
        "uniform_causal_kernel",
        "triangular_causal_kernel",
        "exponential_causal_kernel",
        "shipped_causal_kernels",
    },
}
# empty wrapped calls timed per trial when measuring the wrapper's cost
COST_CALLS = 10000
COST_TRIALS = 5
_MASK64 = (1 << 64) - 1


def rows(state) -> int:
    """Points in a state: list items, or rows of an (..., d) array."""
    if isinstance(state, list):
        return len(state)
    shape = getattr(state, "shape", ())
    count = 1
    for extent in shape[:-1]:
        count *= extent
    return count


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, seconds spent in child spans]
        self.stats: dict[tuple, list] = {}  # (layer, name, parent) -> [calls, points, self_s]
        self.field_evals = 0
        self.field_points = 0
        self.diagnostics_field_evals = 0
        self.rk4_steps = 0
        self.diverged = 0
        self.noise_batches = 0
        self.noise_draws = 0
        self.noise_keys: set[tuple[int, int]] = set()
        self.csv_rows = 0
        self.csv_bytes = 0
        self.span_cost = 0.0  # seconds a wrapped call adds to its parent; set by install
        self._divergence_error: tuple | type = ()  # set by install

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, points=None):
        """Span around ``fn``; ``points(args, kwargs)`` sizes layer entries."""
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        cost = self.span_cost
        divergence = self._divergence_error if layer == "transport" else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else TOP
            entry = parent != layer
            count = points(args, kwargs) if points is not None and entry else 0
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except divergence:
                if entry:
                    self.diverged += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed + cost
                rec = stats.get((layer, name, parent))
                if rec is None:
                    rec = stats[(layer, name, parent)] = [0, 0, 0.0]
                rec[0] += 1
                rec[1] += count
                rec[2] += elapsed - frame[1]

        return traced

    @staticmethod
    def _points(layer: str, fn, index: int):
        arg = list(inspect.signature(fn).parameters)[index]

        def points(args, kwargs):
            count = rows(args[index] if len(args) > index else kwargs[arg])
            if layer == "proxy" and len(args) > 3:
                # the noise batch; noising_sample passes a single draw there
                count *= getattr(args[3], "n", 1)
            return count

        return points

    def _hooked(self, layer: str, name: str, fn):
        """``fn`` with the counters its layer reports attached."""
        if (layer, name) == ("transport", "make_control_field"):

            def make_control_field(*args, **kwargs):
                return self.wrap(self._count_field(fn(*args, **kwargs)), "transport", "field")

            return functools.wraps(fn)(make_control_field)
        if (layer, name) == ("transport", "integrate_rk4"):

            def integrate_rk4(field, x0, s_from, s_to, steps):
                self.rk4_steps += steps
                return fn(field, x0, s_from, s_to, steps)

            return functools.wraps(fn)(integrate_rk4)
        if (layer, name) == ("experiments", "write_csv"):

            def write_csv(path, header, csv_rows):
                fn(path, header, csv_rows)
                self.csv_rows += len(csv_rows)
                self.csv_bytes += os.path.getsize(path)

            return functools.wraps(fn)(write_csv)
        return fn

    def _count_field(self, field):
        def counted(x, *rest):
            self.field_evals += 1
            self.field_points += rows(x)
            if any(frame[0] == "diagnostics" for frame in self.stack):
                self.diagnostics_field_evals += 1
            return field(x, *rest)

        return counted

    def _draws(self, compute):
        def draws(batch):
            self.noise_batches += 1
            self.noise_draws += batch.n
            seed = batch.seed & _MASK64
            self.noise_keys.update((seed, i) for i in range(batch.n))
            return compute(batch)

        return draws

    @staticmethod
    def measure_span_cost() -> float:
        """Seconds one wrapped call adds to its parent span beyond the call itself."""

        def empty():
            pass

        probe = Tracer()
        traced = probe.wrap(empty, "probe", "empty")
        clock = time.perf_counter
        costs = []
        for _ in range(COST_TRIALS):
            frame = ["parent", 0.0]
            probe.stack.append(frame)
            start = clock()
            for _ in range(COST_CALLS):
                traced()
            wrapped = clock() - start
            probe.stack.pop()
            start = clock()
            for _ in range(COST_CALLS):
                empty()
            bare = clock() - start
            costs.append((wrapped - frame[1] - bare) / COST_CALLS)
        return max(0.0, statistics.median(costs))

    def install(self) -> None:
        from chordfield.errors import DivergenceError
        from chordfield.proxy import SharedNoiseBatch
        from chordfield.schedules import Schedule

        self._divergence_error = DivergenceError
        self.span_cost = self.measure_span_cost()
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"chordfield.{layer}")
            public = {
                name
                for name, fn in vars(module).items()
                if not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            }
            if layer in STATE_ARG:
                listed = set(STATE_ARG[layer]) | STATE_FREE[layer]
                if listed - public or public - listed:
                    raise RuntimeError(
                        f"chordfield.{layer} changed its public functions: listed but missing"
                        f" {sorted(listed - public)}, present but unlisted {sorted(public - listed)};"
                        " update STATE_ARG or STATE_FREE in perfbench/tracer.py"
                    )
            for name in sorted(public):
                fn = vars(module)[name]
                index = STATE_ARG.get(layer, {}).get(name)
                points = None if index is None else self._points(layer, fn, index)
                replacement[fn] = self.wrap(self._hooked(layer, name, fn), layer, name, points)
        for module_name, module in list(sys.modules.items()):
            if module_name != "chordfield" and not module_name.startswith("chordfield."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in replacement:
                    setattr(module, attr, replacement[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replacement:
                            value[key] = replacement[item]
        for method in SCHEDULE_METHODS:
            original = Schedule.__dict__[method]
            setattr(Schedule, method, self.wrap(original, "schedules", f"Schedule.{method}"))
        cached = functools.cached_property(
            self.wrap(self._draws(SharedNoiseBatch.__dict__["draws"].func), NOISE, "draws")
        )
        cached.__set_name__(SharedNoiseBatch, "draws")
        SharedNoiseBatch.draws = cached

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        """Totals since installation, summed over every repetition."""
        layers = {layer: {"calls": 0, "points": 0, "self_s": 0.0} for layer in LAYERS + (NOISE,)}
        for (layer, name, parent), (calls, points, self_s) in self.stats.items():
            agg = layers[layer]
            agg["self_s"] += self_s
            counted = layer == "schedules" or name in STATE_ARG.get(layer, {})
            if counted and parent != layer:
                agg["calls"] += calls
                agg["points"] += points
        return {
            "layers": layers,
            "field_evals": self.field_evals,
            "field_points": self.field_points,
            "diagnostics_field_evals": self.diagnostics_field_evals,
            "rk4_steps": self.rk4_steps,
            "diverged": self.diverged,
            "noise_batches": self.noise_batches,
            "noise_draws": self.noise_draws,
            "noise_distinct_keys": len(self.noise_keys),
            "csv_rows": self.csv_rows,
            "csv_bytes": self.csv_bytes,
            "span_cost_s": self.span_cost,
            "spans": [[*key, *value] for key, value in sorted(self.stats.items())],
        }
