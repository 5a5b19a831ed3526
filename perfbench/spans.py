"""In-memory spans around the public functions of the ``schloegl`` modules.

``install`` wraps every public function of each module (its ``__all__``, or
every name without a leading underscore where it has none) plus the
stepper's constructor and step methods, and rebinds each module attribute
that refers to an original, so callers that imported a name directly go
through the wrapper too.  A span is (name, start_ns, end_ns, parent); the
parent is the innermost open span, so children nest strictly inside it.
``layer_metrics`` turns one sample's spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

MODULES = ("geometry", "actuators", "dynamics", "feedback", "rhc", "analysis", "experiments")
# Stepper methods traced in addition to the module-level functions.
STEPPER_METHODS = {"__init__": "dynamics.factorize", "startup_step": "dynamics.step",
                   "ab2_step": "dynamics.step"}


class Tracer:
    """Span store: parallel arrays, appended at span entry, closed at exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def spans(self):
        """(name, start_ns, end_ns, parent) per span, in entry order."""
        for i in range(len(self.start)):
            yield self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, s, e, p in self.spans():
                fh.write(f"{name},{s},{e},{p}\n")


def install(tracer: Tracer):
    """Route every public ``schloegl`` function through ``tracer``.

    Returns a callable that restores the original attributes.
    """
    from schloegl.dynamics import CrankNicolsonAB2

    modules = [importlib.import_module(f"schloegl.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name in getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")]):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{short}.{name}", fn)

    undo = []
    for mod in modules + [importlib.import_module("schloegl"), importlib.import_module("schloegl.cli")]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))
    for method, span_name in STEPPER_METHODS.items():
        original = CrankNicolsonAB2.__dict__[method]
        setattr(CrankNicolsonAB2, method, tracer.wrap(span_name, original))
        undo.append((CrankNicolsonAB2, method, original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Children of a stack-based tracer never overlap each other and lie
    inside their parent, so the covered part is the sum of their lengths.
    """
    spans = list(spans)
    out = [float(e - s) for _, s, e, _ in spans]
    for _, s, e, p in spans:
        if p >= 0:
            out[p] -= e - s
    return out


def layer_metrics(spans, sample_s: float, rhc_iterations: int = 0) -> dict:
    """Per-layer numbers of one traced sample (times in the named unit).

    ``sample_s`` is the traced setup plus the driver call; the ``share.*``
    numbers divide a layer's busy time by it.  ``rhc_iterations`` is the
    optimizer iteration total the driver call reported.
    """
    spans = list(spans)
    selfs = self_times(spans)
    dur: dict[str, list[float]] = {}
    self_by: dict[str, float] = {}
    for (name, s, e, _), own in zip(spans, selfs):
        dur.setdefault(name, []).append((e - s) * 1e-9)
        self_by[name] = self_by.get(name, 0.0) + own * 1e-9

    def busy(name):
        return sum(dur.get(name, ()))

    def count(name):
        return len(dur.get(name, ()))

    def p(name, q, scale):
        return percentile(dur.get(name, ()), q) * scale

    # Each optimizer call evaluates and differentiates its initial iterate
    # once; every later forward window is a line-search trial and every
    # later adjoint follows an accepted trial.
    opt_ids = {i for i, sp in enumerate(spans) if sp[0] == "rhc.bb_projected_gradient"}
    windows = len(opt_ids)
    evaluations = adjoints = 0
    trial_busy = 0.0
    seen = set()
    for name, s, e, par in spans:
        if par not in opt_ids:
            continue
        if name == "rhc.evaluate_cost":
            evaluations += 1
            if par in seen:
                trial_busy += (e - s) * 1e-9
            seen.add(par)
        elif name == "rhc.solve_adjoint":
            adjoints += 1
    trials = evaluations - windows
    accepted = adjoints - windows

    step_busy = busy("dynamics.step")
    adjoint_busy = busy("rhc.solve_adjoint")
    return {
        "geometry.build_fem_s": busy("geometry.build_fem"),
        "actuators.discretize_s": busy("actuators.discretize_actuators"),
        "actuators.discretize_calls": count("actuators.discretize_actuators"),
        "dynamics.factorize_s": busy("dynamics.factorize"),
        "dynamics.factorizations": count("dynamics.factorize"),
        "dynamics.steps": count("dynamics.step"),
        "dynamics.step_us_p50": p("dynamics.step", 50, 1e6),
        "dynamics.step_us_p99": p("dynamics.step", 99, 1e6),
        "dynamics.step_busy_s": step_busy,
        "feedback.law_calls": count("feedback.saturated_feedback"),
        "feedback.law_us_p50": p("feedback.saturated_feedback", 50, 1e6),
        "feedback.track_self_s": self_by.get("feedback.track_target", 0.0),
        "rhc.windows": windows,
        "rhc.iterations": rhc_iterations,
        "rhc.evaluations": evaluations,
        "rhc.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "rhc.forward_window_ms_p50": p("rhc.evaluate_cost", 50, 1e3),
        "rhc.forward_busy_s": busy("rhc.evaluate_cost"),
        "rhc.adjoint_window_ms_p50": p("rhc.solve_adjoint", 50, 1e3),
        "rhc.adjoint_busy_s": adjoint_busy,
        "rhc.project_us_p50": p("rhc.project_admissible", 50, 1e6),
        "rhc.optimizer_self_s": self_by.get("rhc.bb_projected_gradient", 0.0),
        "rhc.loop_self_s": busy("rhc.run_rhc") - busy("rhc.bb_projected_gradient"),
        "analysis.margin_calls": count("analysis.stabilizability_margin"),
        "analysis.margin_s_p50": p("analysis.stabilizability_margin", 50, 1.0),
        "analysis.margin_busy_s": busy("analysis.stabilizability_margin"),
        "analysis.fit_decay_s": busy("analysis.fit_decay_rate"),
        "experiments.self_s": self_by.get("experiments.run_scenario", 0.0),
        "share.stepper": step_busy / sample_s,
        "share.adjoint": adjoint_busy / sample_s,
        "share.line_search": trial_busy / sample_s,
        "share.clipping": busy("actuators.discretize_actuators") / sample_s,
        "share.eigen": busy("analysis.stabilizability_margin") / sample_s,
    }
