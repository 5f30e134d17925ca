"""Outside-in span recorder for the traced benchmark run.

The package imports its helpers by name (``from .grid import
solve_tridiag``), so wrapping a function means rebinding that name in
every ``artifact`` module that holds it.  ``Recorder.install`` does so and
``Recorder.remove`` puts the originals back.  Each call opens a span whose
parent is the innermost open span; when it closes, its duration is added
to its parent's child coverage, and its self time is the duration minus
that coverage.  Spans are folded into per-name totals as they close, so
memory stays flat however many grid calls a run makes.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Public functions wrapped, as "<module>.<name>" under the artifact
# package.  Private helpers are deliberately absent: their time shows as
# the self time of the public caller.
LAYERS = (
    "grid.solve_tridiag",
    "grid.apply_tridiag",
    "grid.h1_inner",
    "scalar.compute_c_infinity",
    "scalar.find_nodal_solution",
    "nehari.maximize_phi",
    "nehari.phi",
    "nehari.coupled_energy",
    "solver.coupled_newton",
    "solver.residual_components",
    "solver.minimize_m_beta",
    "solver.newton_refine",
    "solver.split_components",
    "solver.continuation",
    "diagnostics.build_report",
    "diagnostics.write_sweep_csv",
    "cli.write_stage",
)

PACKAGE = "artifact"


class Recorder:
    """Per-layer inclusive and self times, and counters such as
    ``<layer>.calls``."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.absent = []
        self._stack = []
        self._rebound = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in self.layers:
            mod_name, attr = layer.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def remove(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer, original):
        observe = OBSERVERS.get(layer)
        signature = inspect.signature(original) if observe else None
        stack = self._stack
        clock = time.perf_counter
        counters, total_s, self_s = self.counters, self.total_s, self.self_s
        calls_key = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [layer, 0.0]
            stack.append(span)
            result = error = None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                counters[calls_key] += 1
                total_s[layer] += duration
                self_s[layer] += duration - span[1]
                if observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self, parent[0] if parent else None,
                            bound.arguments, result, error)

        return wrapper


def _observe_newton(rec, parent, arguments, result, error):
    """steps = returned iteration counts; converged = residual under tol,
    split by the nearest wrapped caller."""
    if not (isinstance(result, tuple) and len(result) == 3):
        return
    _, resid, iters = result
    converged = int(resid < arguments.get("tol", float("inf")))
    scope = (parent or "top").split(".")[-1]
    for prefix in ("solver.coupled_newton", f"solver.coupled_newton.in_{scope}"):
        rec.counters[f"{prefix}.steps"] += int(iters)
        rec.counters[f"{prefix}.converged"] += converged
    rec.counters[f"solver.coupled_newton.in_{scope}.calls"] += 1


def _observe_maximizer(rec, parent, arguments, result, error):
    failure = getattr(sys.modules.get(f"{PACKAGE}.errors"), "MaximizerFailure", ())
    if error is not None and isinstance(error, failure):
        rec.counters["nehari.maximize_phi.failed"] += 1


OBSERVERS = {
    "solver.coupled_newton": _observe_newton,
    "nehari.maximize_phi": _observe_maximizer,
}
