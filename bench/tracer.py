"""Per-layer tracing installed from outside the ``toqc`` package.

A target is a module-level function or a class attribute of a ``toqc``
module.  Installing a :class:`Tracer` replaces the target object in every
loaded ``toqc`` module namespace that binds it (``exp_op`` is bound in
``sun_algebra``, ``brachistochrone``, ``cli`` and the package itself), so
calls are seen whichever import path the caller used.  Leaving the ``with``
block puts every original back.

Calls are aggregated per layer (calls, self seconds, work counts) rather than
kept as one record per call, so hot kernels such as ``_expm_step`` stay cheap
to trace.  A layer's self time is its wall time minus the wall time of the
traced calls made inside it; the part of an op outside every traced call is
its unattributed time, so self times plus unattributed add up to the op time.

A target that no longer exists (renamed or deleted by a later refactor) is
reported as absent instead of raising.  Single-threaded ops only: one call
stack is shared.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced layer.

    ``attr`` is a module attribute (``"exp_op"``) or a class attribute
    (``"ConstraintSet.bound_violation"``).  ``observe(args, kwargs, result)``
    returns ``(bucket_suffix, counts)``: the suffix routes the call to a
    separate bucket (``""`` for the layer's own), and ``counts`` are added to
    that bucket's work counters.
    """

    layer: str
    module: str
    attr: str
    observe: Optional[Callable] = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _coupled_flow(args, kwargs, result):
    # record=True marks the dense rebuild; it returns the recorded controls
    if result[3] is not None:
        return ".dense", {}
    return "", {"cells": _arg(args, kwargs, 3, "n_cells")}


def _single_start(args, kwargs, result):
    return "", {"converged": int(bool(result) and bool(result["converged"]))}


TARGETS = (
    Target("brachistochrone.solve_shooting", "toqc.brachistochrone", "solve_shooting"),
    Target("brachistochrone._single_start", "toqc.brachistochrone", "_single_start",
           _single_start),
    Target("brachistochrone.least_squares", "toqc.brachistochrone", "least_squares",
           lambda a, k, r: ("", {"nfev": int(r.nfev)})),
    Target("brachistochrone._coupled_flow", "toqc.brachistochrone", "_coupled_flow",
           _coupled_flow),
    Target("brachistochrone._expm_step", "toqc.brachistochrone", "_expm_step"),
    Target("brachistochrone.zermelo_solve", "toqc.brachistochrone", "zermelo_solve"),
    Target("constraint_model.maximizer", "toqc.constraint_model", "maximizer"),
    Target("constraint_model.bound_violation", "toqc.constraint_model",
           "ConstraintSet.bound_violation"),
    Target("dynamics.Protocol", "toqc.dynamics", "Protocol.__post_init__"),
    Target("dynamics.protocol_from_function", "toqc.dynamics", "protocol_from_function"),
    Target("dynamics.evolve_unitary", "toqc.dynamics", "evolve_unitary",
           lambda a, k, r: ("", {"cells": int(r.protocol.n_cells)})),
    Target("dynamics.evolve_costate", "toqc.dynamics", "evolve_costate"),
    Target("dynamics.conservation_report", "toqc.dynamics", "conservation_report"),
    Target("sun_algebra.exp_op", "toqc.sun_algebra", "exp_op"),
    Target("sun_algebra.log_op", "toqc.sun_algebra", "log_op"),
    Target("sun_algebra.inner", "toqc.sun_algebra", "inner"),
    Target("cli.main", "toqc.cli", "main"),
    Target("arc_analysis.derive_singular_structure", "toqc.arc_analysis",
           "derive_singular_structure"),
    Target("arc_analysis.boundary_closure_study", "toqc.arc_analysis",
           "boundary_closure_study"),
    Target("singular_glc.glc_test", "toqc.singular_glc", "glc_test"),
    Target("io_formats.dump_json", "toqc.io_formats", "dump_json",
           lambda a, k, r: ("", {"bytes": len(r.encode())})),
)


def _resolve(target: Target):
    """(owner, name, original) for a target, or None when it is missing."""
    owner = sys.modules.get(target.module)
    if owner is None:
        try:
            __import__(target.module)
        except ImportError:
            return None
        owner = sys.modules[target.module]
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    """Aggregating tracer; use as ``with tracer: ...`` around traced ops.

    ``stats[bucket]`` holds ``calls``, ``self_s`` and any work counters.
    ``absent`` names layers whose target could not be found, ``broken`` the
    buckets whose work counters could not be read from a call.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, dict] = {}
        self.absent: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, target: Target, original):
        stack = self._stack
        stats = self.stats
        broken = self.broken
        layer, observe = target.layer, target.observe
        stats.setdefault(layer, {"calls": 0, "self_s": 0.0})

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            returned = False
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                # also on a raise, so self times still add up to the op time
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                bucket, counts = layer, {}
                if observe is not None and returned:
                    try:
                        suffix, counts = observe(args, kwargs, result)
                        bucket = layer + suffix
                    except (AttributeError, IndexError, KeyError, TypeError):
                        broken.add(layer)
                st = stats.setdefault(bucket, {"calls": 0, "self_s": 0.0})
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
                for key, value in counts.items():
                    st[key] = st.get(key, 0) + value

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # resolve first: it imports target modules that are not loaded yet
        found = [(t, _resolve(t)) for t in self.targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "toqc" or n.startswith("toqc."))]
        for target, resolved in found:
            if resolved is None:
                self.absent.add(target.layer)
                continue
            owner, name, original = resolved
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patches.append((owner, name, original, name in vars(owner)))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, True))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def run_op(self, fn):
        """Run one op under the tracer: (result, wall seconds, unattributed s)."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
        return result, dt, dt - frame[0]
