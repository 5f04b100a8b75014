"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the lower layers
(``repro.sat``, ``repro.aig``, ``repro.upec``, ``repro.soc``,
``repro.ift``, ``repro.verify``) with timers and counters, and restores
them on :meth:`Tracer.uninstall`.  A function is replaced wherever a
loaded ``repro`` module binds it, so ``from x import f`` call sites are
traced too.  Nested calls of the same metric are timed once, at the
outermost call.

Only the benchmark's own process is traced: fabric workers run
untraced, and their SAT numbers come from the ``CheckStats`` each
``JobResult`` carries back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Modules imported before patching, so every module-level binding of a
#: traced function exists when the tracer looks for it.
_MODULES = (
    "repro.sat.session", "repro.sat.preprocess", "repro.aig.coi",
    "repro.aig.bitsim", "repro.upec.miter", "repro.upec.ssc",
    "repro.upec.unrolled", "repro.soc.pulpissimo", "repro.ift.engine",
    "repro.verify.engine", "repro.verify.request", "repro.verify.delta",
    "repro.verify.api", "repro.campaign.runner", "repro.formal.session",
    "repro.verify", "repro.campaign", "repro.fabric", "repro.upec",
    "repro.aig", "repro.ift", "repro.soc", "repro.sat",
)


def _add_solve_stats(acc, result) -> None:
    acc["sat.solve_s"] += result.seconds
    acc["sat.calls"] += 1
    acc["sat.conflicts"] += result.conflicts
    acc["sat.decisions"] += result.decisions
    acc["sat.propagations"] += result.propagations


class Tracer:
    """Accumulates per-layer seconds and counts into :attr:`acc`."""

    def __init__(self):
        self.acc: defaultdict[str, float] = defaultdict(float)
        self._active: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.acc.clear()

    def _wrap(self, fn, metric=None, count=None, after=None):
        acc, active = self.acc, self._active
        key = metric or count or fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[key]:
                return fn(*args, **kwargs)
            active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[key] -= 1
                if metric:
                    acc[metric] += time.perf_counter() - start
                if count:
                    acc[count] += 1
            if after is not None:
                after(acc, result)
            return result

        return traced

    def _method(self, module: str, cls: str, name: str, **how) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[name]
        setattr(owner, name, self._wrap(original, **how))
        self._undo.append((owner, name, original))

    def _function(self, module: str, name: str, **how) -> None:
        original = getattr(importlib.import_module(module), name)
        traced = self._wrap(original, **how)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, original))

    def install(self) -> "Tracer":
        for module in _MODULES:
            importlib.import_module(module)
        self._method("repro.sat.session", "IncrementalSession", "solve",
                     after=_add_solve_stats)
        self._method("repro.sat.preprocess", "CnfSimplifier", "simplify",
                     metric="sat.bve_s")
        self._function("repro.aig.coi", "extract", metric="aig.coi_s")
        self._function("repro.aig.coi", "reg_coi", metric="aig.coi_s")
        for name in ("satisfy", "reseed"):
            self._method("repro.aig.bitsim", "BitSim", name,
                         metric="aig.bitsim_s")
        for name in ("prove_constant", "prove_equivalent"):
            self._function("repro.aig.bitsim", name, metric="aig.bitsim_s")
        self._method("repro.upec.miter", "MiterSession", "check",
                     metric="upec.check_s", count="upec.checks")
        self._function("repro.soc.pulpissimo", "build_soc",
                       metric="soc.build_s", count="soc.builds")
        self._function("repro.ift.engine", "bounded_ift_check",
                       metric="ift.check_s")
        self._function("repro.verify.engine", "execute",
                       metric="verify.execute_s")
        self._function("repro.verify.request", "design_fingerprint",
                       metric="verify.fingerprint_s")
        self._function("repro.verify.delta", "cone_fingerprint",
                       metric="verify.fingerprint_s")
        self._function("repro.verify.delta", "plan_delta_campaign",
                       metric="verify.delta_plan_s")
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
