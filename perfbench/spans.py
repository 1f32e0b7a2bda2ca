"""Outside-in spans around the public functions of each todakit module.

Tracing rebinds module attributes: every ``todakit.*`` module attribute that
is the probed function object is replaced by a wrapper that records a span
(name, start, end, parent) in memory.  Nothing inside the package changes,
so a probe whose function no longer exists is reported as an absent layer
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


def _size_of_arg(index: int, name: str):
    """Bytes of the file named by a positional or keyword path argument."""
    def measure(args, kwargs, out):
        path = args[index] if len(args) > index else kwargs[name]
        return {"bytes": os.path.getsize(path)}
    return measure


def _newton_iters(args, kwargs, out):
    return {"newton_iters": out.iterations}


def _check_failed(args, kwargs, out):
    return {"failed": 0 if out.passed else 1}


# scipy solvers todakit.toda binds (spsolve, bicgstab) or is planned to bind
# in place of the split (gmres); whichever are bound form the layer
LINEAR_SOLVERS = ("spsolve", "bicgstab", "gmres")


@dataclass(frozen=True)
class Probe:
    """One span name and the attributes of one module whose calls it times."""
    span: str
    module: str
    attrs: tuple
    note: object = None   # (args, kwargs, result) -> {counter: value}


PROBES = (
    Probe("grid.build_grid", "todakit.grid", ("build_grid",)),
    Probe("weight.evaluate_density", "todakit.weight", ("evaluate_density",)),
    Probe("toda.solve", "todakit.toda", ("solve_toda",), _newton_iters),
    Probe("toda.linear_solve", "todakit.toda", LINEAR_SOLVERS),
    Probe("toda.residual", "todakit.toda", ("toda_residual",)),
    Probe("thermo.thermo_field", "todakit.thermo", ("thermo_field",)),
    Probe("thermo.write_thermo_csv", "todakit.thermo", ("write_thermo_csv",),
          _size_of_arg(0, "path")),
    Probe("plot.plot_csv", "todakit.plot", ("plot_csv",),
          _size_of_arg(1, "out_path")),
    Probe("io.save_solution", "todakit.io", ("save_solution",),
          _size_of_arg(0, "path")),
    Probe("io.load_solution", "todakit.io", ("load_solution",),
          _size_of_arg(0, "path")),
    Probe("verify.check", "todakit.verify",
          ("check_density_band", "check_entropy_bounds", "check_redundancy",
           "check_fe_inequality"), _check_failed),
    Probe("cli.main", "todakit.cli", ("main",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    failed: bool = False
    counters: dict = field(default_factory=dict)


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    Children may nest or overlap each other; each instant is subtracted once.
    """
    clipped = sorted((max(s, start), min(e, end)) for s, e in children)
    covered = 0.0
    run_s = run_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if run_e is None or s > run_e:
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = s, e
        else:
            run_e = max(run_e, e)
    if run_e is not None:
        covered += run_e - run_s
    return (end - start) - covered


class Tracer:
    """In-memory span recorder; single-threaded, like the calls it wraps."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.absent: list = []

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.counters.update(note(args, kwargs, out))
            return out
        return traced

    def install(self, probes=PROBES) -> None:
        """Rebind every todakit module attribute that is a probed function."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "todakit" or n.startswith("todakit."))]
        self.absent = []
        for probe in probes:
            home = importlib.import_module(probe.module)
            found = False
            for attr in probe.attrs:
                orig = getattr(home, attr, None)
                if orig is None:
                    continue
                found = True
                wrapper = self.wrap(probe.span, orig, probe.note)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            if not found:
                self.absent.append(probe.span)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def summary(self) -> dict:
        """Per span name: calls, failed, s, self_s and summed counters."""
        kids: dict = {}
        for span in self.spans:
            if span.parent >= 0:
                kids.setdefault(span.parent, []).append((span.start, span.end))
        out: dict = {}
        for i, span in enumerate(self.spans):
            agg = out.setdefault(span.name, {"calls": 0, "failed": 0,
                                             "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["failed"] += int(span.failed)
            agg["s"] += span.end - span.start
            agg["self_s"] += self_time(span.start, span.end, kids.get(i, ()))
            for key, val in span.counters.items():
                agg[key] = agg.get(key, 0) + val
        return out

    def dump(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "failed": s.failed, **s.counters}
                for s in self.spans]
