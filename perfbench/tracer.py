"""Span tracing of the program from outside it.

The tracer wraps every public function of each layer module, plus
`CoefficientFn.__call__`, and installs each wrapper at every binding a
caller looks up: the defining module's attribute and every `from ... import`
copy in other modules of the package. A span records its name, the module
whose binding was called (its site), its parent span, start and end, and a
work count. Spans stay in flat in-memory arrays during the run; `save`
writes them out at the end. `remove` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Layer modules, outermost first.
LAYERS = ("scenario", "cli", "coherence", "dynamics", "coeffs", "fermion",
          "grassmann", "boson", "kernel")

#: Functions whose arguments say how much work a call does: the generator
#: count of a graded product, and the steps of an evolution (n_steps at dt
#: plus 2*n_steps for its dt/2 self-check).
_WORK = {"kernel.multiply": ("n_gen", int)}
_EVOLVE_WORK = ("config", lambda config: 3 * config.n_steps)

#: The per-record observer calls that dynamics makes into fermion.
_OBSERVER = ("fermion.extract_eigenvalue", "fermion.inner_product",
             "fermion.make_coherent")
_LAWS = ("dynamics.evolve_grassmann_classical", "dynamics.evolve_classical_boson")

#: Metrics that are counts: they must repeat exactly between traced passes.
COUNTS = ("kernel.multiply.calls", "kernel.multiply.pairs",
          "kernel.multiply.bytes_computed", "kernel.conjugate.calls",
          "coeffs.calls", "dynamics.evolve.calls", "dynamics.steps",
          "dynamics.law_integrations", "fermion.observer.calls",
          "boson.eigenvalue_lsq.calls")

#: A graded product does one multiply-add per non-overlapping mask pair:
#: each generator is in the left mask, the right mask or neither, so
#: 3**n_gen pairs over 2**n_gen coefficients.
#: Bytes it touches, computed from those sizes (not measured):
#: per pair three int32 indices, a float64 sign, two complex128 operands
#: gathered and one complex128 product scattered; plus the zeroed output.
_BYTES_PER_PAIR = 3 * 4 + 8 + 2 * 16 + 16
_BYTES_PER_COEFF = 16


def _arg_reader(fn, name):
    """Read one named argument from a call's (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.keys: list[tuple[str, str]] = []  # (span name, site) per key id
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.passes: list[tuple[int, int]] = []  # span index range per pass
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _targets(self):
        root = self.package.__name__
        for layer in LAYERS:
            mod = importlib.import_module(f"{root}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{layer}.{attr}", obj
        coeffs = importlib.import_module(f"{root}.coeffs")
        yield "coeffs.CoefficientFn.__call__", coeffs.CoefficientFn.__call__

    def _bindings(self, fn):
        """Every (owner, attribute) through which a caller reaches fn."""
        root = self.package.__name__
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == root or name.startswith(root + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    yield mod, attr, name[len(root) + 1:] or root
        if fn.__qualname__ == "CoefficientFn.__call__":
            owner = importlib.import_module(f"{root}.coeffs").CoefficientFn
            yield owner, "__call__", "coeffs"

    def _wrap(self, fn, name: str, site: str):
        key_id = len(self.keys)
        self.keys.append((name, site))
        spec = _WORK.get(name) or (_EVOLVE_WORK if name.startswith("dynamics.evolve_")
                                   else None)
        read = measure = None
        if spec is not None:
            read, measure = _arg_reader(fn, spec[0]), spec[1]
        key, parent, start, end, work = self.key, self.parent, self.start, self.end, self.work
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            key.append(key_id)
            parent.append(stack[-1] if stack else -1)
            work.append(measure(read(args, kwargs)) if read is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, fn in list(self._targets()):
            for owner, attr, site in list(self._bindings(fn)):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, site))

    def remove(self) -> None:
        """Restore every patched binding and check that each is the original."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"could not restore {attr} on {owner!r}")

    def traced(self, fn):
        """Run fn() with tracing installed as one pass; returns fn's result."""
        first = len(self.start)
        self.install()
        try:
            return fn()
        finally:
            self.remove()
            self.passes.append((first, len(self.start)))

    # -- analysis -----------------------------------------------------------

    def _pass_metrics(self, lo: int, hi: int) -> dict[str, float]:
        key = np.array(self.key[lo:hi], dtype=np.int32)
        parent = np.array(self.parent[lo:hi], dtype=np.int32)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        work = np.array(self.work[lo:hi], dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent],
                            minlength=hi - lo)
        self_t = dur - child

        def spans(pred):
            return np.array([pred(n, s) for n, s in self.keys], dtype=bool)[key]

        def named(*names, site=None):
            return spans(lambda n, s: n in names and site in (None, s))

        def incl(m):
            # inclusive time of the outermost spans of the group only, so a
            # call nested inside another of the same group is not counted twice
            total = 0.0
            for i in np.flatnonzero(m):
                p = parent[i]
                while p >= 0 and not m[p - lo]:
                    p = self.parent[p]
                if p < 0:
                    total += dur[i]
            return float(total)

        def self_s(m):
            return float(self_t[m].sum())

        mul = named("kernel.multiply")
        n_gen = work[mul]
        pairs = int((3 ** n_gen).sum())
        evolve = spans(lambda n, s: n.startswith("dynamics.evolve_"))
        steps = int(work[evolve].sum())
        conj = named("kernel.conjugate")
        coeffs = named("coeffs.CoefficientFn.__call__")
        observer = named(*_OBSERVER, site="dynamics")
        lsq = named("boson.eigenvalue_lsq")
        verify = named("coherence.verify_trajectory")
        return {
            "kernel.multiply.calls": int(mul.sum()),
            "kernel.multiply.calls_per_step": int(mul.sum()) / steps if steps else 0.0,
            "kernel.multiply.self_s": self_s(mul),
            "kernel.multiply.pairs": pairs,
            "kernel.multiply.ns_per_pair": self_s(mul) / pairs * 1e9 if pairs else 0.0,
            "kernel.multiply.bytes_computed": pairs * _BYTES_PER_PAIR
            + int((2 ** n_gen).sum()) * _BYTES_PER_COEFF,
            "kernel.conjugate.calls": int(conj.sum()),
            "kernel.conjugate.self_s": self_s(conj),
            "coeffs.calls": int(coeffs.sum()),
            "coeffs.self_s": self_s(coeffs),
            "dynamics.evolve.calls": int(evolve.sum()),
            "dynamics.steps": steps,
            "dynamics.evolve.self_s": self_s(evolve),
            "dynamics.self_us_per_step": self_s(evolve) / steps * 1e6 if steps else 0.0,
            "dynamics.law_integrations": int(named(*_LAWS).sum()),
            "fermion.observer.calls": int(observer.sum()),
            "fermion.observer.incl_s": incl(observer),
            "grassmann.invert.incl_s": incl(named("grassmann.invert")),
            "grassmann.exponential.incl_s": incl(named("grassmann.exponential")),
            "boson.eigenvalue_lsq.calls": int(lsq.sum()),
            "boson.eigenvalue_lsq.incl_s": incl(lsq),
            "coherence.classify.incl_s": incl(named("coherence.classify_hamiltonian")),
            "coherence.verify.incl_s": incl(verify),
            "coherence.verify.self_s": self_s(verify),
            "scenario.parse_s": incl(named("scenario.parse_scenario")),
            "cli.self_s": self_s(named("cli.run_scenario")),
        }

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-pass layer metrics (median of times over the traced passes)
        and a description of every count that did not repeat exactly."""
        per_pass = [self._pass_metrics(lo, hi) for lo, hi in self.passes]
        out, unsteady = {}, []
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            if name in COUNTS and len(set(values)) > 1:
                unsteady.append(f"{name}: {values}")
            out[name] = values[0] if name in COUNTS else statistics.median(values)
        return out, unsteady

    def save(self, path: Path) -> None:
        """Write every span recorded so far to one .npz file."""
        np.savez(path, key=np.array(self.key, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 work=np.array(self.work, dtype=np.int64),
                 passes=np.array(self.passes, dtype=np.int64),
                 names=np.array([n for n, _ in self.keys]),
                 sites=np.array([s for _, s in self.keys]))
