"""Span tracing for the benchmark's traced run.

Pass-through timing wrappers are installed at the names the package calls
through, and removed again afterwards; the untraced run never installs them.
Each span records its name, the `verify` call it belongs to, its parent span,
start and end.  Spans stay in memory until the run writes them out.
"""

import functools
import importlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    call: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        # the index is taken before the append: a probe sample may open and
        # close a span of its own between any two lines (see probe.py)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.call, parent, perf_counter()))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.spans[idx].counts.update(measure(args, result))
            return result
        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _states(args, basis) -> dict:
    return {"states": basis.dim}


def _nnz(args, op) -> dict:
    return {"nnz": op.matrix.nnz}


def _solve(args, gs) -> dict:
    return {"residual": max(gs.residuals)}


# (module, attribute, span name, measure): the names the package calls through.
WRAPPED = (
    ("edspin.verify", "validate", "hamiltonians.validate", None),
    ("edspin.verify", "build", "hamiltonians.build", _nnz),
    ("edspin.verify", "ground_space", "spectra.ground_space", _solve),
    ("edspin.verify", "total_spin_of", "spectra.total_spin_of", None),
    ("edspin.hamiltonians", "enumerate_sector", "fock.enumerate_sector", _states),
    ("edspin.cones", "ground_space", "spectra.ground_space", _solve),
    ("edspin.spectra", "lanczos_ground", "spectra.lanczos_ground", None),
    ("edspin.cones", "mlm_cone", "cones.build", None),
    ("edspin.cones", "nt_cone", "cones.build", None),
    ("edspin.cones", "hubbard_cone", "cones.build", None),
    ("edspin.cones", "kondo_cone", "cones.build", None),
    ("edspin.cones", "kondo_diagonal_restriction", "cones.build", None),
    ("edspin.cones", "ergodicity", "cones.ergodicity", None),
    ("edspin.cones", "gauge_fix", "cones.strict", None),
    ("edspin.cones", "strict_positivity", "cones.strict", None),
    ("edspin.operators", "total_spin_squared", "operators.total_spin_squared", _nnz),
    ("edspin.operators", "ladder_ops", "operators.ladder_ops", None),
)


@contextmanager
def installed(tracer: Tracer, missing: list[str]):
    """Wrap every name of ``WRAPPED`` that exists; append the others to
    ``missing``.  The originals are restored on exit."""
    saved = []
    try:
        for module_name, attr, span_name, measure in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, measure))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
