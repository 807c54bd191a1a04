"""Spans recorded from outside elastica.

:func:`instrument` swaps a fixed set of module attributes for timing
wrappers while a traced pass runs, and puts the originals back afterwards.
The box K, M and preconditioner operands get proxies that time ``matvec``
(and the preconditioner call) and forward every other attribute, so the
solver sees the same objects and computes bit-identical results.  Spans stay
in memory; :meth:`Tracer.write` dumps them once the run is over.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from elastica import cap1d, eigensolve, harness, sparse


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _cols(x):
    return 1 if x.ndim == 1 else int(x.shape[1])


def case_id(mesh_label, alpha):
    """Box case id, also the suffix of its iteration metric: 32x32.alpha0p5."""
    return f"{mesh_label}.alpha" + f"{alpha:g}".replace(".", "p")


class Tracer:
    """Span recorder; the current case id tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case: str | None = None

    @contextmanager
    def span(self, name, **info):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.case, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path):
        """One JSON line per span, with its self time."""
        with open(path, "w", encoding="ascii") as fh:
            for index, (s, own) in enumerate(zip(self.spans,
                                                 self.self_times())):
                fh.write(json.dumps({"id": index, **asdict(s),
                                     "self": own}) + "\n")


class OperandProxy:
    """K or M operand whose ``matvec`` is timed."""

    def __init__(self, inner, tracer, name):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    @property
    def order(self):
        return self._inner.order

    def matvec(self, x):
        with self._tracer.span(self._name, order=self._inner.order,
                               cols=_cols(x)):
            return self._inner.matvec(x)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class PrecondProxy:
    """Preconditioner callable whose applications are timed."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, x):
        with self._tracer.span("dst.precond_apply", order=int(x.shape[0]),
                               cols=_cols(x)):
            return self._inner(x)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _patches(tracer):
    """(owner, attribute, wrapper) for every traced callable."""
    orig_eigs = harness.smallest_eigenpairs
    orig_solve_problem = harness.solve_problem
    orig_assemble = harness.assemble
    orig_lapinv = harness.laplacian_inverse
    orig_evaluate = harness.evaluate_all
    orig_save = harness.save_report
    orig_build = cap1d.build_mode_operator
    orig_banded = cap1d.banded_smallest
    orig_cholesky = eigensolve.cholesky_banded
    orig_from_dense = vars(sparse.BandedSymMatrix)["from_dense"].__func__

    def smallest_eigenpairs(K, M, m, *args, **kwargs):
        if kwargs.get("precond") is not None:
            kwargs["precond"] = PrecondProxy(kwargs["precond"], tracer)
        with tracer.span("eigensolve.smallest_eigenpairs",
                         order=K.order) as span:
            result = orig_eigs(OperandProxy(K, tracer, "eigensolve.K_apply"),
                               OperandProxy(M, tracer, "eigensolve.M_apply"),
                               m, *args, **kwargs)
            span.info.update(iterations=int(result.iterations), pairs=int(m),
                             max_residual=float(result.residuals.max()),
                             values=[float(v) for v in result.values])
        return result

    def solve_problem(problem, *args, **kwargs):
        outer = tracer.case
        tracer.case = case_id(problem.mesh_label(), problem.alpha)
        try:
            with tracer.span("harness.solve_problem"):
                return orig_solve_problem(problem, *args, **kwargs)
        finally:
            tracer.case = outer

    def assemble(*args, **kwargs):
        with tracer.span("assembly.assemble"):
            return orig_assemble(*args, **kwargs)

    def laplacian_inverse(*args, **kwargs):
        with tracer.span("dst.laplacian_inverse"):
            return orig_lapinv(*args, **kwargs)

    def evaluate_all(*args, **kwargs):
        with tracer.span("bounds.evaluate_all") as span:
            records = orig_evaluate(*args, **kwargs)
            span.info["records"] = len(records)
        return records

    def save_report(report, path):
        tracer.case = None  # the report closes the run's last case
        with tracer.span("report.save_report") as span:
            orig_save(report, path)
            span.info["bytes"] = os.path.getsize(path)

    def build_mode_operator(theta0, cells, m, kind):
        # the case lasts until the next mode is built, which covers the
        # banded solve that solve_cap runs on this operator
        tracer.case = f"cap.{kind}.{cells}"
        with tracer.span("cap1d.build_mode_operator", mode=int(m)):
            return orig_build(theta0, cells, m, kind)

    def banded_smallest(*args, **kwargs):
        with tracer.span("eigensolve.banded_smallest") as span:
            try:
                result = orig_banded(*args, **kwargs)
            except eigensolve.FactorizationError:
                span.info["factorization_error"] = True
                raise
            span.info["iterations"] = int(result.iterations)
        return result

    def cholesky_banded(A):
        with tracer.span("eigensolve.cholesky_banded", order=A.order):
            factor = orig_cholesky(A)
        solve = factor.solve

        def traced_solve(b):
            with tracer.span("eigensolve.banded_solve", order=factor.order,
                             cols=_cols(b)):
                return solve(b)

        factor.solve = traced_solve
        return factor

    def from_dense(cls, *args, **kwargs):
        with tracer.span("sparse.from_dense"):
            return orig_from_dense(cls, *args, **kwargs)

    return [
        (harness, "smallest_eigenpairs", smallest_eigenpairs),
        (harness, "solve_problem", solve_problem),
        (harness, "assemble", assemble),
        (harness, "laplacian_inverse", laplacian_inverse),
        (harness, "evaluate_all", evaluate_all),
        (harness, "save_report", save_report),
        (cap1d, "build_mode_operator", build_mode_operator),
        (cap1d, "banded_smallest", banded_smallest),
        (eigensolve, "cholesky_banded", cholesky_banded),
        (sparse.BandedSymMatrix, "from_dense", classmethod(from_dense)),
    ]


@contextmanager
def instrument(tracer):
    """Trace every call into the wrapped layers until the block exits."""
    patches = _patches(tracer)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
