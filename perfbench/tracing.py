"""Spans at the layer boundaries of ``adaweight``, recorded from outside.

The tracer replaces the public functions at the names through which ``cli``
and ``simulation`` (and ``weights.first_step``, ``bandwidth.cv_bandwidth``
and the smoothers, for their inner calls) reach the other modules, plus
``EpanechnikovKernel.profile``.  The traced run therefore makes exactly the
calls of the untraced run.  Each span records its name, start, end, parent
and operation id; parents come from a per-thread stack, and a span opened on
a pool thread with an empty stack takes as parent the innermost open span of
the thread that started the operation (it is blocked in ``run_study``).
Spans stay in memory until the run ends.

This module imports nothing heavy; the load generator imports it before the
set-up clock starts.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc

#: (module, attribute, span name, kind).  Span names are ``<layer>.<function>``
#: with the layer that defines the function.  ``kind`` selects what the span
#: records beyond its times.
TARGETS = (
    ("cli", "read_csv", "dataio.read_csv", None),
    ("cli", "to_json_text", "dataio.to_json_text", None),
    ("cli", "write_errors_csv", "dataio.write_errors_csv", None),
    ("cli", "first_step", "weights.first_step", None),
    ("cli", "epsilon_perturbation", "weights.epsilon_perturbation", None),
    ("cli", "np_weights", "weights.np_weights", "memory"),
    ("cli", "sp_index_weights", "weights.sp_index_weights", "memory"),
    ("cli", "sp_projected_weights", "weights.sp_projected_weights", "memory"),
    ("cli", "evaluate_weight_map", "weights.evaluate_weight_map", None),
    ("cli", "clamp_weights", "weights.clamp_weights", None),
    ("cli", "cv_bandwidth", "bandwidth.cv_bandwidth", "memory"),
    ("cli", "fit_wls", "estimators.fit_wls", "fit"),
    ("cli", "fit_weighted_m", "estimators.fit_weighted_m", "fit"),
    ("cli", "sandwich_covariance", "estimators.sandwich_covariance", None),
    ("cli", "run_study", "simulation.run_study", None),
    ("simulation", "run_replication", "simulation.run_replication", "replication"),
    ("simulation", "generate_sample", "simulation.generate_sample", None),
    ("simulation", "first_step", "weights.first_step", None),
    ("simulation", "epsilon_perturbation", "weights.epsilon_perturbation", None),
    ("simulation", "np_weights", "weights.np_weights", "memory"),
    ("simulation", "sp_projected_weights", "weights.sp_projected_weights", "memory"),
    ("simulation", "parametric_weights", "weights.parametric_weights", None),
    ("simulation", "oracle_weights", "weights.oracle_weights", None),
    ("simulation", "cv_bandwidth", "bandwidth.cv_bandwidth", "memory"),
    ("simulation", "fit_wls", "estimators.fit_wls", "fit"),
    ("simulation", "fit_weighted_m", "estimators.fit_weighted_m", "fit"),
    ("weights", "fit_wls", "estimators.fit_wls", "fit"),
    ("weights", "fit_weighted_m", "estimators.fit_weighted_m", "fit"),
    ("weights", "smoothing_coordinates", "weights.smoothing_coordinates", None),
    ("weights", "pairwise_sq_dists", "weights.pairwise_sq_dists", None),
    ("bandwidth", "smoothing_coordinates", "weights.smoothing_coordinates", None),
    ("bandwidth", "pairwise_sq_dists", "weights.pairwise_sq_dists", None),
    ("kernels.EpanechnikovKernel", "profile", "kernels.profile", "evals"),
)

#: Name of the span around one whole operation.
OP_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder that patches the boundaries listed in TARGETS."""

    def __init__(self, memory: bool = True):
        #: Whether "memory" spans record their peak allocation.  tracemalloc
        #: is process-wide: with several worker threads the peaks mix and
        #: tracing every allocation slows the run by about a fifth.
        self.memory = memory
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._mem_lock = threading.Lock()
        self._mem_open = 0
        self._op_id: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, package) -> None:
        for owner_path, attr, name, kind in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # reported as a missing boundary by the analysis
            setattr(owner, attr, self._wrap(name, kind, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, call):
        """Run ``call()`` as operation ``op_id`` inside an OP_SPAN span."""
        self._op_id = op_id
        self._op_stack = self._stack()
        return self._wrap(OP_SPAN, None, call)()

    def _mem_start(self) -> int:
        with self._mem_lock:
            if self._mem_open == 0:
                tracemalloc.start()
            self._mem_open += 1
            tracemalloc.reset_peak()
            return tracemalloc.get_traced_memory()[0]

    def _mem_stop(self, base: int) -> float:
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_open -= 1
            if self._mem_open == 0:
                tracemalloc.stop()
        return (peak - base) / 2**20

    def _wrap(self, name: str, kind: str | None, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                outer = tracer._op_stack
                parent = outer[-1] if outer else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            info = {}
            if kind == "evals":
                info["evals"] = getattr(args[1], "size", 1)
            elif kind == "replication":
                info["replication"] = args[1]
            base = tracer._mem_start() if kind == "memory" and tracer.memory else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if kind == "fit":
                    info["iterations"] = result.iterations
                    info["converged"] = bool(result.converged)
                return result
            finally:
                end = time.perf_counter()
                if base is not None:
                    info["peak_mb"] = tracer._mem_stop(base)
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, tracer._op_id, name, start, end, info)
                )

        return traced
