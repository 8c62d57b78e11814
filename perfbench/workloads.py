"""The four benchmark workloads and the command line of each operation.

An operation is one ``adaweight fit`` or ``adaweight simulate`` command
line, run in-process through ``adaweight.cli.main``.  Its inputs depend
only on the run seed and the operation index, so two runs with one seed
make identical calls.  Operations cycle through a fixed rotation, and a
run measures whole rotations only, so every run sees the same mix.

This module imports nothing heavy: the load generator imports it before it
starts the set-up clock.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace

#: Operation index reserved for the untimed warm-up operation.
WARMUP_INDEX = 999_999

#: Simulate seeds are ``seed * SEED_STRIDE + index``.
SEED_STRIDE = 1_000_000

def _oracle_beta(q: int) -> str:
    """True coefficients ``(1, ..., 1)/sqrt(q+1)`` formatted for ``--oracle-beta``."""
    return ",".join([repr(1.0 / (q + 1.0) ** 0.5)] * (q + 1))


@dataclass(frozen=True)
class Workload:
    """One workload: the command, its sizes and the rotation of flags."""

    name: str
    command: str  # "fit" or "simulate"
    n: int
    q: int
    common: tuple[str, ...]
    rotation: tuple[tuple[str, ...], ...]
    #: Seconds one rotation took at the commit that added this benchmark
    #: (2-core Xeon).  It converts ``--seconds`` into a fixed number of
    #: rotations, so every run of one length makes the same operations.
    rotation_s: float
    reps: int = 0  # replications per simulate call
    workers: int = 1  # simulate worker threads
    #: Consecutive operations timed together as one sample of ``op_s_p50``
    #: and ``op_s_tail``; a whole rotation when its kinds differ in cost by
    #: an order of magnitude, so that every kind counts in the median.
    sample_ops: int = 1

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.common[self.common.index("--methods") + 1].split(","))

    def argv(self, index: int, seed: int, data_path: str | None = None,
             out_dir: str | None = None, workers: int | None = None) -> list[str]:
        """Command line of operation ``index`` (``WARMUP_INDEX`` for warm-up)."""
        position = 0 if index == WARMUP_INDEX else index % len(self.rotation)
        argv = [self.command, *self.common, *self.rotation[position]]
        if self.command == "fit":
            return argv + ["--data", data_path]
        return argv + [
            "--n", str(self.n), "--q", str(self.q), "--reps", str(self.reps),
            "--seed", str(seed * SEED_STRIDE + index),
            "--workers", str(self.workers if workers is None else workers),
            "--out", out_dir,
        ]

    def operations(self, seconds: float) -> int:
        """Operations that take about ``seconds`` at the calibrating commit."""
        return max(1, round(seconds / self.rotation_s)) * len(self.rotation)


_INGEST_WEIGHTS = ("constant", "parametric", "oracle")
_INGEST_LOSSES = ("square", "huber:1.345", "power:1.5", "power:1.2")


def _ingest_rotation(q: int) -> tuple[tuple[str, ...], ...]:
    rows = []
    for i in range(len(_INGEST_WEIGHTS) * len(_INGEST_LOSSES)):
        weights = _INGEST_WEIGHTS[i % len(_INGEST_WEIGHTS)]
        flags = ("--weights", weights, "--loss", _INGEST_LOSSES[i % len(_INGEST_LOSSES)])
        if weights == "oracle":
            flags += ("--oracle-beta", _oracle_beta(q))
        rows.append(flags)
    return tuple(rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-cv",
            command="fit",
            n=2000,
            q=2,
            common=("--bandwidth", "cv", "--loss", "square"),
            rotation=(("--weights", "np"), ("--weights", "sp-index"), ("--weights", "sp-proj")),
            rotation_s=3.3,
        ),
        Workload(
            name="fit-ingest",
            command="fit",
            n=50_000,
            q=4,
            common=(),
            rotation=_ingest_rotation(4),
            rotation_s=7.0,
        ),
        Workload(
            name="sim-cv",
            command="simulate",
            n=500,
            q=4,
            common=("--sigma", "smooth", "--methods", "first-step,parametric,np,sp,oracle",
                    "--bandwidth", "cv"),
            rotation=((),),
            rotation_s=0.5,
            reps=6,
            workers=2,
        ),
        Workload(
            name="sim-mest",
            command="simulate",
            n=1000,
            q=3,
            common=("--sigma", "smooth", "--methods", "first-step,parametric,oracle"),
            rotation=(("--loss", "huber:1.345"), ("--loss", "power:1.5"), ("--loss", "power:1.2")),
            rotation_s=1.3,
            reps=10,
            workers=1,
            sample_ops=3,
        ),
    )
}

#: Reduced sizes for the smoke test; same code path, a few seconds in all.
SMOKE_SIZES = {
    "fit-cv": {"n": 300},
    "fit-ingest": {"n": 2000},
    "sim-cv": {"n": 100, "reps": 2},
    "sim-mest": {"n": 200, "reps": 4},
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SMOKE_SIZES[name]) if smoke else workload


def source_dir(root: str) -> str:
    return os.path.join(root, "src")


def import_adaweight(root: str):
    """Import ``adaweight`` from the checkout's ``src``, never from elsewhere."""
    src = source_dir(root)
    if src not in sys.path:
        sys.path.insert(0, src)
    import adaweight

    if not os.path.abspath(adaweight.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"adaweight was imported from {adaweight.__file__}, not {src}")
    return adaweight


def write_input(task: tuple[str, int, int, int, int, str]) -> str:
    """Generate one dataset and write it as CSV."""
    root, n, q, seed, index, path = task
    import_adaweight(root)
    from adaweight import dataio, simulation

    data, _ = simulation.generate_sample(n, q, "smooth", simulation.replication_rng(seed, index))
    dataio.write_csv(path, data)
    # write the file out now, not in the kernel's delayed writeback, which
    # would otherwise land in the measured operations
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())
    return path


if __name__ == "__main__":
    # input generator process: ``python3 workloads.py <tasks.json>``
    import json

    with open(sys.argv[1]) as handle:
        for task in json.load(handle):
            write_input(tuple(task))
