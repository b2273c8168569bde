"""Shared helpers for the benchmark suite.

Every bench regenerates one experiment (T1..T9, F1, F2, A2) and *emits* its
paper-style table: printed (visible with ``-s``) and written under
``benchmarks/out/`` so the rows survive pytest's capture either way.

The paper tables T1–T9 are defined once, in
:mod:`repro.analysis.experiments`: each ``bench_t*.py`` times that
definition, emits its text (byte-identical to ``repro experiment tN``)
and asserts its shape on the returned payload, and ``repro bench``
times the same runs as the ``core`` suite. The engine benches share
their workloads with :mod:`repro.perf.workloads` the same way.

Sweep-heavy benches honor these execution knobs:

``--jobs N``
    Fan sweep cells out over N worker processes (records keep the
    deterministic serial order).
``--cache DIR``
    Disk result cache; reruns skip completed cells. Point successive
    invocations at the same DIR to iterate on table formatting without
    paying for the runs again.
``--scale K``
    Size multiplier for the campaign and algorithm head-to-head benches
    (default 1 — the CI smoke configuration); the paper tables have
    fixed instance sets.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def pytest_addoption(parser):
    group = parser.getgroup("repro sweeps")
    group.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help="worker processes for sweep-backed benchmarks",
    )
    group.addoption(
        "--cache",
        action="store",
        default=None,
        metavar="DIR",
        help="result-cache directory for sweep-backed benchmarks",
    )
    group.addoption(
        "--scale",
        action="store",
        type=int,
        default=1,
        help="size multiplier for scale-aware benchmarks",
    )


@pytest.fixture(scope="session")
def sweep_jobs(request) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def sweep_cache(request) -> str | None:
    return request.config.getoption("--cache")


@pytest.fixture(scope="session")
def scale(request) -> int:
    return request.config.getoption("--scale")


@pytest.fixture(scope="session")
def emit():
    """Return a callable ``emit(name, text)`` that persists + prints a
    benchmark table."""
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _emit
