"""Horizon-iterating synthesis driver and its brute-force cross-check.

``synthesize`` walks the horizon range upward with one model that grows a
step per horizon, exploring the timed graph as it goes: extend, solve,
decode, certify, so a reported horizon is always backed by a certified
run and no horizon is encoded twice.  ``oracle_synthesize`` is
the independent reference: it enumerates every run of each horizon in
lexicographic event order and evaluates the formula directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .encode import Encoding, build_encoding, decode
from .ilp import solve
from .logic import Formula, evaluate
from .tdes import (
    DEFAULT_STATE_CAP,
    Fragment,
    TimedDes,
    UntimedDes,
    build_tdes,
)

ORACLE_BUDGET = 10_000_000


class OracleBudgetError(RuntimeError):
    """Enumeration would exceed ``ORACLE_BUDGET``."""


# The package's one dataclass: perfbench/run.py reads its fields.
@dataclass(frozen=True)
class SynthesisRequest:
    system: UntimedDes
    formula: Formula
    horizon_min: int
    horizon_max: int
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self) -> None:
        low, high = self.horizon_min, self.horizon_max
        if not (type(low) is int and type(high) is int and 1 <= low <= high):
            raise ValueError(
                f"horizon range {low}..{high} must satisfy 1 <= min <= max"
            )


class SynthStats(NamedTuple):
    """Size of the decisive model plus total search effort.

    ``variables`` and ``constraints`` are the size of the grown model at
    the last horizon tried, which equals that of a model built at that
    horizon alone.  ``nodes`` accumulates over every solve of the horizon
    loop (or every enumerated run, for the oracle); ``wall_time`` covers
    the whole call.
    """

    variables: int
    constraints: int
    nodes: int
    wall_time: float


class SynthesisResult(NamedTuple):
    found: bool
    fragment: Fragment | None
    horizon: int | None
    horizon_max: int
    statistics: SynthStats


def synthesize(request: SynthesisRequest) -> SynthesisResult:
    """The lexicographically first run, in ``outgoing`` event order, of
    the smallest feasible horizon in range: ``oracle_synthesize``'s answer.

    Horizons are tried in ascending order, one encoding grown in place by
    a step per horizon, so the reported horizon is minimal.  The solver
    branches along the run (see :mod:`~ticksynth.encode`), so its first
    feasible point is the first run.  The search explores the request
    system's timed graph itself, only as far as the horizons reach, and
    ``state_cap`` bounds the states it discovers.
    Every returned fragment has been certified by
    :func:`~ticksynth.encode.decode`, which raises
    :class:`~ticksynth.encode.DecodeError` for a run that fails.
    """
    start = time.perf_counter()
    graph = TimedDes(request.system, request.state_cap)
    enc = Encoding(graph, request.formula)
    nodes, fragment = 0, None
    for horizon in range(request.horizon_min, request.horizon_max + 1):
        build_encoding(enc, horizon)
        result = solve(enc.model)
        nodes += result.nodes
        if result.feasible:
            fragment = decode(enc, result.assignment)
            break
    model = enc.model
    stats = SynthStats(
        model.num_variables,
        model.num_constraints,
        nodes,
        time.perf_counter() - start,
    )
    found = fragment is not None
    return SynthesisResult(
        found, fragment, horizon if found else None, request.horizon_max, stats
    )


def enumerate_fragments(graph: TimedDes, horizon: int) -> Iterator[Fragment]:
    """All runs of exactly ``horizon`` steps, in lexicographic event order.

    The depth-first walk keeps its own stack of edge iterators, so no
    horizon runs into the interpreter's recursion limit.
    """
    run: list[tuple[str, int]] = []  # a virtual edge into state 0, then the run
    stack = [iter([("", 0)])]
    while stack:
        for edge in stack[-1]:
            run.append(edge)
            if len(run) <= horizon:
                stack.append(iter(graph.outgoing[edge[1]]))
                break
            yield Fragment(
                tuple(graph.states[j] for _, j in run),
                tuple(ev for ev, _ in run[1:]),
            )
            run.pop()
        else:
            stack.pop()
            if run:
                run.pop()


def oracle_synthesize(request: SynthesisRequest) -> SynthesisResult:
    """Reference synthesis by exhaustive enumeration.

    Returns the lexicographically first satisfying run of the smallest
    feasible horizon in range.  Intended for small instances: each
    horizon must keep max-branching**horizon within ``ORACLE_BUDGET``.
    """
    start = time.perf_counter()
    graph = build_tdes(request.system, request.state_cap)
    system = request.system
    branching = max(len(adjacency) for adjacency in graph.outgoing)
    examined = 0
    for horizon in range(request.horizon_min, request.horizon_max + 1):
        # 2 ** ORACLE_BUDGET.bit_length() already exceeds the budget
        capped = min(horizon, ORACLE_BUDGET.bit_length())
        if branching > 1 and branching**capped > ORACLE_BUDGET:
            raise OracleBudgetError(
                f"enumeration at horizon {horizon} would exceed the budget "
                f"({branching}^{horizon} > {ORACLE_BUDGET})"
            )
        for fragment in enumerate_fragments(graph, horizon):
            examined += 1
            if evaluate(
                fragment, request.formula, 0, system.labeling, system.atoms
            ):
                stats = SynthStats(
                    0, 0, examined, time.perf_counter() - start
                )
                return SynthesisResult(
                    True, fragment, horizon, request.horizon_max, stats
                )
    stats = SynthStats(0, 0, examined, time.perf_counter() - start)
    return SynthesisResult(False, None, None, request.horizon_max, stats)
