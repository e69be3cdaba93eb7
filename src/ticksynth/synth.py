"""Horizon-iterating synthesis driver and its brute-force cross-check.

``synthesize`` walks the horizon range upward with one model that grows
in place, exploring the timed graph as it goes: extend, solve, decode,
certify, so a reported horizon is always backed by a certified run.
For a formula whose feasible horizons are upward closed it solves every
second horizon once a refutation needed search, and steps back one
horizon when it lands on a run.  ``oracle_synthesize`` is
the independent reference: it enumerates every run of each horizon in
lexicographic event order and evaluates the formula directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .encode import Encoding, build_encoding, decode
from .ilp import solve
from .logic import Formula, evaluate, positive
from .tdes import (
    DEFAULT_STATE_CAP,
    Fragment,
    StateCapError,
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
    """Size of the deciding model plus total search effort.

    ``variables`` and ``constraints`` are the size of the model at the
    returned horizon, or at ``horizon_max`` when there is no run, which
    equals that of a model built at that horizon alone.  ``nodes``
    accumulates over every solve of the horizon loop (or every
    enumerated run, for the oracle).
    """

    variables: int
    constraints: int
    nodes: int


class SynthesisResult(NamedTuple):
    found: bool
    fragment: Fragment | None
    horizon: int | None
    statistics: SynthStats


def synthesize(request: SynthesisRequest) -> SynthesisResult:
    """The lexicographically first run, in ``outgoing`` event order, of
    the smallest feasible horizon in range: ``oracle_synthesize``'s answer.

    Horizons are tried in ascending order on one encoding, moved in
    place by :func:`~ticksynth.encode.build_encoding`.  The solver
    branches along the run (see :mod:`~ticksynth.encode`), so its first
    feasible point is the first run.

    A positive formula (see :func:`~ticksynth.logic.positive`) holds on
    every extension of a run it holds on, and no timed state is a dead
    end, so a refutation at H+2 also refutes H+1.  So once a horizon's
    refutation needed search, the loop grows two steps and solves only
    the second; on a run there, it cuts the encoding back one step and
    solves the horizon it skipped, whose run, if any, is the answer.  A
    refutation without search costs next to nothing, so it never skips.
    Nor does a step that added more variables than the model already
    held: on a graph whose layers keep widening, the extra step costs
    more than the solve it saves.  The schedule reads node counts and
    model sizes, never the clock, so two searches of one request return
    equal results.

    The search explores the request system's timed graph itself, only as
    far as the horizons reach, and ``state_cap`` bounds the states it
    discovers.  Growing past a skipped horizon explores one layer more
    than solving it does; when that passes the cap, the skipped horizon
    is solved instead, so the stride fails no request that an ascending
    loop answers.  Every returned fragment has been certified
    by :func:`~ticksynth.encode.decode`, which raises
    :class:`~ticksynth.encode.DecodeError` for a run that fails.
    """
    graph = TimedDes(request.system, request.state_cap)
    enc = Encoding(graph, request.formula)
    monotone, top = positive(enc.table), request.horizon_max
    horizon, nodes, answer, skipped = request.horizon_min, 0, None, False
    while horizon <= top:
        try:
            build_encoding(enc, horizon)
        except StateCapError:
            if not skipped:
                raise
            horizon, skipped = horizon - 1, False  # solve the skipped one
            continue
        result = solve(enc.model)
        nodes += result.nodes
        if result.feasible:
            size = enc.model.num_variables, enc.model.num_constraints
            answer = horizon, decode(enc, result.assignment), size
            if not skipped:
                break
            horizon, skipped = horizon - 1, False
        elif answer is not None:  # the skipped horizon has no run
            break
        else:
            held, grown = enc.steps[horizon - 1][0], enc.steps[horizon][0]
            skipped = (monotone and result.nodes > 0 and horizon + 2 <= top
                       and grown - held <= held)
            horizon += 1 + skipped
    if answer is None:
        size = enc.model.num_variables, enc.model.num_constraints
        answer = None, None, size
    horizon, fragment, size = answer
    stats = SynthStats(*size, nodes)
    return SynthesisResult(fragment is not None, fragment, horizon, stats)


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
                stats = SynthStats(0, 0, examined)
                return SynthesisResult(True, fragment, horizon, stats)
    return SynthesisResult(False, None, None, SynthStats(0, 0, examined))
