"""Compilation of bounded runs and formulas into integer feasibility models.

The timed system's run of horizon ``H`` is encoded with one-hot binary
state vectors ``w[k]`` (k = 0..H) tied step to step by one binary per
(step, transition) selecting the edge taken; there are no adjacency rows.
The tick indicator ``ze[k]`` is the sum of the step's tick selectors, so
it is exact by construction.  Prefix tick counters
``c[k]`` (the integer ``ze[1] + ... + ze[k]``, with ``c[0] = 0`` left out)
make the tick count of window k..j the two-term expression
``c[j] - c[k]``.  Formula satisfaction introduces one binary per
(subformula, position), with until windows handled through big-M
threshold indicators on that count.  An until whose left operand is
``true`` (every ``F[m,n]``) leaves the constant operands out of its window
conjunctions.

Until windows only range over positions inside the horizon: satisfaction
is never assumed beyond the last encoded step, matching the finite-trace
semantics of the evaluator.  Decoding reads a satisfying assignment back
into a run and certifies it against the formula with the direct
evaluator; a run that fails certification is never returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .ilp import Assignment, IlpModel
from .logic import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    SubformulaTable,
    Truth,
    UnknownAtomError,
    Until,
    evaluate,
    subformulas,
)
from .tdes import TICK, Fragment, TimedDes, fragment_errors


class DecodeError(RuntimeError):
    """An assignment does not decode to a run that replays and certifies."""


@dataclass(eq=False)
class Encoding:
    """Model plus the registry mapping variables back to run structure."""

    model: IlpModel
    tdes: TimedDes
    horizon: int
    w: list[list[int]] = field(default_factory=list)
    ze: list[int | None] = field(default_factory=list)
    c: list[int | None] = field(default_factory=list)
    formula: Formula | None = None
    table: SubformulaTable | None = None
    zphi: dict[tuple[int, int], int] = field(default_factory=dict)
    zc: dict[tuple[int, int, int], tuple[int, int]] = field(default_factory=dict)
    zu: dict[tuple[int, int, int], int] = field(default_factory=dict)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    edge_vars: dict[tuple[int, int], int] = field(default_factory=dict)


def encode_run(graph: TimedDes, horizon: int) -> Encoding:
    """Every run of ``horizon`` steps from the initial state.

    One-hot state vectors ``w[k]`` are tied step to step by the
    transition selectors ``x[k][t]``: the selectors leaving state i sum to
    ``w[k-1][i]`` and those entering state j sum to ``w[k][j]``.  With the
    one-hot rows these imply that exactly one edge fires per step and
    that every state taken has a predecessor, so neither has rows of its
    own.  ``ze[k]`` is the sum of step k's tick selectors and ``c[k] =
    c[k-1] + ze[k]`` in ``[0, k]``.  The initial state is pinned through
    its variable bounds.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    model = IlpModel()
    enc = Encoding(model=model, tdes=graph, horizon=horizon)
    n = graph.n
    for k in range(horizon + 1):
        row = []
        for i in range(n):
            pinned = k == 0 and i == graph.initial_index
            row.append(model.add_var(f"w[{k}][{i}]", 1 if pinned else 0, 1))
        enc.w.append(row)
    # Implied for k >= 1 by the selector rows, but propagation needs them:
    # without them the two-goal search takes 89 nodes instead of 87.
    for k in range(horizon + 1):
        model.add([(1, v) for v in enc.w[k]], "=", 1)
    enc.edges = sorted(
        (i, ev, j) for (i, ev), j in graph.transitions.items()
    )
    outgoing: list[list[int]] = [[] for _ in range(n)]
    incoming: list[list[int]] = [[] for _ in range(n)]
    ticks: list[int] = []
    for t, (i, ev, j) in enumerate(enc.edges):
        outgoing[i].append(t)
        incoming[j].append(t)
        if ev == TICK:
            ticks.append(t)
    enc.ze = [None]
    for k in range(1, horizon + 1):
        step_vars = []
        for t in range(len(enc.edges)):
            x = model.add_var(f"x[{k}][{t}]", 0, 1)
            enc.edge_vars[(k, t)] = x
            step_vars.append(x)
        for state, ends in ((enc.w[k - 1], outgoing), (enc.w[k], incoming)):
            for i in range(n):
                terms = [(1, state[i])]
                terms += [(-1, step_vars[t]) for t in ends[i]]
                model.add(terms, "=", 0)
        z = model.add_var(f"ze[{k}]", 0, 1)
        enc.ze.append(z)
        model.add([(1, z)] + [(-1, step_vars[t]) for t in ticks], "=", 0)
    enc.c = [None]
    for k in range(1, horizon + 1):
        counter = model.add_var(f"c[{k}]", 0, k)
        terms = [(1, counter), (-1, enc.ze[k])]
        if k > 1:
            terms.append((-1, enc.c[k - 1]))
        model.add(terms, "=", 0)
        enc.c.append(counter)
    return enc


def add_counter_threshold(
    model: IlpModel,
    plus: Sequence[int],
    lower: int,
    upper: int,
    big_m: int,
    tag: str = "",
    *,
    minus: Sequence[int] = (),
) -> tuple[int, int]:
    """Indicator pair for ``lower <= counter`` and ``counter <= upper``.

    ``counter`` is the sum of ``plus`` minus the sum of ``minus``:
    a sum of tick binaries, or a prefix-counter difference ``c[j] - c[k]``.
    With ``big_m > upper`` and ``big_m >= counter_max + 1``, where the
    counter takes values in ``0..counter_max`` on every feasible point,
    the four rows force the indicators to the exact threshold truth
    values; strict bounds are shifted by one since everything is integral.
    """
    z_at_least = model.add_var(f"cge{tag}", 0, 1)
    z_at_most = model.add_var(f"cle{tag}", 0, 1)
    unit = [(1, v) for v in plus] + [(-1, v) for v in minus]
    model.add(unit + [(-big_m, z_at_least)], "<=", lower - 1)
    model.add(unit + [(-big_m, z_at_least)], ">=", lower - big_m)
    model.add(unit + [(big_m, z_at_most)], ">=", upper + 1)
    model.add(unit + [(big_m, z_at_most)], "<=", upper + big_m)
    return z_at_least, z_at_most


def _and_rows(model: IlpModel, z: int, operands: Sequence[int]) -> None:
    for op in operands:
        model.add([(1, z), (-1, op)], "<=", 0)
    model.add([(1, z)] + [(-1, op) for op in operands], ">=", 1 - len(operands))


def _or_rows(model: IlpModel, z: int, operands: Sequence[int]) -> None:
    for op in operands:
        model.add([(1, z), (-1, op)], ">=", 0)
    model.add([(1, z)] + [(-1, op) for op in operands], "<=", 0)


def encode_formula(enc: Encoding, formula: Formula) -> None:
    """Satisfaction binaries for every (subformula, position) pair of the
    run ``enc``.

    Walks the subformula table bottom-up so shared subtrees are encoded
    once.
    """
    graph, horizon, model = enc.tdes, enc.horizon, enc.model
    table = subformulas(formula)
    enc.formula = formula
    enc.table = table
    atoms = graph.untimed.atoms

    for slot, node in enumerate(table.entries):
        kids = table.children[slot]
        for k in range(horizon + 1):
            enc.zphi[(slot, k)] = model.add_var(f"z{slot}[{k}]", 0, 1)
        if isinstance(node, Truth):
            for k in range(horizon + 1):
                model.add([(1, enc.zphi[(slot, k)])], "=", 1)
        elif isinstance(node, Atom):
            if node.name not in atoms:
                raise UnknownAtomError(f"atom {node.name!r} is not declared")
            holders = [
                i for i in range(graph.n) if node.name in graph.label(i)
            ]
            # Both sides are 0/1 under the one-hot rows, so the paired
            # threshold inequalities collapse to an equality.
            for k in range(horizon + 1):
                terms = [(1, enc.zphi[(slot, k)])]
                terms += [(-1, enc.w[k][i]) for i in holders]
                model.add(terms, "=", 0)
        elif isinstance(node, Not):
            for k in range(horizon + 1):
                model.add(
                    [(1, enc.zphi[(slot, k)]), (1, enc.zphi[(kids[0], k)])],
                    "=",
                    1,
                )
        elif isinstance(node, And):
            for k in range(horizon + 1):
                _and_rows(
                    model,
                    enc.zphi[(slot, k)],
                    [enc.zphi[(kids[0], k)], enc.zphi[(kids[1], k)]],
                )
        elif isinstance(node, Or):
            for k in range(horizon + 1):
                _or_rows(
                    model,
                    enc.zphi[(slot, k)],
                    [enc.zphi[(kids[0], k)], enc.zphi[(kids[1], k)]],
                )
        elif isinstance(node, Until):
            # The counter expression is bounded by the horizon, so H+1 is
            # a valid big-M whenever the window's upper bound fits below
            # the horizon; larger bounds need M > upper.
            big_m = horizon + 1 if node.upper <= horizon else node.upper + 1
            # An always-true left operand adds nothing to a window's
            # conjunction, so its satisfaction binaries are left out.
            constant_left = isinstance(table.entries[kids[0]], Truth)
            for k in range(horizon + 1):
                steps = []
                for j in range(k, horizon + 1):
                    # Window k..j counts c[j] - c[k] ticks; c[0] = 0 and an
                    # empty window have no terms.
                    z_ge, z_le = add_counter_threshold(
                        model,
                        [enc.c[j]] if j > k else [],
                        node.lower,
                        node.upper,
                        big_m,
                        tag=f"{slot}[{k},{j}]",
                        minus=[enc.c[k]] if 0 < k < j else [],
                    )
                    enc.zc[(slot, k, j)] = (z_ge, z_le)
                    operands = [z_ge, z_le, enc.zphi[(kids[1], j)]]
                    if not constant_left:
                        operands += [
                            enc.zphi[(kids[0], pos)] for pos in range(k, j)
                        ]
                    z_step = model.add_var(f"u{slot}[{k},{j}]", 0, 1)
                    enc.zu[(slot, k, j)] = z_step
                    _and_rows(model, z_step, operands)
                    steps.append(z_step)
                _or_rows(model, enc.zphi[(slot, k)], steps)
        else:
            raise TypeError(f"not a formula node: {node!r}")


def variable_budget(graph: TimedDes, formula: Formula, horizon: int) -> int:
    """Documented upper bound on model size: Theta(H*N) state vectors,
    Theta(H*T) edge selectors and Theta(H^2) per until node.  Tick
    indicators ``ze[k]`` and prefix tick counters ``c[k]`` add H each.
    """
    table = subformulas(formula)
    n_until = sum(1 for e in table.entries if isinstance(e, Until))
    windows = (horizon + 1) * (horizon + 2) // 2
    bound = (horizon + 1) * graph.n  # state vectors
    bound += horizon  # tick indicators
    bound += horizon  # prefix tick counters
    bound += (horizon + 1) * len(table)  # per-subformula satisfaction
    bound += n_until * 3 * windows  # thresholds + window indicators
    bound += horizon * len(graph.transitions)  # edge selectors
    return bound


def build_encoding(graph: TimedDes, formula: Formula, horizon: int) -> Encoding:
    """Full pipeline: the run, the formula, and the root pinned true at
    position 0."""
    enc = encode_run(graph, horizon)
    encode_formula(enc, formula)
    enc.model.add([(1, enc.zphi[(enc.table.root, 0)])], "=", 1)
    budget = variable_budget(graph, formula, horizon)
    assert enc.model.num_variables <= budget, (
        enc.model.num_variables,
        budget,
    )
    return enc


def decode(enc: Encoding, assignment: Assignment) -> Fragment:
    """Read a satisfying assignment back into a certified run.

    The chosen transitions name the events.  The decoded run must replay
    on the system and satisfy the formula under the direct evaluator;
    otherwise :class:`DecodeError` is raised.
    """
    graph = enc.tdes
    system = graph.untimed
    path = []
    for k in range(enc.horizon + 1):
        chosen = [i for i in range(graph.n) if assignment[enc.w[k][i]] == 1]
        if len(chosen) != 1:
            raise DecodeError(f"state vector at step {k} is not one-hot")
        path.append(chosen[0])

    events = []
    for k in range(1, enc.horizon + 1):
        picked = [
            enc.edges[t]
            for t in range(len(enc.edges))
            if assignment[enc.edge_vars[(k, t)]] == 1
        ]
        if len(picked) != 1:
            raise DecodeError(f"step {k} does not select a unique edge")
        events.append(picked[0][1])

    fragment = Fragment(
        tuple(graph.states[i] for i in path), tuple(events)
    )
    problems = fragment_errors(system, fragment)
    if problems:
        raise DecodeError("decoded run does not replay: " + problems[0])
    if enc.formula is not None and not evaluate(
        fragment, enc.formula, 0, system.labeling, system.atoms
    ):
        raise DecodeError("decoded run fails certification against the formula")
    return fragment
