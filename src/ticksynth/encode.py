"""Compilation of bounded runs and formulas into integer feasibility models.

The timed system's run of horizon ``H`` is encoded by one binary per
(step, transition) selecting the edge taken, a flow formulation of the
bounded run.  Only the initial state has a variable, fixed at 1; the
indicator of state j at position k is the sum ``w[k][j]`` of the
selectors entering it, and one flow row per state ties them to the
selectors leaving it.  These rows make every position one-hot, so there
are no one-hot rows, nor adjacency rows.  A selector that the flow rows
force equal to an earlier variable is that variable, so an ``x[k]``
entry may be a selector of an earlier step.  The tick indicator
``ze[k]`` is the sum of the step's tick selectors, so it is exact by
construction.  Prefix tick counters ``c[k]`` (the integer
``ze[1] + ... + ze[k]``, with ``c[0] = 0`` left out) make the tick count
of window k..j the two-term expression ``c[j] - c[k]``, in ``0..j-k``.
Formula satisfaction introduces one binary per (subformula, position).
An until window gets a big-M indicator on its count only for a bound the
count can break, shared by every until with that bound, and a window
left with one operand is that operand.  A subformula with no until
below it is tied by one row to the selectors entering the states of
``w[k]``, as bounded model checking translates a state formula, and its
operands get no binaries.

Only what the pinned root can see is encoded.  ``w[k]`` covers the
states reachable in exactly k steps, and step k covers the edges leaving
the states of ``w[k-1]``; step k explores those states in the timed
graph before it reads their edges.  The root is demanded at position 0,
and so are the operands of a node demanded there only; operands of an
until, or of a node demanded everywhere, are demanded everywhere, but
an until's constant-true left operand, which no window reads, is not.
Only demanded positions get satisfaction binaries, and an until demanded
at 0 only keeps the windows anchored at 0.

One model serves a whole horizon range: an :class:`Encoding` is built
at horizon 0 and :func:`build_encoding` grows it in place a step at a
time.  Every row belongs to one step except the closing rows
``z[k] <= sum_j u[k,j]`` of each until, whose window list ends at the
horizon; they are added last and replaced on every growth.  Each step's
new selectors are the model's next decisions, so the solver branches
along the run, each state's edges in ``outgoing`` order.

Until windows only range over positions inside the horizon: satisfaction
is never assumed beyond the last encoded step, matching the finite-trace
semantics of the evaluator.  Decoding reads the events of the chosen
edges off a satisfying assignment; the run is the replay of those events
on the system, certified against the formula with the direct evaluator,
and a run that fails certification is never returned.
"""

from __future__ import annotations

from typing import Sequence

from .ilp import IlpModel
from .logic import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    Truth,
    UnknownAtomError,
    Until,
    evaluate,
    subformulas,
)
from .tdes import TICK, Fragment, FragmentError, TimedDes, replay_events


class DecodeError(RuntimeError):
    """An assignment does not decode to a run that replays and certifies."""


class Encoding:
    """Model plus the registry mapping variables back to run structure.

    ``w[k]`` maps the states reachable in k steps, ascending, to the
    tuple of variables whose sum is the state's indicator: the selectors
    of the edges entering it, in ``edges[k]`` order, or for the initial
    state its variable.  ``edges[k]`` lists the edges leaving ``w[k-1]``
    in (source, event) order and ``x[k]`` their selectors.  An ``x[k]``
    entry may be a selector of an earlier step (see
    :func:`_encode_step`), so one variable may serve several steps.
    ``holds[slot]`` is the set of activities where a propositional slot
    (no until below it) holds, else ``None``.  ``demanded`` holds the
    slots demanded at position 0, ``everywhere`` those demanded at every
    position.  ``zc[(a, j, at_most, bound)]`` is a threshold indicator of
    window a..j, ``zu[(slot, a, j)]`` an until's window.  ``closing`` is
    the number of constraints before the closing rows.
    """

    def __init__(self, graph: TimedDes, formula: Formula) -> None:
        """The horizon-0 model: the initial state (state 0) pinned by its
        bounds alone, and the position-0 binaries, the root pinned true."""
        table = subformulas(formula)
        system, entries = graph.untimed, table.entries
        for node in entries:
            if isinstance(node, Atom) and node.name not in system.atoms:
                raise UnknownAtomError(f"atom {node.name!r} is not declared")
        # Labels depend only on the activity, so each slot with no until
        # below it is evaluated once, as the set of activities where it holds.
        holds: list[frozenset[str] | None] = []
        for node, kids in zip(entries, table.children):
            below = [holds[kid] for kid in kids]
            if isinstance(node, Until) or None in below:
                holds.append(None)
            elif isinstance(node, Truth):
                holds.append(system.states)
            elif isinstance(node, Atom):
                holds.append(frozenset(
                    a for a in system.states if node.name in system.label(a)
                ))
            elif isinstance(node, Not):
                holds.append(system.states - below[0])
            elif isinstance(node, And):
                holds.append(below[0] & below[1])
            elif isinstance(node, Or):
                holds.append(below[0] | below[1])
            else:
                raise TypeError(f"not a formula node: {node!r}")
        demanded, everywhere = {table.root}, set()  # parents follow children
        for slot in reversed(range(len(table))):
            if slot not in demanded or holds[slot] is not None:
                continue  # a propositional slot's row reads the states only
            node, kids = entries[slot], table.children[slot]
            if isinstance(node, Until) and isinstance(entries[kids[0]], Truth):
                kids = kids[1:]  # the windows leave a constant-true left out
            demanded.update(kids)
            if slot in everywhere or isinstance(node, Until):
                everywhere.update(kids)
        self.model = model = IlpModel()
        self.tdes, self.formula, self.table = graph, formula, table
        self.holds, self.horizon = tuple(holds), 0
        self.demanded = frozenset(demanded)
        self.everywhere = frozenset(everywhere)
        start = model.add_var("w[0][0]", 1, 1)
        self.w: list[dict[int, tuple[int, ...]]] = [{0: (start,)}]
        self.ze: list[int | None] = [None]
        self.c: list[int | None] = [None]
        self.zphi: dict[tuple[int, int], int] = {}
        self.zc: dict[tuple[int, int, bool, int], int] = {}
        self.zu: dict[tuple[int, int, int], int] = {}
        self.edges: list[list[tuple[int, str, int]]] = [[]]
        self.x: list[list[int]] = [[]]
        _encode_position(self, 0)
        model.add([(1, self.zphi[(table.root, 0)])], "=", 1)
        self.closing = model.num_constraints


def _encode_step(enc: Encoding, k: int) -> None:
    """Edge selectors, flow rows, tick indicator and counter of step k.

    The edges ``edges[k][t]`` leaving the states of ``w[k-1]`` get the
    selectors ``x[k][t]``, and ``w[k][j]`` is the tuple of those entering
    j.  Each state i of ``w[k-1]`` gets one flow row: the sum of
    ``w[k-1][i]`` equals the sum of the selectors leaving i.  From the
    initial state, fixed at 1, these rows fire one edge per step and make
    every position one-hot.  ``ze[k]`` is the sum of step k's tick
    selectors and ``c[k] = c[k-1] + ze[k]`` in ``[0, k]``.

    A selector the flow rows force equal to an earlier variable is that
    variable: when ``w[k-1][i]`` is one variable and one edge leaves i,
    that edge's selector is the variable, and the row, which would read
    ``0 = 0``, is left out.  A state entered by several edges and left
    by one gives that edge a selector and a row of its own; step k makes
    them, once it knows the out-degree, so exploration never runs a
    layer ahead.  A new selector is named after its target, ``w[k][j]``,
    when it is the only edge entering j, else ``x[k][t]``.  The new
    selectors are the step's decisions, in ``edges[k]`` order; a kept
    variable was listed where it first appeared.
    """
    model, graph = enc.model, enc.tdes
    before = enc.w[k - 1]
    graph.explore(max(before))
    edges, entering = [], {}  # with edge counts per target
    for i in before:
        for ev, j in graph.outgoing[i]:
            edges.append((i, ev, j))
            entering[j] = entering.get(j, 0) + 1
    enc.edges.append(edges)
    forced = {
        i: terms[0] for i, terms in before.items()
        if len(terms) == 1 and len(graph.outgoing[i]) == 1
    }
    step_vars = [
        forced[i] if i in forced else model.add_decision(model.add_var(
            f"w[{k}][{j}]" if entering[j] == 1 else f"x[{k}][{t}]", 0, 1
        ))
        for t, (i, _, j) in enumerate(edges)
    ]
    enc.x.append(step_vars)
    flows = {i: [(1, v) for v in before[i]] for i in before if i not in forced}
    after: dict[int, list[int]] = {j: [] for j in sorted(entering)}
    for (i, _, j), x in zip(edges, step_vars):
        after[j].append(x)
        if i in flows:
            flows[i].append((-1, x))
    enc.w.append({j: tuple(terms) for j, terms in after.items()})
    for row in flows.values():
        model.add(row, "=", 0)
    z = model.add_var(f"ze[{k}]", 0, 1)
    enc.ze.append(z)
    ticks = [(-1, x) for edge, x in zip(edges, step_vars) if edge[1] == TICK]
    model.add([(1, z)] + ticks, "=", 0)
    counter = model.add_var(f"c[{k}]", 0, k)
    terms = [(1, counter), (-1, z)]
    if k > 1:
        terms.append((-1, enc.c[k - 1]))
    model.add(terms, "=", 0)
    enc.c.append(counter)


def add_counter_threshold(
    model: IlpModel,
    plus: Sequence[int],
    bound: int,
    big_m: int,
    tag: str = "",
    *,
    minus: Sequence[int] = (),
    at_most: bool = False,
) -> int:
    """Indicator ``cge`` of ``counter >= bound``, or ``cle`` of
    ``counter <= bound`` with ``at_most``.

    ``counter`` is the sum of ``plus`` minus the sum of ``minus``:
    a sum of tick binaries, or a prefix-counter difference ``c[j] - c[k]``.
    With ``0 <= bound <= counter_max`` and ``big_m > counter_max``, where
    the counter lies in ``0..counter_max`` on every feasible point, the
    two rows force the indicator to its truth value; the strict side is
    shifted by one since everything is integral.
    """
    if at_most:  # counter <= bound  iff  -counter >= -bound
        plus, minus, bound = minus, plus, -bound
    z = model.add_var(("cle" if at_most else "cge") + tag, 0, 1)
    unit = [(1, v) for v in plus] + [(-1, v) for v in minus] + [(-big_m, z)]
    model.add(unit, "<=", bound - 1)
    model.add(unit, ">=", bound - big_m)
    return z


def _threshold(enc: Encoding, a: int, k: int, bound: int, at_most: bool) -> int:
    """The indicator ``zc[(a, k, at_most, bound)]``, built on first use."""
    key = (a, k, at_most, bound)
    if key not in enc.zc:
        enc.zc[key] = add_counter_threshold(
            enc.model, [enc.c[k]], bound, k - a + 1, f"{bound}[{a},{k}]",
            minus=[enc.c[a]] if a else [], at_most=at_most,
        )
    return enc.zc[key]


def _and_rows(model: IlpModel, z: int, operands: Sequence[int]) -> None:
    for op in operands:
        model.add([(1, z), (-1, op)], "<=", 0)
    model.add([(1, z)] + [(-1, op) for op in operands], ">=", 1 - len(operands))


def _encode_position(enc: Encoding, k: int) -> None:
    """Satisfaction binaries of every subformula demanded at position k,
    and every until window that ends there.

    A propositional slot is one row over the terms of ``w[k]``:
    ``z - sum(satisfying) = 0`` if at most half of the terms enter a
    state that satisfies it, else ``z + sum(others) = 1``, so a slot that
    holds in all states or none is a constant.  Walks the subformula table bottom-up so shared subtrees
    are encoded once and every operand exists before its rows.
    """
    graph, model, table, zphi = enc.tdes, enc.model, enc.table, enc.zphi
    for slot, node in enumerate(table.entries):
        # An until demanded at 0 only still gets its window ending at k.
        demanded = slot in (enc.everywhere if k else enc.demanded)
        if not (demanded or isinstance(node, Until)):
            continue
        kids = table.children[slot]
        if demanded:
            z = zphi[(slot, k)] = model.add_var(f"z{slot}[{k}]", 0, 1)
        sat = enc.holds[slot]
        if sat is not None:
            satisfying, others = [], []
            for i, terms in enc.w[k].items():
                side = satisfying if graph.states[i].activity in sat else others
                side.extend(terms)
            if len(satisfying) <= len(others):
                model.add([(1, z)] + [(-1, v) for v in satisfying], "=", 0)
            else:
                model.add([(1, z)] + [(1, v) for v in others], "=", 1)
        elif isinstance(node, Not):
            model.add([(1, z), (1, zphi[(kids[0], k)])], "=", 1)
        elif isinstance(node, And):
            _and_rows(model, z, [zphi[(kids[0], k)], zphi[(kids[1], k)]])
        elif isinstance(node, Or):
            operands = [zphi[(kids[0], k)], zphi[(kids[1], k)]]
            for op in operands:
                model.add([(1, z), (-1, op)], ">=", 0)
            model.add([(1, z)] + [(-1, op) for op in operands], "<=", 0)
        else:  # Until
            # An always-true left operand adds nothing to a window's
            # conjunction, so its satisfaction binaries are left out.
            constant_left = isinstance(table.entries[kids[0]], Truth)
            for a in range(k + 1 if slot in enc.everywhere else 1):
                # Window a..k counts 0..k - a ticks: it gets the thresholds
                # it can break, and nothing if it cannot reach node.lower.
                if node.lower > k - a:
                    continue
                operands = []
                if node.lower > 0:
                    operands.append(_threshold(enc, a, k, node.lower, False))
                if node.upper < k - a:
                    operands.append(_threshold(enc, a, k, node.upper, True))
                operands.append(zphi[(kids[1], k)])
                if not constant_left:
                    operands += [zphi[(kids[0], pos)] for pos in range(a, k)]
                if len(operands) == 1:  # the window is its right operand
                    z_step = operands[0]
                else:
                    z_step = model.add_var(f"u{slot}[{a},{k}]", 0, 1)
                    _and_rows(model, z_step, operands)
                enc.zu[(slot, a, k)] = z_step
                model.add([(1, zphi[(slot, a)]), (-1, z_step)], ">=", 0)


def _close(enc: Encoding) -> None:
    """Add the closing rows at the current horizon."""
    model, horizon = enc.model, enc.horizon
    enc.closing = model.num_constraints
    for slot, node in enumerate(enc.table.entries):
        if not isinstance(node, Until):
            continue
        for a in range(horizon + 1 if slot in enc.everywhere else 1):
            ends = range(a + node.lower, horizon + 1)
            terms = [(-1, enc.zu[(slot, a, j)]) for j in ends]
            model.add([(1, enc.zphi[(slot, a)])] + terms, "<=", 0)


def build_encoding(enc: Encoding, horizon: int) -> Encoding:
    """Grow ``enc`` in place to every run of ``horizon`` steps from the
    initial state, with the formula's satisfaction binaries at each
    position, and return it.

    The horizon may not be smaller than ``enc``'s.  Growing drops the
    closing rows, and any row added to the model after them, appends the
    new steps and positions, then adds the closing rows at the new
    horizon.
    """
    if type(horizon) is not int:
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon < enc.horizon:
        raise ValueError(
            f"cannot shrink a horizon-{enc.horizon} encoding to {horizon}"
        )
    enc.model.truncate(enc.closing)
    for k in range(enc.horizon + 1, horizon + 1):
        _encode_step(enc, k)
        _encode_position(enc, k)
    enc.horizon = horizon
    _close(enc)
    return enc


def decode(enc: Encoding, assignment: tuple[int, ...]) -> Fragment:
    """Read a satisfying assignment back into a certified run.

    Each step's chosen edge names an event, and the run is the replay of
    those events from the initial state.  A step that selects no unique
    edge, events that do not replay, or a run the direct evaluator
    rejects raise :class:`DecodeError`.
    """
    system = enc.tdes.untimed
    events = []
    for k in range(1, enc.horizon + 1):
        pairs = zip(enc.edges[k], enc.x[k])
        picked = [ev for (_, ev, _), var in pairs if assignment[var] == 1]
        if len(picked) != 1:
            raise DecodeError(f"step {k} does not select a unique edge")
        events.append(picked[0])
    try:
        fragment = replay_events(system, events)
    except FragmentError as exc:
        raise DecodeError(f"decoded run does not replay: {exc}") from exc
    if not evaluate(fragment, enc.formula, 0, system.labeling, system.atoms):
        raise DecodeError("decoded run fails certification against the formula")
    return fragment
