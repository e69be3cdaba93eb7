"""Independent reference that decides bounded synthesis by formula progression.

"Is there a run of horizon H from the initial state that satisfies the
formula?"  is answered by a depth-first walk over the timed graph that
carries the obligation the rest of the run must meet, as temporal-logic
planners do (Bacchus & Kabanza, *Using temporal logics to express search
control knowledge for planning*, AIJ 2000; De Giacomo & Vardi, *Linear
temporal logic and linear dynamic logic on finite traces*, IJCAI 2013).
It shares no code with the integer encoding or the direct evaluator.

Obligations have their own form, built from the parsed formula through
its subformula table, so no formula node is ever hashed:

    True, False                       constants
    ("atom", name)
    ("not", f)
    ("and", frozenset), ("or", frozenset)   flattened, at least two members
    ("until", left, right, lower, upper)

One step from a state with atoms ``label``, along an edge with ``t = 1``
for ``tick`` and 0 otherwise, progresses ``f`` to what the rest of the
run must satisfy: an atom becomes a constant, the Boolean connectives
progress their operands, and

    left U[l,u] right  becomes  ([l <= 0] and prog right)
                                or (prog left and left U[max(0, l-t), u-t] right)

whose second disjunct is false when ``u - t < 0``.  At the last position
an until holds iff ``l <= 0`` and its right operand holds there.

A failed (timed state, steps left, obligation) triple is memoized.  Its
key does not depend on the horizon, so one memo serves the whole range.
Edges are tried in ``outgoing`` order, so the first run found is the
lexicographically first, as ``oracle_synthesize`` enumerates them.

``horizon_range`` answers every horizon at once.  Layer k is the set of
(timed state, obligation) pairs after k steps, a function of layer
k - 1, so once a layer equals an earlier one the layers, and with them
the answers, repeat with a fixed period.  Past a pair budget the walk
answers "undecided", never a verdict.  When no layer has a pair that
holds at the end, the union of the layers is a certificate that no
horizon has a run, which ``check_no_run_certificate`` checks.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ticksynth.logic import And, Atom, Formula, Not, Or, Truth, Until, subformulas
from ticksynth.synth import SynthesisRequest
from ticksynth.tdes import TICK, Fragment, TimedDes


def _neg(f):
    if f is True or f is False:
        return not f
    return f[1] if f[0] == "not" else ("not", f)


def _junction(kind: str, operands) -> object:
    """``and``/``or`` of ``operands``, flattened and simplified."""
    unit = kind == "and"  # True for and, False for or
    members = set()
    for f in operands:
        if f is unit:
            continue
        if f is (not unit):
            return not unit
        if f[0] == kind:
            members |= f[1]
        else:
            members.add(f)
    if not members:
        return unit
    if len(members) == 1:
        return members.pop()
    return (kind, frozenset(members))


def obligation(formula: Formula) -> object:
    """The obligation form of a parsed formula, built bottom-up."""
    table = subformulas(formula)
    done: list[object] = []
    for node, kids in zip(table.entries, table.children):
        below = [done[kid] for kid in kids]
        if isinstance(node, Truth):
            done.append(True)
        elif isinstance(node, Atom):
            done.append(("atom", node.name))
        elif isinstance(node, Not):
            done.append(_neg(below[0]))
        elif isinstance(node, And):
            done.append(_junction("and", below))
        elif isinstance(node, Or):
            done.append(_junction("or", below))
        elif isinstance(node, Until):
            done.append(("until", below[0], below[1], node.lower, node.upper))
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return done[table.root]


def progress(f, label: frozenset, t: int):
    """What the run from the next position must satisfy for ``f`` to hold
    here, at a state with atoms ``label``, when the step ticks ``t`` times."""
    if f is True or f is False:
        return f
    kind = f[0]
    if kind == "atom":
        return f[1] in label
    if kind == "not":
        return _neg(progress(f[1], label, t))
    if kind in ("and", "or"):
        return _junction(kind, [progress(g, label, t) for g in f[1]])
    _, left, right, lower, upper = f
    now = _junction("and", [lower <= 0, progress(right, label, t)])
    if upper - t < 0:
        return now
    later = ("until", left, right, max(0, lower - t), upper - t)
    return _junction("or", [now, _junction("and", [progress(left, label, t), later])])


def holds_at_end(f, label: frozenset) -> bool:
    """Whether ``f`` holds at the last position, a state with atoms ``label``."""
    if f is True or f is False:
        return f
    kind = f[0]
    if kind == "atom":
        return f[1] in label
    if kind == "not":
        return not holds_at_end(f[1], label)
    if kind == "and":
        return all(holds_at_end(g, label) for g in f[1])
    if kind == "or":
        return any(holds_at_end(g, label) for g in f[1])
    _, _, right, lower, _ = f
    return lower <= 0 and holds_at_end(right, label)


class Progression:
    """Runs of one system that satisfy one formula, found by progression.

    ``failed`` holds every refuted (state, steps left, obligation) triple,
    and is kept across calls of :meth:`run`.
    """

    def __init__(self, graph: TimedDes, formula: Formula) -> None:
        self.graph = graph
        self.start = obligation(formula)
        self.failed: set[tuple[int, int, object]] = set()

    def label(self, i: int) -> frozenset:
        return self.graph.untimed.label(self.graph.states[i].activity)

    def run(self, horizon: int) -> Fragment | None:
        """The first run of ``horizon`` >= 1 steps, in ``outgoing`` order,
        that satisfies the formula, or ``None``."""
        graph, failed = self.graph, self.failed
        root = (0, horizon, self.start)
        if root in failed:
            return None
        path: list[tuple[str, int]] = []  # the (event, state) steps taken
        stack = [(root, self._edges(0))]
        while stack:
            (i, left, f), edges = stack[-1]
            for ev, j in edges:
                g = progress(f, self.label(i), 1 if ev == TICK else 0)
                key = (j, left - 1, g)
                if g is False or key in failed:
                    continue
                if left == 1:
                    if holds_at_end(g, self.label(j)):
                        path.append((ev, j))
                        states = [0] + [state for _, state in path]
                        return Fragment(
                            tuple(graph.states[s] for s in states),
                            tuple(event for event, _ in path),
                        )
                    failed.add(key)
                    continue
                path.append((ev, j))
                stack.append((key, self._edges(j)))
                break
            else:
                failed.add(stack.pop()[0])
                if path:
                    path.pop()
        return None

    def successors(self, pairs) -> frozenset:
        """The (state, obligation) pairs one step after ``pairs``; a false
        obligation is dropped."""
        after = set()
        for i, f in pairs:
            edges = self._edges(i)
            label = self.label(i)
            for ev, j in edges:
                g = progress(f, label, 1 if ev == TICK else 0)
                if g is not False:
                    after.add((j, g))
        return frozenset(after)

    def _edges(self, i: int):
        self.graph.explore(i)
        return iter(self.graph.outgoing[i])


def progression_synthesize(
    request: SynthesisRequest,
) -> tuple[int | None, Fragment | None]:
    """``(horizon, run)`` for the smallest horizon of ``request``'s range
    with a satisfying run, the first such run in ``outgoing`` order; or
    ``(None, None)`` when no horizon in range has one."""
    graph = TimedDes(request.system, request.state_cap)
    search = Progression(graph, request.formula)
    for horizon in range(request.horizon_min, request.horizon_max + 1):
        run = search.run(horizon)
        if run is not None:
            return horizon, run
    return None, None


class HorizonRange(NamedTuple):
    """Every horizon's answer, from the layers of (state, obligation) pairs.

    Layer k holds the pairs reachable in k steps; layer ``end`` equals
    the earlier layer ``start``, so from ``start`` on the layers repeat
    with period ``end - start``.  ``feasible`` holds the horizons in
    1..``end`` whose layer has a pair that holds at the end, ``pairs``
    the number of distinct pairs in layers 0..``end``, and ``union`` the
    pairs of layers 1..``end``.
    """

    feasible: frozenset[int]
    start: int
    end: int
    pairs: int
    union: frozenset

    def holds(self, horizon: int) -> bool:
        """Whether some run of ``horizon`` >= 1 steps satisfies the formula."""
        period = self.end - self.start
        if horizon > self.end:
            horizon -= period * -(-(horizon - self.end) // period)
        return horizon in self.feasible

    def first(self, low: int, high: int) -> int | None:
        """The smallest feasible horizon in ``low..high``, or ``None``."""
        return next((h for h in range(low, high + 1) if self.holds(h)), None)


def horizon_range(
    graph: TimedDes, formula: Formula, budget: int
) -> HorizonRange | None:
    """Walk the layers until one repeats an earlier one, or return
    ``None`` ("undecided") once more than ``budget`` pairs are held."""
    search = Progression(graph, formula)
    layer = frozenset({(0, search.start)})
    seen, held = {layer: 0}, set(layer)
    feasible, union = set(), set()
    for k in itertools.count(1):
        layer = search.successors(layer)
        held |= layer
        union |= layer
        if any(holds_at_end(f, search.label(i)) for i, f in layer):
            feasible.add(k)
        if layer in seen:
            return HorizonRange(
                frozenset(feasible), seen[layer], k, len(held), frozenset(union)
            )
        if len(held) > budget:
            return None
        seen[layer] = k


def check_no_run_certificate(graph: TimedDes, formula: Formula, union) -> bool:
    """Whether ``union`` proves that no run of any horizon >= 1 satisfies
    the formula: it holds every successor of the initial pair, is closed
    under successors, and no pair in it holds at the end."""
    search = Progression(graph, formula)
    return (
        search.successors({(0, search.start)}) <= union
        and search.successors(union) <= union
        and not any(holds_at_end(f, search.label(i)) for i, f in union)
    )
