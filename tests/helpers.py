"""Shared generators and reference implementations for the test suite.

The reference evaluators and brute-force feasibility checks here stay
deliberately independent of the code paths they validate: the evaluator
is a direct memo-free recursion, ILP feasibility is decided by exhaustive
enumeration of assignments, and induced valuations are computed from a
run with nothing but counting and the direct evaluator.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

import numpy as np

from ticksynth.encode import Encoding
from ticksynth.ilp import IlpModel
from ticksynth.logic import (
    TRUE,
    And,
    Atom,
    Formula,
    Not,
    Or,
    Truth,
    Until,
    evaluate,
)
from ticksynth.tdes import (
    PROSPECTIVE,
    REMOTE,
    TICK,
    EventTiming,
    Fragment,
    TimedDes,
    TimedState,
    UntimedDes,
)


def abstract_fragment(activities, events) -> Fragment:
    """Fragment over bare activities (no timers), for semantics tests."""
    return Fragment(
        tuple(TimedState(a, ()) for a in activities), tuple(events)
    )


def worked_example_fragment() -> Fragment:
    """The mixed sequence a,tick,a,sigma,b,tick,a used in semantics tests."""
    return abstract_fragment(["a", "a", "b", "a"], ["tick", "sigma", "tick"])


WORKED_LABELS = {"a": {"a"}, "b": {"b"}}
WORKED_ATOMS = {"a", "b"}


def random_system(
    rng: random.Random, max_states: int = 5, density: float = 0.55
) -> UntimedDes:
    """Small random untimed system with mixed timing kinds, always valid.

    Each (state, event) pair gets a transition with probability
    ``density``; the default keeps every draw of the existing tests.
    """
    n_states = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n_states)]
    n_events = rng.randint(1, 4)
    events = [f"e{i}" for i in range(n_events)]
    timing = {}
    for ev in events:
        lower = rng.randint(0, 2)
        if rng.random() < 0.5:
            timing[ev] = EventTiming(PROSPECTIVE, lower, lower + rng.randint(0, 2))
        else:
            timing[ev] = EventTiming(REMOTE, lower)
    transitions = {}
    for src in states:
        for ev in events:
            if rng.random() < density:
                transitions[(src, ev)] = rng.choice(states)
    if not transitions:  # keep at least one non-tick edge around
        transitions[(states[0], events[0])] = states[-1]
    n_atoms = rng.randint(1, 3)
    atoms = [f"ap{i}" for i in range(n_atoms)]
    labeling = {
        s: frozenset(ap for ap in atoms if rng.random() < 0.4) for s in states
    }
    return UntimedDes(
        states=frozenset(states),
        events=frozenset(events),
        transitions=transitions,
        initial=states[0],
        atoms=frozenset(atoms),
        labeling=labeling,
        timing=timing,
    )


def random_formula(
    rng: random.Random, atoms: list[str], horizon: int, depth: int = 3
) -> Formula:
    """Random formula over the core node kinds with windows inside 0..H."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return TRUE
        return Atom(rng.choice(atoms))
    pick = rng.random()
    if pick < 0.2:
        return Not(random_formula(rng, atoms, horizon, depth - 1))
    if pick < 0.45:
        return And(
            random_formula(rng, atoms, horizon, depth - 1),
            random_formula(rng, atoms, horizon, depth - 1),
        )
    if pick < 0.7:
        return Or(
            random_formula(rng, atoms, horizon, depth - 1),
            random_formula(rng, atoms, horizon, depth - 1),
        )
    low = rng.randint(0, horizon)
    high = rng.randint(low, horizon)
    return Until(
        random_formula(rng, atoms, horizon, depth - 1),
        random_formula(rng, atoms, horizon, depth - 1),
        low,
        high,
    )


def random_fragment(
    rng: random.Random, graph: TimedDes, horizon: int
) -> Fragment | None:
    """Uniform random walk of exactly ``horizon`` steps, if one exists."""
    path = [0]
    events = []
    for _ in range(horizon):
        options = graph.outgoing[path[-1]]
        if not options:
            return None
        ev, j = rng.choice(options)
        events.append(ev)
        path.append(j)
    return Fragment(tuple(graph.states[i] for i in path), tuple(events))


def reference_eval(fragment, node, k, labels, atoms) -> bool:
    """Memo-free direct recursion over the satisfaction definition."""
    horizon = fragment.horizon
    if isinstance(node, Atom):
        if node.name not in atoms:
            raise ValueError(f"atom {node.name!r} unknown")
        return node.name in labels.get(fragment.states[k].activity, ())
    if node == TRUE:
        return True
    if isinstance(node, Not):
        return not reference_eval(fragment, node.operand, k, labels, atoms)
    if isinstance(node, And):
        return reference_eval(
            fragment, node.left, k, labels, atoms
        ) and reference_eval(fragment, node.right, k, labels, atoms)
    if isinstance(node, Or):
        return reference_eval(
            fragment, node.left, k, labels, atoms
        ) or reference_eval(fragment, node.right, k, labels, atoms)
    if isinstance(node, Until):
        return any(
            node.lower <= fragment.count(k, j) <= node.upper
            and reference_eval(fragment, node.right, j, labels, atoms)
            and all(
                reference_eval(fragment, node.left, i, labels, atoms)
                for i in range(k, j)
            )
            for j in range(k, horizon + 1)
        )
    raise TypeError(node)


def untimed_until_holds(fragment, left, right, k, labels, atoms) -> bool:
    """Plain finite-trace until, ignoring tick counts entirely."""
    return any(
        reference_eval(fragment, right, j, labels, atoms)
        and all(
            reference_eval(fragment, left, i, labels, atoms)
            for i in range(k, j)
        )
        for j in range(k, fragment.horizon + 1)
    )


# --- ILP brute force ---------------------------------------------------------

def enumerate_feasible(model: IlpModel):
    """Yield every assignment satisfying all constraints (tiny models)."""
    ranges = [
        range(model.lower[v], model.upper[v] + 1)
        for v in range(model.num_variables)
    ]
    for values in product(*ranges):
        ok = True
        for constraint in model.constraints:
            total = sum(c * values[v] for c, v in constraint.terms)
            if constraint.comparator == "<=":
                ok = total <= constraint.rhs
            elif constraint.comparator == ">=":
                ok = total >= constraint.rhs
            else:
                ok = total == constraint.rhs
            if not ok:
                break
        if ok:
            yield values


def brute_force_feasible(model: IlpModel) -> bool:
    """Vectorized 0/1 enumeration; requires all-binary variable bounds."""
    n = model.num_variables
    if n == 0:
        return next(iter(enumerate_feasible(model)), None) is not None
    assert all(model.lower[v] >= 0 and model.upper[v] <= 1 for v in range(n))
    grid = (
        (np.arange(2**n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
    ).astype(np.int64)
    # variables pinned by bounds restrict the grid
    mask = np.ones(len(grid), dtype=bool)
    for v in range(n):
        if model.lower[v] == 1:
            mask &= grid[:, v] == 1
        if model.upper[v] == 0:
            mask &= grid[:, v] == 0
    for constraint in model.constraints:
        coefs = np.zeros(n, dtype=np.int64)
        for c, v in constraint.terms:
            coefs[v] += c
        lhs = grid @ coefs
        if constraint.comparator == "<=":
            mask &= lhs <= constraint.rhs
        elif constraint.comparator == ">=":
            mask &= lhs >= constraint.rhs
        else:
            mask &= lhs == constraint.rhs
        if not mask.any():
            return False
    return bool(mask.any())


def random_model(rng: random.Random, n_vars: int) -> IlpModel:
    """Random all-binary model with rows biased toward mixed verdicts."""
    model = IlpModel()
    for v in range(n_vars):
        model.add_var(f"b{v}", 0, 1)
    witness = [rng.randint(0, 1) for _ in range(n_vars)]
    for _ in range(rng.randint(1, n_vars + 4)):
        support = rng.sample(range(n_vars), rng.randint(1, min(n_vars, 6)))
        terms = [(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), v) for v in support]
        comparator = rng.choice(["<=", "<=", ">=", ">=", "="])
        anchor = sum(c * witness[v] for c, v in terms)
        rhs = anchor + rng.randint(-2, 2)
        model.add(terms, comparator, rhs)
    return model


def random_unit_model(rng: random.Random) -> IlpModel:
    """Random model of ±1 rows over binaries; in about half the draws the
    rows also reach variables declared [1, 1], [0, 0], [0, 2], [-1, 0] or
    [1, 2], which make a row that reads them no unit row."""
    model = IlpModel()
    n = rng.randint(2, 7)
    for v in range(n):
        model.add_var(f"b{v}", 0, 1)
    if rng.random() < 0.5:
        others = [(1, 1), (0, 0), (0, 2), (-1, 0), (1, 2)]
        for lo, hi in rng.sample(others, rng.randint(1, 3)):
            model.add_var(f"o{model.num_variables}", lo, hi)
    for _ in range(rng.randint(1, n + 2)):
        support = rng.sample(
            range(model.num_variables), rng.randint(1, min(4, n))
        )
        terms = [(rng.choice([-1, 1]), v) for v in support]
        model.add(terms, rng.choice(["<=", ">=", "="]), rng.randint(-1, 2))
    return model


def random_symmetric_model(rng: random.Random) -> IlpModel:
    """Random all-binary model whose first variables are interchangeable.

    The prefix variables enter every row only through their sum ``P``,
    each row with one coefficient for all of them, so prefixes with equal
    sums pose the same residual problem on the suffix.  Most models also
    get a core that propagation cannot refute: three pairs ``>= 1`` and
    ``x + y + z - P <= r`` for r in -2..0.  The search refutes the sum
    ``P = 1 - r`` once per prefix with that sum, which are the repeats the
    solver's cache of refuted subproblems skips.
    """
    prefix, suffix = rng.randint(2, 4), rng.randint(3, 6)
    model = IlpModel()
    for v in range(prefix):
        model.add_var(f"p{v}", 0, 1)
    for v in range(suffix):
        model.add_var(f"s{v}", 0, 1)
    rest = range(prefix, prefix + suffix)
    witness = [rng.randint(0, 1) for _ in range(prefix + suffix)]
    for _ in range(rng.randint(0, 4)):
        support = rng.sample(rest, rng.randint(1, min(suffix, 4)))
        terms = [(rng.choice([-2, -1, 1, 2]), v) for v in support]
        if rng.random() < 0.6:
            coef = rng.choice([-2, -1, 1, 2])
            terms += [(coef, v) for v in range(prefix)]
        anchor = sum(c * witness[v] for c, v in terms)
        model.add(terms, rng.choice(["<=", ">="]), anchor + rng.randint(-1, 2))
    if rng.random() < 0.7:
        x, y, z = rng.sample(rest, 3)
        for a, b in ((x, y), (x, z), (y, z)):
            model.add([(1, a), (1, b)], ">=", 1)
        core = [(1, x), (1, y), (1, z)] + [(-1, v) for v in range(prefix)]
        model.add(core, "<=", rng.randint(-2, 0))
    return model


def reference_search(
    model: IlpModel,
) -> tuple[bool, tuple[int, ...] | None, int]:
    """The solver's search without its cache: depth-first in index order,
    values ascending, with :func:`reference_propagate` at every node.

    Bounds propagation has one fixpoint whatever order it pops rows in, so
    this visits the nodes an uncached ``solve`` visits.  Returns
    ``(feasible, assignment, nodes)``; ``nodes`` counts value decisions.
    """
    nodes = 0

    def dfs(lo: list[int], hi: list[int]) -> tuple[int, ...] | None:
        nonlocal nodes
        box = reference_propagate(model, (lo, hi))
        if box is None:
            return None
        lo, hi = box
        var = next(
            (v for v in range(model.num_variables) if lo[v] < hi[v]), None
        )
        if var is None:
            return tuple(lo)
        for value in range(lo[var], hi[var] + 1):
            nodes += 1
            point = dfs(
                lo[:var] + [value] + lo[var + 1 :],
                hi[:var] + [value] + hi[var + 1 :],
            )
            if point is not None:
                return point
        return None

    point = dfs(list(model.lower), list(model.upper))
    return point is not None, point, nodes


def reference_propagate(
    model: IlpModel, box: tuple[list[int], list[int]] | None = None
) -> tuple[list[int], list[int]] | None:
    """Bounds propagation to fixpoint by full recomputation.

    Rows are rebuilt from the public constraint list.  Every popped row's
    minimum activity is recomputed from scratch, and every row a moved
    variable occurs in is requeued.  Starts from ``box`` (the declared
    bounds when omitted) and returns the tightened box, or ``None`` when
    some row's minimum activity exceeds its right-hand side.
    """
    rows = []
    for constraint in model.constraints:
        merged: dict[int, int] = {}
        for coef, var in constraint.terms:
            merged[var] = merged.get(var, 0) + coef
        terms = [(coef, var) for var, coef in merged.items() if coef]
        if constraint.comparator in ("<=", "="):
            rows.append((terms, constraint.rhs))
        if constraint.comparator in (">=", "="):
            rows.append(([(-c, v) for c, v in terms], -constraint.rhs))
    occurs: list[list[int]] = [[] for _ in range(model.num_variables)]
    for row, (terms, _) in enumerate(rows):
        for _, var in terms:
            occurs[var].append(row)
    lo, hi = (model.lower, model.upper) if box is None else box
    lo, hi = list(lo), list(hi)
    queue = deque(range(len(rows)))
    queued = set(queue)
    while queue:
        row = queue.popleft()
        queued.discard(row)
        terms, rhs = rows[row]
        slack = rhs - sum(c * (lo[v] if c > 0 else hi[v]) for c, v in terms)
        if slack < 0:
            return None
        for coef, var in terms:
            if coef > 0 and coef * (hi[var] - lo[var]) > slack:
                hi[var] = lo[var] + slack // coef
            elif coef < 0 and -coef * (hi[var] - lo[var]) > slack:
                lo[var] = hi[var] - slack // -coef
            else:
                continue
            for other in occurs[var]:
                if other not in queued:
                    queued.add(other)
                    queue.append(other)
    return lo, hi


# --- induced valuations ------------------------------------------------------

def induced_valuation(enc: Encoding, fragment: Fragment) -> tuple[int, ...]:
    """Valuation a genuine run induces on every variable of the encoding.

    Only the variables the encoding has are filled.  State vectors and
    edge selectors come from the run itself, tick
    indicators from its events, prefix tick counters and threshold
    indicators from real tick counts, and satisfaction variables from the
    direct evaluator.
    """
    graph = enc.tdes
    system = graph.untimed
    horizon = enc.horizon
    assert fragment.horizon == horizon
    values = [0] * enc.model.num_variables

    path = [graph.index[s] for s in fragment.states]
    for k in range(horizon + 1):
        values[enc.w[k][path[k]]] = 1
    for k in range(1, horizon + 1):
        values[enc.ze[k]] = 1 if fragment.events[k - 1] == TICK else 0
        values[enc.c[k]] = fragment.count(0, k)
    for k in range(1, horizon + 1):
        edge = (path[k - 1], fragment.events[k - 1], path[k])
        values[enc.x[k][enc.edges[k].index(edge)]] = 1

    table = enc.table
    sat = {}
    for (slot, k), var in enc.zphi.items():
        sat[(slot, k)] = evaluate(
            fragment, table.entries[slot], k, system.labeling, system.atoms
        )
        values[var] = int(sat[(slot, k)])
    for (k, j, at_most, bound), var in enc.zc.items():
        ticks = fragment.count(k, j)
        values[var] = int(ticks <= bound if at_most else ticks >= bound)
    for (slot, k, j), z_step in enc.zu.items():
        node = table.entries[slot]
        left, right = table.children[slot]
        ticks = fragment.count(k, j)
        window = node.lower <= ticks <= node.upper
        ok = window and sat[(right, j)]
        if not isinstance(table.entries[left], Truth):  # left out, as encoded
            ok = ok and all(sat[(left, pos)] for pos in range(k, j))
        values[z_step] = int(ok)
    return tuple(values)
