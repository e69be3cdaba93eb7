"""Small exact integer-linear feasibility engine.

Models hold integer variables with finite bounds and linear constraints
with integer coefficients; everything stays in exact integer arithmetic,
so there is no floating point anywhere in the solver.  Solving is
depth-first branch and bound in one decide–propagate–backtrack loop:
integer bounds propagation runs to a fixpoint after every decision, the
first unfixed variable of the model's decision list is branched next,
1 before 0, and once every decision is fixed the unfixed variable of
lowest index, values ascending.  Backtracking restores the deepest frame
with a value left from that frame's residual key (below).  The search is
completely deterministic.

Propagation is incremental and activity based, and ``solve`` and
``propagate_bounds`` share it.  Every constraint is stored as one or two
rows ``sum(coef * var) <= rhs`` of the form ``(pos, neg, unit, mirror)``:
``pos`` holds the positive terms and ``neg`` the negative ones, negated,
as tuples of ``(var, weight)`` pairs.  A unit row, one whose
coefficients are all ±1 over variables declared ``[0, 1]`` (the selector
and logic rows), stores tuples of bare variables instead.  An ``=``
constraint's second row is its mirror ``(neg, pos, unit)``, sharing both
tuples; each of the two stores the other's index as ``mirror``, and
every other row stores -1.  Declared bounds are fixed at ``add_var``, so
each row's declared slack (right-hand side minus minimum activity at the
declared bounds) and cap are computed once, when the row is added; a
solve starts from a copy of them.  The slack is updated on every bound
move.  A variable's watch stores name the rows whose minimum activity
its lower bound (a ``pos`` term) or its upper bound (a ``neg`` term)
enters, two stores per bound: unit rows as bare row indices, every other
row as ``(row, weight)`` pairs.  A move walks only the matching bound's
stores, and a unit row's entry needs neither its weight nor its cap,
which are both 1.  Queued unit rows settle before weighted ones, and a
unit row's forcing does not queue its mirror (see ``_Propagator``).

After a conflict-free propagation every variable below ``m``, the
unfixed variable of lowest index, is fixed, so what is left to solve is
given by the bounds of ``m`` and above and the slacks of the rows that
mix fixed and unfixed variables: rows wholly below ``m`` are satisfied,
and rows wholly at or above it are fixed by the bounds.  The residual
key of a node is those bounds and the slack of every row from the first
whose last variable is ``m`` or above (the extra rows keep the key
exact, only hit less often).  It is also all of the state the node's
subtree can change, so one key serves twice: as the state its frame
restores before each value it tries, and as the cache key of a refuted
residual problem.  A solve never searches the same refuted residual
problem twice.  A key is recorded, under its ``m``, when its frame is
exhausted, and a node whose key was recorded counts as a conflict.  Only
refuted subtrees are skipped, so a hit cannot change the returned
assignment, the least feasible point in branching order; it only lowers
``nodes``.  Keys live inside one solve, since a grown model's closing
rows change between horizons, and one solve stores at most
``CACHE_BYTES`` of them; past that it still looks keys up.

There is no objective function: the engine answers feasibility only, and
every returned assignment is re-checked by an independent verifier pass
before being handed back.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from typing import Iterable, NamedTuple


# Most bytes of refuted-subproblem keys one solve stores (see ``solve``).
CACHE_BYTES = 4 << 20


class ModelError(ValueError):
    """A variable or constraint was declared inconsistently."""


class LinearConstraint(NamedTuple):
    """``sum(coef * var) comparator rhs`` with integer data, as
    :meth:`IlpModel.add` stores it after checking it.

    ``terms`` pairs are (coefficient, variable index); the comparator is
    one of ``<=``, ``>=``, ``=``.
    """

    terms: tuple[tuple[int, int], ...]
    comparator: str
    rhs: int


class _ReadOnly(Sequence):
    """Read-only view of a list that its owner keeps growing."""

    def __init__(self, items: list[int]) -> None:
        self._items = items

    def __getitem__(self, pos: int) -> int:
        return self._items[pos]

    def __len__(self) -> int:
        return len(self._items)


class SolveResult(NamedTuple):
    """Outcome of a solve: infeasibility is a value, not an error."""

    feasible: bool
    assignment: tuple[int, ...] | None
    nodes: int


class IlpModel:
    """Mutable model builder.

    Equality constraints are stored as a row and its mirror, each naming
    the other's index; the user-level constraint list keeps the original
    form for dumps and for the verifier.  A finished model is never
    mutated by :func:`solve`, so independent solves of the same model may
    run concurrently.

    Declared bounds are fixed at :meth:`add_var`, and ``lower`` and
    ``upper`` are read-only views of them.  Each row's declared slack and
    cap are computed once, when the row is added, and every solve starts
    from a copy of them instead of a pass over the terms.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._lower: list[int] = []
        self._upper: list[int] = []
        self.lower: Sequence[int] = _ReadOnly(self._lower)
        self.upper: Sequence[int] = _ReadOnly(self._upper)
        self.constraints: list[LinearConstraint] = []
        # binaries ``solve`` branches on first, in this order, 1 before 0
        self.decisions: list[int] = []
        # rows (pos, neg, unit, mirror), each meaning sum(coef*var) <= rhs
        # (see the module docstring); the rhs lives on only in the slack
        self._rows: list[tuple[tuple, tuple, bool, int]] = []
        # watch stores: the rows whose minimum activity a variable's lower
        # bound (coef > 0) or upper bound (coef < 0) enters, unit rows as
        # bare row indices and all other rows as flat (row, |coef|) pairs;
        # most variables enter no weighted row, so an empty pair store is
        # the shared () until a row enters it
        self._unit_lo: list[list[int]] = []
        self._unit_hi: list[list[int]] = []
        self._watch_lo: list[list[int] | tuple[()]] = []
        self._watch_hi: list[list[int] | tuple[()]] = []
        # per row: slack and cap at the declared bounds; ascending rows
        # whose slack is below their cap (the rows a solve queues first)
        self._slack: list[int] = []
        self._cap: list[int] = []
        self._tight: list[int] = []
        # per row, the highest last variable of the rows up to it, so the
        # first row whose last variable is v or above is bisect_left(., v)
        self._reach: list[int] = []

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_var(self, name: str, lo: int, hi: int) -> int:
        if type(lo) is not int or type(hi) is not int:
            bound = hi if type(lo) is int else lo
            raise ModelError(
                f"variable {name!r}: bound {bound!r} is not an integer"
            )
        if lo > hi:
            raise ModelError(f"variable {name!r}: bounds [{lo}, {hi}] are empty")
        self.names.append(name)
        self._lower.append(lo)
        self._upper.append(hi)
        self._unit_lo.append([])
        self._unit_hi.append([])
        self._watch_lo.append(())
        self._watch_hi.append(())
        return len(self.names) - 1

    def add_decision(self, var: int) -> int:
        """Append ``var``, declared ``[0, 1]``, to the decision list."""
        if type(var) is not int or not 0 <= var < len(self.names) or (
                self._lower[var], self._upper[var]) != (0, 1):
            raise ModelError(f"decision {var!r} is not a variable in [0, 1]")
        self.decisions.append(var)
        return var

    def add(
        self, terms: Iterable[tuple[int, int]], comparator: str, rhs: int
    ) -> None:
        """Store ``sum(coef * var) comparator rhs``, ``terms`` being its
        (coef, var) pairs, as one row or as a row and its mirror.

        A ``>=`` row is stored negated.  An ``=`` row's mirror is ``(neg,
        pos, unit)``: its slack is the maximum activity minus the
        right-hand side, and it shares the row's cap and last variable.
        The two rows store each other's index as ``mirror``, and a ``<=``
        or ``>=`` row stores -1.
        Repeated terms are merged, then read once in variable order.

        Raises :class:`ModelError`, storing nothing, for an unknown
        comparator, a coefficient, variable index or right-hand side that
        is not an ``int`` (a ``bool`` is not one), or an index that names
        no variable.
        """
        if comparator not in ("<=", ">=", "="):
            raise ModelError(f"unknown comparator {comparator!r}")
        if type(rhs) is not int:
            raise ModelError(f"right-hand side {rhs!r} is not an integer")
        terms = tuple(terms)
        num_vars = len(self.names)
        sign = -1 if comparator == ">=" else 1
        merged: dict[int, int] = {}
        for coef, var in terms:
            if type(coef) is not int:
                raise ModelError(f"coefficient {coef!r} is not an integer")
            if type(var) is not int:
                raise ModelError(f"variable index {var!r} is not an integer")
            if not 0 <= var < num_vars:
                raise ModelError(f"constraint references unknown variable {var}")
            merged[var] = merged.get(var, 0) + sign * coef
        self.constraints.append(LinearConstraint(terms, comparator, rhs))
        row = len(self._rows)
        equal = comparator == "="
        lower, upper = self._lower, self._upper
        pos: list = []  # variables, paired with weights unless unit
        neg: list = []
        least = most = cap = 0  # minimum and maximum activity
        last = -1
        unit = True
        for var in sorted(merged):
            coef = merged[var]
            lo, hi = lower[var], upper[var]
            if coef > 0:
                pos.append(var)
                least += coef * lo
                most += coef * hi
            elif coef < 0:
                coef = -coef
                neg.append(var)
                least -= coef * hi
                most -= coef * lo
            else:
                continue
            if coef * (hi - lo) > cap:
                cap = coef * (hi - lo)
            unit = unit and coef == 1 and lo == 0 and hi == 1
            last = var
        if not unit:  # pair each variable with its weight
            pos = [(var, merged[var]) for var in pos]
            neg = [(var, -merged[var]) for var in neg]
        pos, neg = tuple(pos), tuple(neg)
        reach = self._reach
        if reach and reach[-1] > last:
            last = reach[-1]
        rhs *= sign
        mirror = row + 1 if equal else -1
        for slack in (rhs - least, most - rhs) if equal else (rhs - least,):
            if slack < cap:
                self._tight.append(row)
            if unit:
                for var in pos:
                    self._unit_lo[var].append(row)
                for var in neg:
                    self._unit_hi[var].append(row)
            else:
                for var, weight in pos:
                    self._watch_lo[var] = self._watch_lo[var] or []
                    self._watch_lo[var] += (row, weight)
                for var, weight in neg:
                    self._watch_hi[var] = self._watch_hi[var] or []
                    self._watch_hi[var] += (row, weight)
            self._rows.append((pos, neg, unit, mirror))
            pos, neg, mirror = neg, pos, row  # the mirror of an = row
            row += 1
            self._slack.append(slack)
            self._cap.append(cap)
            reach.append(last)

    def truncate(self, count: int) -> None:
        """Drop every constraint after the first ``count``.

        Rows are removed newest first, so each one's watch entries are the
        tails of its variables' lists in the store it went into, and its
        slack, cap and tight entry are the tails of theirs.
        """
        if count < 0:
            raise ModelError(f"cannot keep {count} constraints")
        while len(self.constraints) > count:
            removed = self.constraints.pop()
            for _ in range(2 if removed.comparator == "=" else 1):
                pos, neg, unit, _ = self._rows.pop()
                if unit:
                    for var in pos:
                        self._unit_lo[var].pop()
                    for var in neg:
                        self._unit_hi[var].pop()
                else:
                    for var, _ in pos:
                        self._watch_lo[var] = self._watch_lo[var][:-2] or ()
                    for var, _ in neg:
                        self._watch_hi[var] = self._watch_hi[var][:-2] or ()
                self._slack.pop()
                self._cap.pop()
                self._reach.pop()
                if self._tight and self._tight[-1] == len(self._rows):
                    self._tight.pop()


class _Propagator:
    """The box and row slacks of one solve.

    On backtracking, ``solve`` restores them from a frame's residual key,
    the same key it records refuted subproblems under.  A row is queued
    only when its slack falls below its cap, ``max |coef| * declared
    span``: with more slack it can neither fail nor tighten a bound.
    Tightenings never exclude an integer point of the row.  A move takes
    its step off each unit row it watches and pushes the row onto the
    ``units`` stack at slack 0 or below; it walks the pair store, with
    weights and caps, only when that store is not empty, and appends the
    rows it queues to the ``weighted`` FIFO queue.  ``propagate`` pops
    the stack and reads the queue only when the stack is empty.  A
    bounds-propagation fixpoint does not depend on the order in which
    rows are popped, and a row with negative slack is always queued, so
    every order reaches the same fixpoint or a conflict.

    A unit row's cap is 1, and a slack only falls while the queues run
    (restores happen with both empty), so a unit row is popped only at
    slack 0, or below it in conflict.  At slack 0 every free ``pos``
    variable is fixed to 0 and every free ``neg`` variable to 1, which is
    what the general rule gives, without its arithmetic.  That forcing
    fixes every variable of the row at its activity, the right-hand side,
    so it leaves the row's mirror at slack 0 with nothing to force and no
    conflict to report: an unqueued mirror is flagged as queued while
    the row forces, so that the forcing moves do not queue it.
    """

    def __init__(self, model: IlpModel) -> None:
        self.rows = model._rows
        self.unit_lo = model._unit_lo
        self.unit_hi = model._unit_hi
        self.watch_lo = model._watch_lo
        self.watch_hi = model._watch_hi
        self.lo = list(model._lower)
        self.hi = list(model._upper)
        self.slack = list(model._slack)
        self.cap = model._cap  # read-only
        self.units: list[int] = []  # unit rows, popped last in first out
        self.weighted: deque[int] = deque()  # popped when units is empty
        self.queued = bytearray(len(self.rows))
        for row in model._tight:
            self.queued[row] = 1
            (self.units if self.rows[row][2] else self.weighted).append(row)

    def move(self, var: int, is_upper: bool, value: int) -> None:
        """Tighten one bound of ``var`` and queue the rows it may affect."""
        if is_upper:
            step = self.hi[var] - value
            self.hi[var] = value
            units, watch = self.unit_hi[var], self.watch_hi[var]
        else:
            step = value - self.lo[var]
            self.lo[var] = value
            units, watch = self.unit_lo[var], self.watch_lo[var]
        slack, queued = self.slack, self.queued
        for row in units:  # a unit row's weight and cap are 1
            room = slack[row] - step
            slack[row] = room
            if room <= 0 and not queued[row]:
                queued[row] = 1
                self.units.append(row)
        if watch:
            cap = self.cap
            pairs = iter(watch)
            for row, weight in zip(pairs, pairs):
                room = slack[row] - weight * step
                slack[row] = room
                if room < cap[row] and not queued[row]:
                    queued[row] = 1
                    self.weighted.append(row)

    def propagate(self) -> bool:
        """Run the queues to a fixpoint; returns True on conflict."""
        rows, lo, hi, slack = self.rows, self.lo, self.hi, self.slack
        units, weighted = self.units, self.weighted
        queued, move = self.queued, self.move
        while units or weighted:
            row = units.pop() if units else weighted.popleft()
            queued[row] = 0
            room = slack[row]
            if room < 0:
                while units:  # leave no stale flags behind
                    queued[units.pop()] = 0
                while weighted:
                    queued[weighted.pop()] = 0
                return True
            pos, neg, unit, mirror = rows[row]
            if unit:  # room is 0: every free term is forced to its bound
                held = mirror >= 0 and not queued[mirror]
                if held:  # the forced row leaves its mirror at slack 0
                    queued[mirror] = 1
                for var in pos:
                    if lo[var] != hi[var]:
                        move(var, True, 0)
                for var in neg:
                    if lo[var] != hi[var]:
                        move(var, False, 1)
                if held:
                    queued[mirror] = 0
                continue
            for var, weight in pos:
                if weight * (hi[var] - lo[var]) > room:
                    move(var, True, lo[var] + room // weight)
            for var, weight in neg:
                if weight * (hi[var] - lo[var]) > room:
                    move(var, False, hi[var] - room // weight)
        return False


def propagate_bounds(
    model: IlpModel,
) -> tuple[list[int], list[int]] | None:
    """One propagation fixpoint from the declared bounds.

    Returns the tightened (lower, upper) box, or ``None`` when the model
    is already proven infeasible.  The box never excludes any integer
    point that satisfies all constraints.
    """
    propagator = _Propagator(model)
    if propagator.propagate():
        return None
    return propagator.lo, propagator.hi


def check_assignment(
    model: IlpModel, assignment: tuple[int, ...]
) -> list[str]:
    """Independent verifier: report every violated bound or constraint."""
    problems = []
    if len(assignment) != model.num_variables:
        return [
            f"assignment has {len(assignment)} values for "
            f"{model.num_variables} variables"
        ]
    lower, upper = model._lower, model._upper
    for var in range(model.num_variables):
        value = assignment[var]
        if not lower[var] <= value <= upper[var]:
            problems.append(
                f"{model.names[var]} = {value} outside "
                f"[{lower[var]}, {upper[var]}]"
            )
    for pos, constraint in enumerate(model.constraints):
        total = sum(coef * assignment[var] for coef, var in constraint.terms)
        ok = (
            total <= constraint.rhs
            if constraint.comparator == "<="
            else total >= constraint.rhs
            if constraint.comparator == ">="
            else total == constraint.rhs
        )
        if not ok:
            problems.append(
                f"constraint {pos}: {total} {constraint.comparator} "
                f"{constraint.rhs} fails"
            )
    return problems


def solve(model: IlpModel) -> SolveResult:
    """Depth-first search with bounds propagation at every node.

    One loop: propagate (the root first, then each decision); if there is
    no conflict, push a frame, or return the assignment once every
    variable is fixed.  A frame branches on the first unfixed variable of
    ``model.decisions``, trying 1 and then 0, or once every decision is
    fixed on ``m``, the unfixed variable of lowest index, trying its
    values in ascending order.  Then take the deepest frame with a value
    left, restore its state (a frame pushed in this pass holds it
    already), fix its variable to that value and loop.  Identical models
    yield identical assignments, and a model with no decisions searches
    in index order.  ``nodes`` counts value decisions.

    A frame is ``(m, decision position, branched variable, values left,
    first keyed row, key)``, its key (see the module docstring) built
    once, at the push.  Every variable below ``m`` and every row before
    the first keyed row are out of the subtree's reach, so three slice
    assignments from the key restore the frame's state.  A node whose key
    this solve has already refuted pushes no frame and counts as a
    conflict; an exhausted frame is popped without a restore and its key
    recorded.  Keys are bytes when every value fits, tuples otherwise;
    the list is converted through one ``bytearray``, which gives the same
    bytes and the same ``ValueError`` as ``bytes`` of it, faster.  Once
    the keys' sizes reach ``CACHE_BYTES``, no more are stored, but frames
    still build theirs.  The verdict and the assignment are those of the
    search without the cache.
    """
    propagator = _Propagator(model)
    lo, hi, slack = propagator.lo, propagator.hi, propagator.slack
    move, propagate = propagator.move, propagator.propagate
    decisions = model.decisions
    n, count = len(lo), len(decisions)
    nodes = var = at = 0
    stack: list[tuple] = []  # frames: (m, at, branched, tries, first row, key)
    refuted: dict[int, set[bytes | tuple[int, ...]]] = {}
    room = CACHE_BYTES
    reach = model._reach

    while True:
        pushed = False
        if not propagate():
            while var < n and lo[var] == hi[var]:
                var += 1
            if var == n:
                assignment = tuple(lo)
                problems = check_assignment(model, assignment)
                if problems:
                    raise RuntimeError(
                        "solver produced an invalid assignment: "
                        + "; ".join(problems)
                    )
                return SolveResult(True, assignment, nodes)
            while at < count and lo[decisions[at]] == hi[decisions[at]]:
                at += 1
            first = bisect_left(reach, var)
            values = lo[var:]
            values += hi[var:]
            values += slack[first:]
            try:
                key = bytes(bytearray(values))
            except ValueError:  # a value outside 0..255
                key = tuple(values)
            if var not in refuted or key not in refuted[var]:
                branched = decisions[at] if at < count else var
                tries = (1, 0) if at < count else range(lo[var], hi[var] + 1)
                stack.append((var, at, branched, iter(tries), first, key))
                pushed = True
        while stack:
            var, at, branched, tries, first, key = stack[-1]
            value = next(tries, None)
            if value is not None:
                if not pushed:
                    width = n - var
                    lo[var:] = key[:width]
                    hi[var:] = key[width : 2 * width]
                    slack[first:] = key[2 * width :]
                break
            stack.pop()
            if room > 0 and stack:  # after the bottom frame, nothing looks up
                refuted.setdefault(var, set()).add(key)
                room -= sys.getsizeof(key)
        if not stack:
            return SolveResult(False, None, nodes)
        nodes += 1
        if lo[branched] < value:
            move(branched, False, value)
        if hi[branched] > value:
            move(branched, True, value)


def dump(model: IlpModel) -> str:
    """Plain-text rendering of the model with named variables."""
    lines = [
        f"integer feasibility model: {model.num_variables} variables, "
        f"{model.num_constraints} constraints"
    ]
    for var, (name, lo, hi) in enumerate(
        zip(model.names, model._lower, model._upper)
    ):
        lines.append(f"var {var}: {name} in [{lo}, {hi}]")
    for pos, constraint in enumerate(model.constraints):
        parts = []
        for coef, var in constraint.terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign}{abs(coef)} {model.names[var]}")
        body = " ".join(parts) if parts else "0"
        lines.append(f"c{pos}: {body} {constraint.comparator} {constraint.rhs}")
    return "\n".join(lines) + "\n"
