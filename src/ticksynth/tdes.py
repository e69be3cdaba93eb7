"""Timed discrete event systems with a global integer clock.

The base model is an untimed automaton over *activity* states whose events
carry integer occurrence bounds.  Time advances through a distinguished
``tick`` event: each state of the derived timed system pairs an activity
state with one countdown timer per event, and the transition rules
decrement, hold, or reset those timers depending on whether the event is
defined at the current activity.

Events come in two flavours.  A *prospective* event has a finite upper
bound and must occur before its timer expires (``tick`` is disabled while
a defined prospective event sits at zero).  A *remote* event has no upper
bound; its timer counts down the minimum delay and then saturates at zero,
after which the event may occur at any time.

As in Brandin and Wonham's timed DES, the rules form one partial
transition function, :func:`step`: an event is enabled exactly where its
successor is defined.  This module holds the untimed/timed system types,
that function, the reachable timed system explored breadth-first on
demand, execution fragments with tick counting, JSON ingestion, and DOT
export.
"""

from __future__ import annotations

import json
from collections import namedtuple
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

from .record import Checked, Record

TICK = "tick"

PROSPECTIVE = "prospective"
REMOTE = "remote"

DEFAULT_STATE_CAP = 1_000_000

T = TypeVar("T")


class InvalidSystemError(ValueError):
    """An untimed system violates a structural invariant."""


class StateCapError(RuntimeError):
    """The reachable timed state space grew past the configured cap."""


class SystemFormatError(ValueError):
    """A system description document is malformed."""


class FragmentError(ValueError):
    """A fragment document or fragment replay is invalid."""


class EventTiming(Checked, namedtuple("EventTiming", "kind lower upper")):
    """Occurrence bounds for one event, measured in ticks.

    ``lower`` must be an ``int`` (a ``bool`` is not one), and ``upper``
    ``None`` for remote events (no upper bound) and an ``int`` for
    prospective ones.  Value-level invariants (nonnegative bounds, lower
    <= upper) are checked by :class:`UntimedDes`, which reports every
    problem of a system at once.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, lower: int, upper: int | None = None
    ) -> EventTiming:
        if type(lower) is not int:
            raise ValueError("'lower' must be an integer")
        if kind == PROSPECTIVE:
            if type(upper) is not int:
                raise ValueError("prospective event needs integer 'upper'")
        elif kind == REMOTE:
            if upper is not None:
                raise ValueError("remote event must omit 'upper'")
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return super().__new__(cls, kind, lower, upper)

    @property
    def timer_limit(self) -> int:
        """Largest legal timer value; also the reset/default value."""
        return self.upper if self.kind == PROSPECTIVE else self.lower


class _Tabled(Record):
    __slots__ = ("_tables",)  # not a field: repr and pickling skip it


class UntimedDes(_Tabled):
    """Untimed activity automaton with per-event timing bounds.

    ``transitions`` is a partial function from (state, event) pairs to
    successor states.  ``labeling`` maps states to the atomic propositions
    that hold there; unlisted states carry the empty label set.
    Construction checks every structural invariant and raises
    :class:`InvalidSystemError` listing each violation.  It then derives
    the initial timers and, per activity, each timer's rule (``None``
    where its event is undefined, else whether it is prospective) and the
    events to try, ``tick`` included, in alphabet order; and per defined
    (activity, event) pair, the target, the event's window and its
    timer's position.
    """

    __slots__ = (
        "states", "events", "transitions", "initial", "atoms", "labeling",
        "timing",
    )

    def __init__(
        self,
        states: Iterable[str],
        events: Iterable[str],
        transitions: Mapping[tuple[str, str], str],
        initial: str,
        atoms: Iterable[str],
        labeling: Mapping[str, Iterable[str]],
        timing: Mapping[str, EventTiming],
    ) -> None:
        super().__init__(
            frozenset(states),
            frozenset(events),
            dict(transitions),
            initial,
            frozenset(atoms),
            {s: frozenset(aps) for s, aps in dict(labeling).items()},
            dict(timing),
        )
        problems: list[str] = []
        error = problems.append
        if TICK in self.events:
            error(f"event name {TICK!r} is reserved for the clock")
        if self.initial not in self.states:
            error(f"initial state {self.initial!r} is not a declared state")
        for (src, ev), dst in sorted(self.transitions.items()):
            where = f"transition ({src!r}, {ev!r})"
            if src not in self.states:
                error(f"{where}: source is not a declared state")
            if dst not in self.states:
                error(f"{where} -> {dst!r}: target is not a declared state")
            if ev not in self.events:
                error(f"{where}: event is not declared")
        for state, aps in sorted(self.labeling.items()):
            if state not in self.states:
                error(f"labeling entry for undeclared state {state!r}")
            for ap in sorted(aps - self.atoms):
                error(f"label {ap!r} on state {state!r} is not a declared atom")
        for ev in sorted(self.events - self.timing.keys()):
            error(f"event {ev!r} has no timing entry")
        for ev, tim in sorted(self.timing.items()):
            if ev not in self.events:
                error(f"timing entry for undeclared event {ev!r}")
                continue
            if not isinstance(tim, EventTiming):
                error(f"timing of event {ev!r} is {tim!r}, not an EventTiming")
                continue
            if tim.lower < 0:
                error(f"event {ev!r} has a negative lower bound")
            if tim.kind == PROSPECTIVE and tim.upper < tim.lower:
                error(
                    f"prospective event {ev!r} has lower bound {tim.lower} "
                    f"above upper bound {tim.upper}"
                )
        if problems:
            raise InvalidSystemError("invalid system: " + "; ".join(problems))
        order = self.event_order()
        rules = {state: [None] * len(order) for state in self.states}
        tries = {state: [TICK] for state in self.states}
        fires = {}
        for (state, ev), target in self.transitions.items():
            tim, at = self.timing[ev], order.index(ev)
            prospective = tim.kind == PROSPECTIVE
            rules[state][at] = prospective
            tries[state].append(ev)
            window = tim.upper - tim.lower if prospective else 0
            fires[state, ev] = (target, window, at)
        object.__setattr__(self, "_tables", (
            tuple((ev, self.timing[ev].timer_limit) for ev in order),
            {state: tuple(rule) for state, rule in rules.items()},
            {state: tuple(sorted(evs)) for state, evs in tries.items()},
            fires,
        ))

    def label(self, state: str) -> frozenset[str]:
        return self.labeling.get(state, frozenset())

    def event_order(self) -> tuple[str, ...]:
        return tuple(sorted(self.events))


class TimedState(NamedTuple):
    """One state of the timed system: an activity plus all event timers.

    Timers are stored as a tuple of (event, value) pairs sorted by event
    name, so equality and hashing are canonical.
    """

    activity: str
    timers: tuple[tuple[str, int], ...]

    def timer_map(self) -> dict[str, int]:
        return dict(self.timers)

    def __str__(self) -> str:
        inner = ",".join(str(v) for _, v in self.timers)
        return f"{self.activity}|{inner}"


def initial_state(system: UntimedDes) -> TimedState:
    """Initial timed state: every timer starts at its reset value."""
    return TimedState(system.initial, system._tables[0])


def step(
    system: UntimedDes, state: TimedState, event: str
) -> TimedState | None:
    """The timed transition function: the successor of ``state`` under
    ``event``, or ``None`` when ``event`` is not enabled there.

    ``tick`` is blocked by a defined prospective event whose timer is at
    zero; otherwise it counts every defined timer down (a remote one
    saturates at zero) and resets the undefined ones.  Any other event
    must be defined at the activity, so an undeclared one is never
    enabled, and its timer must sit inside the window left after the
    minimum delay (prospective) or at zero (remote).  It resets its own
    timer, keeps the timers of events defined at the target and resets
    the rest, as the system's tables say.
    """
    resets, rules, _, fires = system._tables
    if event == TICK:
        items = []
        rule = rules[state.activity]
        for (name, value), reset, prospective in zip(state.timers, resets, rule):
            if prospective is None:
                items.append(reset)
            elif value > 0:
                items.append((name, value - 1))
            elif prospective:
                return None
            else:
                items.append((name, 0))
        return TimedState(state.activity, tuple(items))

    firing = fires.get((state.activity, event))
    if firing is None:
        return None
    target, window, at = firing
    if not 0 <= state.timers[at][1] <= window:
        return None
    items = [
        pair if rule is not None else reset
        for pair, reset, rule in zip(state.timers, resets, rules[target])
    ]
    items[at] = resets[at]
    return TimedState(target, tuple(items))


class TimedDes:
    """The reachable timed system, as far as it has been explored.

    States are numbered in breadth-first discovery order, so the initial
    state has index 0, and a new graph holds that state only.
    :meth:`explore` is the one way to grow it: it expands states in index
    order, which numbers them exactly as a full breadth-first search
    does.  ``outgoing[i]``, present once state i is expanded, lists its
    ``(event, successor)`` pairs sorted by event; it is the graph's only
    edge store.
    """

    def __init__(
        self, untimed: UntimedDes, state_cap: int = DEFAULT_STATE_CAP
    ) -> None:
        if type(state_cap) is not int:
            raise ValueError(f"state cap must be an integer, got {state_cap!r}")
        if state_cap < 1:
            raise ValueError(f"state cap must be at least 1, got {state_cap}")
        start = initial_state(untimed)
        self.untimed = untimed
        self.state_cap = state_cap
        self.states = [start]
        self.index = {start: 0}
        self.outgoing: list[tuple[tuple[str, int], ...]] = []

    @property
    def n(self) -> int:
        return len(self.states)

    def explore(self, through: int) -> None:
        """Expand every state up to index ``through`` (every state, if no
        state has that index) that is not expanded yet, in index order,
        trying its activity's events and ``tick`` in alphabet order.
        Raises :class:`StateCapError` once more than ``state_cap`` states
        are discovered.
        """
        tries = self.untimed._tables[2]
        while len(self.outgoing) <= min(through, self.n - 1):
            i = len(self.outgoing)
            pairs = []
            for ev in tries[self.states[i].activity]:
                succ = step(self.untimed, self.states[i], ev)
                if succ is None:
                    continue
                j = self.index.get(succ)
                if j is None:
                    if self.n >= self.state_cap:
                        raise StateCapError(
                            "discovered timed state count exceeds cap "
                            f"{self.state_cap}"
                        )
                    j = self.index[succ] = self.n
                    self.states.append(succ)
                pairs.append((ev, j))
            self.outgoing.append(tuple(pairs))


def build_tdes(system: UntimedDes, state_cap: int = DEFAULT_STATE_CAP) -> TimedDes:
    """The whole reachable timed system: every state explored.  Raises
    :class:`StateCapError` once more than ``state_cap`` states are
    discovered."""
    graph = TimedDes(system, state_cap)
    graph.explore(state_cap)  # no state has index state_cap
    return graph


class Fragment(Checked, namedtuple("Fragment", "states events")):
    """Finite alternating run: states s(0)..s(H), events e(1)..e(H).

    The structural requirement here is only that lengths line up; whether
    the fragment actually replays on a given system is checked by
    :func:`fragment_errors`.
    """

    __slots__ = ()

    def __new__(
        cls, states: tuple[TimedState, ...], events: tuple[str, ...]
    ) -> Fragment:
        if len(states) != len(events) + 1:
            raise FragmentError(
                f"{len(states)} states do not alternate with "
                f"{len(events)} events"
            )
        return super().__new__(cls, states, events)

    @property
    def horizon(self) -> int:
        return len(self.events)

    def count(self, k: int, j: int) -> int:
        """Number of tick events strictly inside positions k..j."""
        if not 0 <= k <= j <= self.horizon:
            raise IndexError(f"count window ({k}, {j}) out of range")
        return self.events[k:j].count(TICK)

    def activities(self) -> tuple[str, ...]:
        return tuple(s.activity for s in self.states)


def fragment_errors(system: UntimedDes, fragment: Fragment) -> list[str]:
    """Compare the fragment with the replay of its events from the initial
    state; report the first mismatch, naming its step."""
    try:
        replay = replay_events(system, fragment.events)
    except FragmentError as exc:
        return [str(exc)]
    for k, (given, replayed) in enumerate(zip(fragment.states, replay.states)):
        if given != replayed:
            return [f"state {k} is {given}, replay yields {replayed}"]
    return []


def replay_events(system: UntimedDes, events: Iterable[str]) -> Fragment:
    """Build the unique fragment that performs ``events`` from the start."""
    events = tuple(events)
    states = [initial_state(system)]
    for k, ev in enumerate(events, start=1):
        if ev != TICK and ev not in system.events:
            raise FragmentError(f"event {ev!r} at step {k} is not declared")
        succ = step(system, states[-1], ev)
        if succ is None:
            raise FragmentError(f"event {ev!r} at step {k} is not enabled")
        states.append(succ)
    return Fragment(tuple(states), events)


# --- JSON interchange -------------------------------------------------------

def _names(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SystemFormatError(f"{what} must be a list of names")
    if len(set(value)) < len(value):
        pos = next(p for p, name in enumerate(value) if name in value[:p])
        raise SystemFormatError(f"{what}[{pos}]: duplicate name {value[pos]!r}")
    return value


def _known_keys(entry: dict, where: str, error: type, keys: str) -> None:
    for key in entry:
        if key not in keys.split():
            raise error(f"{where}: unknown key {key!r}")


def system_from_json(data: object) -> UntimedDes:
    """Build an untimed system from its JSON document form.

    Shape problems raise :class:`SystemFormatError` with the offending
    element; :class:`UntimedDes` raises :class:`InvalidSystemError` for
    the structural invariants.
    """
    if not isinstance(data, dict):
        raise SystemFormatError("system document must be a JSON object")
    keys = "states events transitions initial atoms labels"
    _known_keys(data, "system document", SystemFormatError, keys)
    for key in ("states", "events", "transitions", "initial"):
        if key not in data:
            raise SystemFormatError(f"system document lacks {key!r}")

    states = _names(data["states"], "'states'")
    if not isinstance(data["initial"], str):
        raise SystemFormatError("'initial' must be a state name")
    atoms = _names(data.get("atoms", []), "'atoms'")
    for key in ("events", "transitions"):
        if not isinstance(data[key], list):
            raise SystemFormatError(f"{key!r} must be a list")

    events: dict[str, EventTiming] = {}
    for pos, entry in enumerate(data["events"]):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise SystemFormatError(f"events[{pos}] needs 'name' and 'kind'")
        _known_keys(entry, f"events[{pos}]", SystemFormatError, "name kind lower upper")
        name = entry["name"]
        if not isinstance(name, str):
            raise SystemFormatError(f"events[{pos}]: 'name' must be a string")
        if name in events:
            raise SystemFormatError(f"events[{pos}]: duplicate event {name!r}")
        try:
            events[name] = EventTiming(
                entry["kind"], entry.get("lower", 0), entry.get("upper")
            )
        except ValueError as exc:
            raise SystemFormatError(f"events[{pos}]: {exc}") from exc

    transitions: dict[tuple[str, str], str] = {}
    for pos, entry in enumerate(data["transitions"]):
        if not isinstance(entry, dict) or not {"from", "event", "to"} <= set(entry):
            raise SystemFormatError(
                f"transitions[{pos}] needs 'from', 'event' and 'to'"
            )
        _known_keys(entry, f"transitions[{pos}]", SystemFormatError, "from event to")
        if not all(isinstance(entry[k], str) for k in ("from", "event", "to")):
            raise SystemFormatError(
                f"transitions[{pos}]: 'from', 'event' and 'to' must be names"
            )
        key = (entry["from"], entry["event"])
        if key in transitions and transitions[key] != entry["to"]:
            raise SystemFormatError(
                f"transitions[{pos}]: duplicate source/event pair {key!r} "
                "with a different target"
            )
        transitions[key] = entry["to"]

    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise SystemFormatError("'labels' must map states to atom lists")
    labeling = {
        s: frozenset(_names(aps, f"labels[{s!r}]")) for s, aps in labels.items()
    }

    return UntimedDes(
        states=frozenset(states),
        events=frozenset(events),
        transitions=transitions,
        initial=data["initial"],
        atoms=frozenset(atoms),
        labeling=labeling,
        timing=events,
    )


def _load_json(
    path: str | Path, read: Callable[[object], T], *errors: type
) -> T:
    """``read`` applied to the JSON document at ``path``.  A document that
    does not decode, or has an object that repeats a key, raises
    ``errors[0]``, and any of ``errors`` that ``read`` raises is raised
    again; each message starts with the path."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise errors[0](f"{path}: JSON object repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise errors[0](f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise errors[0](f"{path}: JSON nests too deeply") from exc
    try:
        return read(data)
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_system(path: str | Path) -> UntimedDes:
    return _load_json(
        path, system_from_json, SystemFormatError, InvalidSystemError
    )


def fragment_from_json(data: object, system: UntimedDes) -> Fragment:
    """Read a fragment document: alternating states and events.

    States are objects ``{"activity": ..., "timers": {...}}``, timer
    values integers.  Timers may be omitted, in which case the run is
    reconstructed by replaying the events from the initial state; provided
    activities (and timers, where present) are checked against the replay.
    """
    if not isinstance(data, dict) or "states" not in data or "events" not in data:
        raise FragmentError("fragment document needs 'states' and 'events'")
    _known_keys(data, "fragment document", FragmentError, "states events")
    raw_states = data["states"]
    raw_events = data["events"]
    if not isinstance(raw_states, list) or not isinstance(raw_events, list):
        raise FragmentError("'states' and 'events' must be lists")
    if len(raw_states) != len(raw_events) + 1:
        raise FragmentError(
            f"{len(raw_states)} states do not alternate with "
            f"{len(raw_events)} events"
        )

    for pos, ev in enumerate(raw_events):
        if not isinstance(ev, str):
            raise FragmentError(f"events[{pos}] must be an event name")

    for pos, entry in enumerate(raw_states):
        if not isinstance(entry, dict) or "activity" not in entry:
            raise FragmentError(f"states[{pos}] needs 'activity'")
        _known_keys(entry, f"states[{pos}]", FragmentError, "activity timers")
        if not isinstance(entry["activity"], str):
            raise FragmentError(f"states[{pos}]: 'activity' must be a string")
        timers = entry.get("timers")
        if timers is not None and not isinstance(timers, dict):
            raise FragmentError(f"states[{pos}]: 'timers' must be an object")
        for ev, value in (timers or {}).items():
            if type(value) is not int:
                raise FragmentError(
                    f"states[{pos}]: timer {ev!r} must be an integer"
                )

    replay = replay_events(system, raw_events)
    for pos, (entry, state) in enumerate(zip(raw_states, replay.states)):
        timers = entry.get("timers")
        if entry["activity"] != state.activity or (
            timers is not None and timers != state.timer_map()
        ):
            raise FragmentError(
                f"states[{pos}] does not match the replayed state: activity "
                f"{state.activity!r}, timers {state.timer_map()}"
            )
    return replay


def load_fragment(path: str | Path, system: UntimedDes) -> Fragment:
    return _load_json(
        path, lambda data: fragment_from_json(data, system), FragmentError
    )


def fragment_to_json(fragment: Fragment) -> dict:
    return {
        "states": [
            {"activity": s.activity, "timers": s.timer_map()}
            for s in fragment.states
        ],
        "events": list(fragment.events),
    }


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example document."""
    return Path(resources.files(__package__) / "fixtures" / name)


# --- DOT export -------------------------------------------------------------

def _dot_text(text: str) -> str:
    """``text`` escaped for a quoted DOT string or a ``//`` comment line."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def untimed_to_dot(system: UntimedDes) -> str:
    lines = ["digraph activity {", "  rankdir=LR;", "  node [shape=circle];"]
    for state in sorted(system.states):
        name = _dot_text(state)
        aps = _dot_text(",".join(sorted(system.label(state))))
        label = f"{name}\\n{{{aps}}}" if aps else name
        shape = ' style=bold' if state == system.initial else ""
        lines.append(f'  "{name}" [label="{label}"{shape}];')
    for (src, ev), dst in sorted(system.transitions.items()):
        src, ev, dst = map(_dot_text, (src, ev, dst))
        lines.append(f'  "{src}" -> "{dst}" [label="{ev}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tdes_to_dot(graph: TimedDes, highlight: Fragment | None = None) -> str:
    """DOT rendering of the timed system; tick edges dashed.

    When ``highlight`` is given, its states and transitions are drawn in
    red (the run overlay).
    """
    hot_states: set[int] = set()
    hot_edges: set[tuple[int, str, int]] = set()
    if highlight is not None:
        idx = [graph.index[s] for s in highlight.states]
        hot_states.update(idx)
        for k, ev in enumerate(highlight.events):
            hot_edges.add((idx[k], ev, idx[k + 1]))

    order = _dot_text(",".join(graph.untimed.event_order()))
    lines = [
        "digraph timed {",
        f"  // timer order: {order}",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for i, state in enumerate(graph.states):
        timers = ",".join(str(v) for _, v in state.timers)
        attrs = f'label="{_dot_text(state.activity)} | {timers}"'
        if i in hot_states:
            attrs += ", color=red, fontcolor=red"
        lines.append(f"  n{i} [{attrs}];")
    for i, pairs in enumerate(graph.outgoing):
        for ev, j in pairs:
            attrs = f'label="{_dot_text(ev)}"'
            if ev == TICK:
                attrs += ", style=dashed"
            if (i, ev, j) in hot_edges:
                attrs += ", color=red, fontcolor=red"
            lines.append(f"  n{i} -> n{j} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
