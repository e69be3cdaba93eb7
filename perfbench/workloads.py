"""Benchmark inputs: the ringN and plantK generators and the three workloads.

Generators are stdlib-only and return system documents in the same JSON
form as the bundled fixtures, so the program ingests them through its own
``system_from_json``.  Every draw comes from ``random.Random`` in a fixed
order, so one seed always gives one document.

The workload seed varies the inputs without changing their size or their
answer: it renames the events of ring6 and plant4 (the names fix the
timed-state numbering and so the model's variable order and the solver's
branching order) and shuffles the order of the ring-found requests.  The
timing draws themselves stay those of seed 1.  Fresh draws per seed would
change a request's cost by up to 7x, which no bound on a median survives,
and some draws (ring6 with seed 5) have no run inside the horizon range,
a verdict that enumeration cannot confirm in reasonable time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 1


def ring_doc(n: int, seed: int = DEFAULT_SEED) -> dict:
    """Bidirectional ring of ``n`` locations ``p1..pn`` starting at ``p1``.

    A hop from ``pi`` to a neighbour ``pj`` is ``move_i_j`` (remote, lower
    bound 0) into the transit state ``pi_j``, then ``reach_i_j`` (remote,
    lower bound ``randint(1, 3)``) into ``pj``.  Draws go for i = 1..n,
    first toward i+1, then toward i-1 (mod n).  Location ``pi`` carries
    the atom ``api``.
    """
    if n < 3:
        raise ValueError("a ring needs at least three locations")
    rng = random.Random(seed)
    states = [f"p{i}" for i in range(1, n + 1)]
    events: list[dict] = []
    transitions: list[dict] = []
    for i in range(1, n + 1):
        for j in (i % n + 1, (i - 2) % n + 1):
            via, move, reach = f"p{i}_{j}", f"move_{i}_{j}", f"reach_{i}_{j}"
            states.append(via)
            events.append({"name": move, "kind": "remote", "lower": 0})
            events.append(
                {"name": reach, "kind": "remote", "lower": rng.randint(1, 3)}
            )
            transitions.append({"from": f"p{i}", "event": move, "to": via})
            transitions.append({"from": via, "event": reach, "to": f"p{j}"})
    return {
        "states": states,
        "events": events,
        "transitions": transitions,
        "initial": "p1",
        "atoms": [f"ap{i}" for i in range(1, n + 1)],
        "labels": {f"p{i}": [f"ap{i}"] for i in range(1, n + 1)},
    }


def plant_doc(k: int, seed: int = DEFAULT_SEED) -> dict:
    """``k`` parallel machines, each idle or busy; the product automaton.

    Machine m starts with ``start{m}`` (remote, lower bound
    ``randint(0, 1)``) and finishes with ``finish{m}`` (prospective on
    ``[lo, lo + randint(1, 2)]`` with ``lo = randint(1, 3)``), drawn per
    machine in that order.  A product state is named by its busy bits and
    carries ``busy{m}`` for every busy machine.
    """
    rng = random.Random(seed)
    events: list[dict] = []
    for m in range(k):
        events.append(
            {"name": f"start{m}", "kind": "remote", "lower": rng.randint(0, 1)}
        )
        lo = rng.randint(1, 3)
        events.append(
            {
                "name": f"finish{m}",
                "kind": "prospective",
                "lower": lo,
                "upper": lo + rng.randint(1, 2),
            }
        )
    states: list[str] = []
    transitions: list[dict] = []
    labels: dict[str, list[str]] = {}
    for bits in itertools.product((0, 1), repeat=k):
        name = "s" + "".join(map(str, bits))
        states.append(name)
        labels[name] = [f"busy{m}" for m in range(k) if bits[m]]
        for m in range(k):
            flipped = list(bits)
            flipped[m] ^= 1
            event = f"finish{m}" if bits[m] else f"start{m}"
            target = "s" + "".join(map(str, flipped))
            transitions.append({"from": name, "event": event, "to": target})
    return {
        "states": states,
        "events": events,
        "transitions": transitions,
        "initial": "s" + "0" * k,
        "atoms": [f"busy{m}" for m in range(k)],
        "labels": labels,
    }


def rename_events(doc: dict, rng: random.Random) -> dict:
    """Same system with every event renamed ``e<rank>_<name>``.

    The ranks are a random permutation, so the sorted event order, and
    with it the timed-state numbering, changes while the timed graph stays
    isomorphic: sizes and minimal horizons are unchanged.
    """
    names = [event["name"] for event in doc["events"]]
    ranks = list(range(len(names)))
    rng.shuffle(ranks)
    new = {name: f"e{rank:02d}_{name}" for name, rank in zip(names, ranks)}
    return {
        **doc,
        "events": [{**event, "name": new[event["name"]]} for event in doc["events"]],
        "transitions": [
            {**t, "event": new[t["event"]]} for t in doc["transitions"]
        ],
    }


@dataclass(frozen=True)
class Case:
    """One synthesis request and its pinned answer.

    ``system`` is either a bundled fixture name or a system document.
    ``horizon`` is the minimal horizon, or ``None`` for "no run in range";
    only a "found" answer is cheap enough to confirm by enumeration.
    """

    name: str
    system: str | dict
    formula: str
    horizon_min: int
    horizon_max: int
    horizon: int | None


def ring_found(seed: int) -> list[Case]:
    rng = random.Random(seed)
    ring6 = ring_doc(6)
    if seed != DEFAULT_SEED:
        ring6 = rename_events(ring6, rng)
    cases = [
        Case("ring4-two-goal", "ring4.json", "F[1,5] ap2 & F[1,5] ap4", 5, 15, 11),
        Case("ring4-avoid-until", "ring4.json", "!ap2 U[3,5] ap3", 5, 15, 7),
        Case("ring6", ring6, "F[1,8] ap3 & F[1,12] ap5", 1, 16, 13),
    ]
    rng.shuffle(cases)
    return cases


def ring10_refute(seed: int) -> list[Case]:
    # Seed-1 draws and names always: enumeration cannot confirm "not
    # found" here, so the pinned verdict must stay the one measured.
    formula = "F[1,10] ap4 & F[1,20] ap7 & F[1,25] ap9"
    return [Case("ring10", ring_doc(10), formula, 1, 23, None)]


def plant4_wide(seed: int) -> list[Case]:
    plant = plant_doc(4)
    if seed != DEFAULT_SEED:
        plant = rename_events(plant, random.Random(seed))
    formula = "F[0,3] (busy0 & busy1 & busy2 & busy3)"
    return [Case("plant4", plant, formula, 1, 8, 5)]


WORKLOADS = {
    "ring-found": ring_found,
    "ring10-refute": ring10_refute,
    "plant4-wide": plant4_wide,
}
