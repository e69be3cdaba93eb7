import hashlib
import random
from collections import Counter

import pytest

from ticksynth.encode import (
    DecodeError,
    Encoding,
    add_counter_threshold,
    build_encoding,
    decode,
)
from ticksynth.ilp import IlpModel, check_assignment, dump, propagate_bounds, solve
from ticksynth.logic import (
    TRUE,
    And,
    Atom,
    Not,
    Or,
    Truth,
    UnknownAtomError,
    Until,
    parse,
)
from ticksynth.tdes import (
    REMOTE,
    TICK,
    EventTiming,
    TimedDes,
    UntimedDes,
    build_tdes,
    fixture_path,
    load_system,
    system_from_json,
)

from helpers import (
    induced_valuation,
    perfbench_workloads,
    random_formula,
    random_fragment,
    random_system,
    reference_propagate,
)
from ticksynth.synth import enumerate_fragments
from ticksynth.logic import evaluate


def pulse_system():
    """One activity, one remote event with a one-tick delay.

    Timed graph: s0=(A,1) --tick--> s1=(A,0); s1 has a tick self-loop and
    the event resets it to s0.  The pair (s0, s1) is joined only by tick;
    the pair (s1, s0) only by the event, and s0 has no tick predecessor.
    """
    return UntimedDes(
        states={"A"},
        events={"pulse"},
        transitions={("A", "pulse"): "A"},
        initial="A",
        atoms={"lit"},
        labeling={"A": {"lit"}},
        timing={"pulse": EventTiming(REMOTE, 1)},
    )


# --- trajectory -----------------------------------------------------------------

def test_trajectory_sizes_on_ring(ring_tdes):
    horizon = 11
    enc = build_encoding(Encoding(ring_tdes, TRUE), horizon)
    assert (ring_tdes.n, sum(map(len, ring_tdes.outgoing))) == (28, 44)
    # states reachable in k steps, and the edges leaving the layer before
    layers = [len(state) for state in enc.w]
    steps = [len(edges) for edges in enc.edges]
    assert layers == [1, 3, 5, 7, 10, 14, 18, 22, 25, 27, 28, 28]
    assert steps == [0, 3, 5, 8, 13, 18, 23, 30, 35, 39, 42, 44]
    # the initial state's variable and the distinct selectors, then per
    # step: tick indicator and counter; the root `true` is demanded at
    # position 0 only.  A later state's indicator is a sum of selectors.
    run = {v for state in enc.w for terms in state.values() for v in terms}
    assert run - {v for step in enc.x for v in step} == set(enc.w[0][0])
    run |= {v for step in enc.x for v in step}
    assert enc.model.num_variables == len(run) + 2 * horizon + 1
    assert enc.model.num_variables == 193
    # per step: the flow row of each state of the layer before, unless
    # its indicator is one variable and one edge leaves it, then tick and
    # counter rows; `true` adds its row and the root pin.  The flow rows
    # make every layer one-hot and the initial state is pinned by its
    # bounds, so neither has a row of its own.
    flows = 0
    for k, edges in enumerate(enc.edges[1:], 1):
        leaving = Counter(i for i, _, _ in edges)
        flows += sum(
            leaving[i] != 1 or len(terms) != 1
            for i, terms in enc.w[k - 1].items()
        )
    assert enc.model.num_constraints == flows + 2 * horizon + 2
    assert enc.model.num_constraints == 93


def test_state_vectors_cover_exactly_the_reachable_layers():
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng = random.Random(1994)
    horizon = 4
    for _ in range(120):
        graph = build_tdes(random_system(rng), state_cap=5000)
        enc = build_encoding(Encoding(graph, TRUE), horizon)
        for k in range(horizon + 1):
            ends = {
                graph.index[frag.states[-1]]
                for frag in enumerate_fragments(graph, k)
            }
            assert list(enc.w[k]) == sorted(ends)


def assert_no_forced_copies(enc):
    """Every state indicator is the tuple of the selectors entering it,
    every selector an earlier variable forces is that variable, and no
    row equates two run variables or names a variable twice."""
    names = enc.model.names
    for k in range(1, enc.horizon + 1):
        edges, before, after = enc.edges[k], enc.w[k - 1], enc.w[k]
        leaving = Counter(i for i, _, _ in edges)
        entering = Counter(j for _, _, j in edges)
        assert list(after) == sorted(entering)
        for j, terms in after.items():
            assert terms == tuple(
                x for (_, _, end), x in zip(edges, enc.x[k]) if end == j
            )
        for t, ((i, _, j), x) in enumerate(zip(edges, enc.x[k])):
            if leaving[i] == 1 and len(before[i]) == 1:
                assert (x,) == before[i]
            elif entering[j] == 1:
                assert names[x] == f"w[{k}][{j}]"
            else:
                assert names[x] == f"x[{k}][{t}]"
    run = {v for state in enc.w for terms in state.values() for v in terms}
    run |= {v for step in enc.x for v in step}
    for row in enc.model.constraints:
        variables = [var for _, var in row.terms]
        assert len(variables) == len(set(variables)), row
        # a flow row of two terms would equate two run variables, or
        # belong to a state left by no edge, which no timed graph has
        assert len(row.terms) != 2 or not set(variables) <= run, row


def test_forced_selectors_reuse_their_state_variable(ring_tdes):
    for text, horizon in (("true", 11), ("F[1,5] ap2 & F[1,5] ap4", 11),
                          ("!ap2 U[3,5] ap3", 7)):
        enc = build_encoding(Encoding(ring_tdes, parse(text)), horizon)
        assert_no_forced_copies(enc)
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng = random.Random(1994)
    for _ in range(120):
        graph = build_tdes(random_system(rng), state_cap=5000)
        assert_no_forced_copies(build_encoding(Encoding(graph, TRUE), 4))


def test_decisions_are_the_selectors_in_edge_order(ring_tdes):
    """Each step appends its new selectors in ``edges[k]`` order: a
    selector that is an earlier variable is listed only where it first
    appeared, and ``w[0][0]``, fixed by its bounds, is not listed.  A
    grown model lists what a fresh one does."""
    rng = random.Random(2024)
    graphs = [ring_tdes] + [
        build_tdes(random_system(rng), state_cap=5000) for _ in range(40)
    ]
    reused = 0
    for graph in graphs:
        phi = random_formula(rng, sorted(graph.untimed.atoms), 6)
        enc = build_encoding(Encoding(graph, phi), 6)
        seen, listed = set(enc.w[0][0]), []
        for k in range(1, 7):
            for x in enc.x[k]:
                if x not in seen:
                    seen.add(x)
                    listed.append(x)
        assert enc.model.decisions == listed
        grown = build_encoding(Encoding(graph, phi), 2)
        assert build_encoding(grown, 6).model.decisions == listed
        reused += sum(map(len, enc.x)) - len(listed)
    assert reused > 0


WORKLOADS = perfbench_workloads()

# (states whose indicator root propagation fixes at 0, those it fixes at
# 1) at each horizon the horizon loop tries, or None where it refutes the
# horizon: the counts the model with one variable per state gave
ROOT_FIXED_STATES = [
    ("ring4.json", "F[1,5] ap2 & F[1,5] ap4", 5, [(0, 1)] * 7),
    ("ring4.json", "!ap2 U[3,5] ap3", 5, [None] * 2 + [(0, 1)]),
    (
        WORKLOADS["ring_doc"](6), "F[1,8] ap3 & F[1,12] ap5", 1,
        [None] * 8 + [(0, 1)] * 5,
    ),
    (
        WORKLOADS["ring_doc"](10), "F[1,10] ap4 & F[1,20] ap7 & F[1,25] ap9",
        1, [None] * 16 + [(0, 1)] * 7,
    ),
    (
        WORKLOADS["plant_doc"](4), "F[0,3] (busy0 & busy1 & busy2 & busy3)",
        1, [None] * 4 + [(0, 1)],
    ),
    (
        "ring4.json", "F[1,8] (ap3 & F[1,4] ap1) & G[0,30] !ap4", 1,
        [None] * 9 + [(54, 1), (61, 1)],
    ),
]


@pytest.mark.parametrize(
    ("spec", "text", "low", "fixed"), ROOT_FIXED_STATES,
    ids=["two-goal", "avoid-until", "ring6", "ring10", "plant4", "nested-ring4"],
)
def test_root_propagation_fixes_the_same_states(spec, text, low, fixed):
    # a state's indicator is the sum of its terms, so its bounds are the
    # sums of theirs
    if isinstance(spec, str):
        system = load_system(fixture_path(spec))
    else:
        system = system_from_json(spec)
    enc, seen = Encoding(TimedDes(system), parse(text)), []
    for horizon in range(low, low + len(fixed)):
        build_encoding(enc, horizon)
        box = propagate_bounds(enc.model)
        if box is None:
            seen.append(None)
            continue
        lo, hi = box
        bounds = [
            (sum(lo[v] for v in terms), sum(hi[v] for v in terms))
            for state in enc.w for terms in state.values()
        ]
        seen.append((bounds.count((0, 0)), bounds.count((1, 1))))
    assert seen == fixed


def test_model_over_explored_graph_matches_model_over_full_graph():
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng, formulas = random.Random(1994), random.Random(5)
    for trial in range(120):
        system = random_system(rng)
        full = build_tdes(system, state_cap=5000)
        for horizon in range(1, 5):
            phi = random_formula(formulas, sorted(system.atoms), horizon)
            explored = build_encoding(Encoding(TimedDes(system), phi), horizon)
            expected = build_encoding(Encoding(full, phi), horizon)
            assert dump(explored.model) == dump(expected.model), trial


def test_root_demands_only_position_zero(ring_tdes, phi_two_goals):
    horizon = 11
    enc = build_encoding(Encoding(ring_tdes, phi_two_goals), horizon)
    table = enc.table
    assert isinstance(table.entries[table.root], And)
    untils = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Until)
    ]
    assert len(untils) == 2
    for slot in untils:
        # only the windows anchored at 0, one per end position that can
        # count the one tick `F[1,5]` needs
        windows = sorted((a, j) for (s, a, j) in enc.zu if s == slot)
        assert windows == [(0, j) for j in range(1, horizon + 1)]
    assert [k for (slot, k) in enc.zphi if slot == table.root] == [0]
    # no window reads the goals' shared `true` left operand, so it is not
    # demanded and has no binary
    (truth,) = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Truth)
    ]
    assert [k for (slot, k) in enc.zphi if slot == truth] == []


def test_trajectory_pins_initial_state(ring_tdes):
    enc = build_encoding(Encoding(ring_tdes, TRUE), 2)
    (start,) = enc.w[0][0]
    assert enc.model.lower[start] == enc.model.upper[start] == 1


def test_single_state_tick_loop_forces_every_step():
    system = UntimedDes(
        states={"only"}, events=set(), transitions={}, initial="only",
        atoms=set(), labeling={}, timing={},
    )
    graph = build_tdes(system)
    enc = build_encoding(Encoding(graph, TRUE), 3)
    box = propagate_bounds(enc.model)
    assert box is not None
    lo, hi = box
    for k in range(4):
        (var,) = enc.w[k][0]  # one edge enters each layer's only state
        assert lo[var] == hi[var] == 1


def test_dead_end_state_makes_longer_horizons_infeasible():
    # the whole graph, then every edge out of s1 dropped
    pruned = build_tdes(pulse_system())
    pruned.outgoing[1] = ()
    enc = build_encoding(Encoding(pruned, TRUE), 2)
    assert not solve(enc.model).feasible
    enc1 = build_encoding(Encoding(pruned, TRUE), 1)
    assert solve(enc1.model).feasible


# --- tick indicators --------------------------------------------------------------

def test_tick_only_pair_forces_indicator_up():
    graph = build_tdes(pulse_system())
    enc = build_encoding(Encoding(graph, TRUE), 1)
    box = propagate_bounds(enc.model)
    lo, hi = box
    # the only step from s0 goes to s1 via tick
    assert lo[enc.ze[1]] == hi[enc.ze[1]] == 1


def test_tickless_target_forces_indicator_down():
    graph = build_tdes(pulse_system())
    enc = build_encoding(Encoding(graph, TRUE), 2)
    # pin the second step back to s0: only the event edge fits
    enc.model.add([(1, v) for v in enc.w[2][0]], "=", 1)
    box = propagate_bounds(enc.model)
    lo, hi = box
    assert lo[enc.ze[2]] == hi[enc.ze[2]] == 0


# --- counter thresholds ------------------------------------------------------------

def test_threshold_pair_for_fixed_count():
    model = IlpModel()
    bits = [model.add_var(f"t{i}", 0, 1) for i in range(4)]
    for i, bit in enumerate(bits):
        model.add([(1, bit)], "=", 1 if i < 2 else 0)  # count fixed to 2
    z_ge = add_counter_threshold(model, bits, 1, big_m=5)
    z_le = add_counter_threshold(model, bits, 3, big_m=5, at_most=True)
    result = solve(model)
    assert result.feasible
    assert result.assignment[z_ge] == 1
    assert result.assignment[z_le] == 1
    assert [model.names[z] for z in (z_ge, z_le)] == ["cge", "cle"]


@pytest.mark.parametrize("horizon", [1, 3, 6])
def test_threshold_truth_table_small(horizon):
    big_m = horizon + 1
    for bound in range(horizon + 1):
        for count in range(horizon + 1):
            model = IlpModel()
            bits = [model.add_var(f"t{i}", 0, 1) for i in range(horizon)]
            for i, bit in enumerate(bits):
                model.add([(1, bit)], "=", 1 if i < count else 0)
            z_ge = add_counter_threshold(model, bits, bound, big_m)
            z_le = add_counter_threshold(model, bits, bound, big_m, at_most=True)
            result = solve(model)
            assert result.feasible
            assert result.assignment[z_ge] == (1 if count >= bound else 0)
            assert result.assignment[z_le] == (1 if count <= bound else 0)


def test_threshold_pair_for_empty_window():
    # a counter with no terms at all is 0
    for bound, expected_ge in ((0, 1), (1, 0)):
        model = IlpModel()
        z_ge = add_counter_threshold(model, [], bound, big_m=4)
        z_le = add_counter_threshold(model, [], bound, big_m=4, at_most=True)
        result = solve(model)
        assert result.feasible
        assert result.assignment[z_ge] == expected_ge
        assert result.assignment[z_le] == 1  # zero ticks never exceed a bound


def test_thresholds_over_a_counter_difference():
    # c[j] - c[k] as ``plus`` minus ``minus``, with both counters fixed
    for high, low, bound in ((5, 2, 3), (5, 3, 3), (4, 4, 1), (6, 0, 5)):
        model = IlpModel()
        ends = [model.add_var("cj", high, high), model.add_var("ck", low, low)]
        z_ge = add_counter_threshold(model, ends[:1], bound, 7, minus=ends[1:])
        z_le = add_counter_threshold(
            model, ends[:1], bound, 7, minus=ends[1:], at_most=True
        )
        result = solve(model)
        assert result.feasible
        assert result.assignment[z_ge] == int(high - low >= bound)
        assert result.assignment[z_le] == int(high - low <= bound)


def test_window_bound_above_horizon_is_handled():
    # upper bound far beyond the horizon: thresholds must not go infeasible
    graph = build_tdes(pulse_system())
    enc = build_encoding(Encoding(graph, parse("F[0,99] lit")), 2)
    assert solve(enc.model).feasible


# --- formula rows -------------------------------------------------------------------

def test_atom_row_pinned_by_initial_state(ring_tdes):
    # `(...) | F[0,0] true` holds on every run, so its root pin leaves the
    # propositional operand free of everything but its row over w[0],
    # which holds the initial state only: the row reads `z = 1` where
    # that state satisfies the operand and `z = 0` where it does not
    cases = (
        ("ap1", 1), ("ap2", 0), ("!ap1", 0), ("ap1 & !ap2", 1), ("ap2 | !ap1", 0)
    )
    for text, expected in cases:
        enc = build_encoding(Encoding(ring_tdes, parse(f"({text}) | F[0,0] true")), 1)
        lo, hi = propagate_bounds(enc.model)
        slot = enc.table.children[enc.table.root][0]
        assert lo[enc.zphi[(slot, 0)]] == hi[enc.zphi[(slot, 0)]] == expected
        # the slots before it are its operands, which get no binaries
        assert all(s >= slot for s, _ in enc.zphi), text


def test_negation_rows_complement():
    graph = build_tdes(pulse_system())
    enc = build_encoding(Encoding(graph, Not(Atom("lit"))), 1)
    result = solve(enc.model)
    assert not result.feasible  # every state is lit


def test_unknown_atom_rejected(ring_tdes):
    with pytest.raises(UnknownAtomError):
        build_encoding(Encoding(ring_tdes, Atom("nope")), 1)


def test_root_pin_and_registry_names(ring_tdes):
    enc = build_encoding(Encoding(ring_tdes, parse("F[1,5] ap2")), 3)
    text = dump(enc.model)
    # states 0..6 are reachable in three steps, state 27 is not
    assert "w[3][6]" in text and "w[3][27]" not in text
    assert "ze[2]" in text
    # windows 0..1 to 0..3 need a tick, and none can count more than 5
    assert "cge1[0,1]" in text and "cge1[0,3]" in text
    assert "cge1[0,0]" not in text and "cle" not in text
    longer = build_encoding(Encoding(ring_tdes, parse("F[1,5] ap2")), 6)
    assert "cle5[0,6]" in dump(longer.model)
    # trivially satisfiable root
    trivial = build_encoding(Encoding(ring_tdes, TRUE), 1)
    assert solve(trivial.model).feasible


def window_operands(enc, slot):
    """The operands of each window conjunction of the until at ``slot``,
    read off its rows ``u - operand <= 0``."""
    operands = {}
    for (s, a, j), u in enc.zu.items():
        if s == slot:
            operands[(a, j)] = {
                var
                for row in enc.model.constraints
                if row.comparator == "<=" and row.rhs == 0
                and len(row.terms) == 2 and (1, u) in row.terms
                for _, var in row.terms if var != u
            }
    return operands


def test_window_thresholds_only_where_they_can_bind(ring_tdes):
    # window 0..j of F[1,5] counts 0..j ticks: it needs one, and can
    # exceed five only from length 6 on
    enc = build_encoding(Encoding(ring_tdes, parse("F[1,5] ap2")), 7)
    assert (enc.table.root, 0, 0) not in enc.zu
    assert set(enc.zc) == {(0, j, False, 1) for j in range(1, 8)} | {
        (0, 6, True, 5), (0, 7, True, 5)
    }
    names = {enc.model.names[var] for var in enc.zc.values()}
    assert {"cle5[0,6]", "cle5[0,7]", "cge1[0,1]"} <= names


def test_goals_with_the_same_bounds_share_their_thresholds(ring_tdes):
    enc = build_encoding(Encoding(ring_tdes, parse("F[1,5] ap2 & F[1,5] ap4")), 7)
    table = enc.table
    untils = [s for s, node in enumerate(table.entries) if isinstance(node, Until)]
    assert len(untils) == 2
    # one cge per window 0..1 to 0..7, one cle on lengths 6 and 7
    assert set(enc.zc) == {(0, j, False, 1) for j in range(1, 8)} | {
        (0, 6, True, 5), (0, 7, True, 5)
    }
    first, second = (window_operands(enc, slot) for slot in untils)
    assert sorted(first) == sorted(second) == [(0, j) for j in range(1, 8)]
    for window in first:
        thresholds = {
            var for (a, j, _, _), var in enc.zc.items() if (a, j) == window
        }
        # each conjunction reads the window's thresholds and its goal
        for slot, operands in zip(untils, (first, second)):
            goal = enc.zphi[(table.children[slot][1], window[1])]
            assert operands[window] == thresholds | {goal}


def test_windows_of_a_bound_the_count_cannot_break_are_their_operand(ring_tdes):
    # G[0,30] !ap4 is !(true U[0,30] !!ap4): no window of 8 positions
    # can count more than 30 ticks, so each is its right operand
    enc = build_encoding(Encoding(ring_tdes, parse("G[0,30] !ap4")), 7)
    table = enc.table
    (slot,) = [s for s, node in enumerate(table.entries) if isinstance(node, Until)]
    right = table.children[slot][1]
    assert enc.zc == {}
    assert sorted(enc.zu) == [(slot, 0, j) for j in range(8)]
    for (_, _, j), u in enc.zu.items():
        assert u == enc.zphi[(right, j)]
    assert not any(name.startswith("u") for name in enc.model.names)


def test_encoding_grows_only_forward(ring_tdes, phi_two_goals):
    enc = build_encoding(Encoding(ring_tdes, phi_two_goals), 1)
    assert build_encoding(enc, 2) is enc
    # growing a step equals building at that horizon
    fresh = build_encoding(Encoding(ring_tdes, phi_two_goals), 2)
    assert dump(enc.model) == dump(fresh.model)
    build_encoding(enc, 3)
    with pytest.raises(ValueError):
        build_encoding(enc, 2)
    with pytest.raises(ValueError, match="horizon must be an integer, got 2.5"):
        build_encoding(Encoding(ring_tdes, phi_two_goals), 2.5)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        build_encoding(Encoding(ring_tdes, phi_two_goals), 0)


# sha256 of ``dump(model)``: any change to a variable, its index, a row
# or a big-M changes the digest.  ``dump`` does not print the decision
# list, which the test above pins.
GOLDEN_MODELS = {
    ("F[1,5] ap2 & F[1,5] ap4", 11):
        "54cd40ca8c7a1988c67eb8059830f35a4181f54c33f3e0ddddf06b9b8905a72e",
    ("!ap2 U[3,5] ap3", 7):
        "75740480caf3157384b68341302589ea38269871cf8e33a0bf4081fc180eff54",
}


def model_digest(model):
    return hashlib.sha256(dump(model).encode()).hexdigest()


@pytest.mark.parametrize(("text", "horizon"), list(GOLDEN_MODELS))
def test_model_text_and_branching_order_are_pinned(ring_tdes, text, horizon):
    phi = parse(text)
    fresh = build_encoding(Encoding(ring_tdes, phi), horizon)
    assert model_digest(fresh.model) == GOLDEN_MODELS[(text, horizon)]
    grown = build_encoding(Encoding(ring_tdes, phi), 5)
    build_encoding(grown, horizon)
    assert model_digest(grown.model) == GOLDEN_MODELS[(text, horizon)]


# --- replay completeness --------------------------------------------------------------

def test_induced_valuations_satisfy_exact_model(
    ring_tdes, route_a, phi_two_goals
):
    # the fixture's goals have `true` left operands, which no row reads
    cases = [(ring_tdes, route_a, phi_two_goals)]
    rng = random.Random(13)
    for _ in range(12):
        graph = build_tdes(random_system(rng, max_states=4), state_cap=3000)
        atoms = sorted(graph.untimed.atoms)
        for _ in range(4):
            horizon = rng.randint(1, 4)
            frag = random_fragment(rng, graph, horizon)
            if frag is not None:
                cases.append((graph, frag, random_formula(rng, atoms, horizon)))
    assert len(cases) >= 31
    for graph, frag, phi in cases:
        system = graph.untimed
        # the root `phi | !phi` holds on every run, so the valuation of
        # an arbitrary run must satisfy every row of phi whether or not
        # phi holds
        enc = build_encoding(Encoding(graph, Or(phi, Not(phi))), frag.horizon)
        valuation = induced_valuation(enc, frag)
        assert check_assignment(enc.model, valuation) == []
        for (slot, k), var in enc.zphi.items():
            assert valuation[var] == int(
                evaluate(
                    frag, enc.table.entries[slot], k,
                    system.labeling, system.atoms,
                )
            )


def test_run_encoding_points_are_exactly_the_runs():
    # One run model (formula `true`) grown over h = 1..H.  At every h,
    # enumerate its integer points by re-solving with a nogood row over
    # each found run's selectors, then drop the nogoods before the next
    # step: the decoded runs must be the enumerated runs, each exactly once.
    rng = random.Random(71)
    runs = final = 0
    for _ in range(40):
        graph = build_tdes(random_system(rng, max_states=5), state_cap=3000)
        horizon = rng.randint(1, 4)
        enc = Encoding(graph, TRUE)
        for h in range(1, horizon + 1):
            build_encoding(enc, h)
            mark = enc.model.num_constraints
            found = []
            while True:
                result = solve(enc.model)
                if not result.feasible:
                    break
                found.append(decode(enc, result.assignment))
                chosen = [
                    var for step in enc.x for var in step
                    if result.assignment[var] == 1
                ]
                assert len(chosen) == h
                enc.model.add([(1, var) for var in chosen], "<=", h - 1)
            enc.model.truncate(mark)
            assert len(found) == len(set(found))
            assert set(found) == set(enumerate_fragments(graph, h))
            runs += len(found)
        final += len(found)
    assert final == 631
    assert runs == 900


def test_exact_feasibility_matches_enumeration():
    rng = random.Random(37)
    trials = 0
    for _ in range(40):
        system = random_system(rng, max_states=4)
        graph = build_tdes(system, state_cap=3000)
        horizon = rng.randint(1, 4)
        phi = random_formula(rng, sorted(system.atoms), horizon)
        enc = build_encoding(Encoding(graph, phi), horizon)
        feasible = solve(enc.model).feasible
        exists = any(
            evaluate(frag, phi, 0, system.labeling, system.atoms)
            for frag in enumerate_fragments(graph, horizon)
        )
        assert feasible == exists
        trials += 1
    assert trials == 40


def test_encoding_propagation_matches_reference(ring_tdes, phi_two_goals):
    rng = random.Random(59)
    models = [build_encoding(Encoding(ring_tdes, phi_two_goals), 11).model]
    for _ in range(20):
        system = random_system(rng, max_states=4)
        graph = build_tdes(system, state_cap=3000)
        horizon = rng.randint(1, 5)
        phi = random_formula(rng, sorted(system.atoms), horizon)
        models.append(build_encoding(Encoding(graph, phi), horizon).model)
    for model in models:
        assert propagate_bounds(model) == reference_propagate(model)


def test_grown_models_propagate_like_fresh_ones(ring_tdes):
    # Grow each model over h = 1..H, dropping the closing rows at every
    # step and, after each feasible solve, a blocking row over the run's
    # selectors.  The propagator starts from the slack, cap and tight rows
    # cached when each row was added, so at every h it must agree with a
    # full recompute from the declared bounds and with a fresh build.
    rng = random.Random(83)
    cases = [
        (ring_tdes, parse(text), 8)
        for text in (
            "F[1,5] ap2 & F[1,5] ap4",
            "!ap2 U[3,5] ap3",
            "(ap1 U[0,4] ap3) | G[2,6] !ap4",
        )
    ]
    for _ in range(12):
        system = random_system(rng, max_states=4)
        atoms = sorted(system.atoms)
        horizon = rng.randint(2, 5)
        low = rng.randint(0, horizon)
        phi = Until(
            random_formula(rng, atoms, horizon, depth=2),
            random_formula(rng, atoms, horizon, depth=2),
            low,
            rng.randint(low, horizon),
        )
        cases.append((build_tdes(system, state_cap=3000), phi, horizon))
    conflicts = blocked = 0
    for graph, phi, horizon in cases:
        enc = Encoding(graph, phi)
        for h in range(1, horizon + 1):
            build_encoding(enc, h)
            fresh = build_encoding(Encoding(graph, phi), h).model
            box = propagate_bounds(enc.model)
            assert box == reference_propagate(enc.model)
            assert box == propagate_bounds(fresh)
            conflicts += box is None
            mark = enc.model.num_constraints
            result = solve(enc.model)
            if result.feasible:
                chosen = [
                    var for step in enc.x for var in step
                    if result.assignment[var] == 1
                ]
                enc.model.add([(1, var) for var in chosen], "<=", h - 1)
                assert propagate_bounds(enc.model) == reference_propagate(enc.model)
                blocked += 1
            enc.model.truncate(mark)
    assert conflicts >= 20 and blocked >= 15, (conflicts, blocked)


def test_exact_decode_produces_certified_runs():
    rng = random.Random(41)
    done = 0
    while done < 25:
        system = random_system(rng, max_states=4)
        graph = build_tdes(system, state_cap=3000)
        horizon = rng.randint(1, 4)
        phi = random_formula(rng, sorted(system.atoms), horizon)
        enc = build_encoding(Encoding(graph, phi), horizon)
        result = solve(enc.model)
        if not result.feasible:
            continue
        frag = decode(enc, result.assignment)
        assert evaluate(frag, phi, 0, system.labeling, system.atoms)
        done += 1


def test_decode_rejects_corrupted_assignment(ring_tdes, phi_avoid_until):
    # decode reads the edge selectors x[k]; a second selected edge at
    # step 1 leaves the step without a unique event
    enc = build_encoding(Encoding(ring_tdes, phi_avoid_until), 7)
    result = solve(enc.model)
    assert result.feasible
    values = list(result.assignment)
    for var in enc.x[1]:
        values[var] = 1
    with pytest.raises(DecodeError, match="step 1 does not select a unique"):
        decode(enc, tuple(values))
    # the last step selects an edge leaving the initial state, where the
    # run is not: 'move12' is not enabled where the run stands at step 6
    values = list(result.assignment)
    assert decode(enc, tuple(values)).states[6] != ring_tdes.states[0]
    for var in enc.x[7]:
        values[var] = 0
    values[enc.x[7][enc.edges[7].index((0, "move12", 1))]] = 1
    with pytest.raises(DecodeError, match=(
        "decoded run does not replay: event 'move12' at step 7 is not enabled"
    )):
        decode(enc, tuple(values))


def test_decode_refuses_a_run_that_violates_the_formula(ring_tdes, phi_avoid_until):
    # the edge selectors of a genuine run that violates the formula replay
    # cleanly, so only the certification against the formula refuses them
    enc = build_encoding(Encoding(ring_tdes, phi_avoid_until), 7)
    system = ring_tdes.untimed
    violating = next(
        frag for frag in enumerate_fragments(ring_tdes, 7)
        if not evaluate(frag, phi_avoid_until, 0, system.labeling, system.atoms)
    )
    with pytest.raises(DecodeError, match=(
        "decoded run fails certification against the formula"
    )):
        decode(enc, induced_valuation(enc, violating))


def test_decode_simple_tick_step():
    graph = build_tdes(pulse_system())
    enc = build_encoding(Encoding(graph, TRUE), 1)
    result = solve(enc.model)
    frag = decode(enc, result.assignment)
    assert frag.events == (TICK,)
    assert frag.states[0].timer_map()["pulse"] == 1
    assert frag.states[1].timer_map()["pulse"] == 0
