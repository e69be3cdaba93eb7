import hashlib
import random
from collections import Counter

import pytest

from ticksynth.encode import (
    DecodeError,
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
)

from helpers import (
    induced_valuation,
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
    enc = build_encoding(ring_tdes, TRUE, horizon)
    assert (ring_tdes.n, sum(map(len, ring_tdes.outgoing))) == (28, 44)
    # states reachable in k steps, and the edges leaving the layer before
    layers = [len(state) for state in enc.w]
    steps = [len(edges) for edges in enc.edges]
    assert layers == [1, 3, 5, 7, 10, 14, 18, 22, 25, 27, 28, 28]
    assert steps == [0, 3, 5, 8, 13, 18, 23, 30, 35, 39, 42, 44]
    # distinct state and selector variables, then per step: tick
    # indicator and counter; the root `true` is demanded at position 0 only
    run = {v for state in enc.w for v in state.values()}
    run |= {v for step in enc.x for v in step}
    assert enc.model.num_variables == len(run) + 2 * horizon + 1
    assert enc.model.num_variables == 256
    # one-hot rows, then per step: the outgoing rows of states left by
    # several edges, the incoming rows of states entered by several, tick
    # and counter rows; `true` adds its row and the root pin
    shared = 0
    for edges in enc.edges[1:]:
        leaving = Counter(i for i, _, _ in edges)
        entering = Counter(j for _, _, j in edges)
        shared += sum(n >= 2 for n in leaving.values())
        shared += sum(n >= 2 for n in entering.values())
    assert enc.model.num_constraints == (horizon + 1) + shared + 2 * horizon + 2
    assert enc.model.num_constraints == 168


def test_state_vectors_cover_exactly_the_reachable_layers():
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng = random.Random(1994)
    horizon = 4
    for _ in range(120):
        graph = build_tdes(random_system(rng), state_cap=5000)
        enc = build_encoding(graph, TRUE, horizon)
        for k in range(horizon + 1):
            ends = {
                graph.index[frag.states[-1]]
                for frag in enumerate_fragments(graph, k)
            }
            assert list(enc.w[k]) == sorted(ends)


def assert_no_forced_copies(enc):
    """Every selector an earlier variable forces is that variable, and no
    row equates two run variables or names a variable twice."""
    names = enc.model.names
    for k in range(1, enc.horizon + 1):
        edges, before, after = enc.edges[k], enc.w[k - 1], enc.w[k]
        leaving = Counter(i for i, _, _ in edges)
        entering = Counter(j for _, _, j in edges)
        for t, ((i, _, j), x) in enumerate(zip(edges, enc.x[k])):
            if leaving[i] == 1:
                assert x == before[i]
            elif entering[j] == 1:
                assert x == after[j]
            else:
                assert names[x] == f"x[{k}][{t}]"
            if entering[j] == 1:
                copy = leaving[i] == 1
                assert (after[j] == before[i]) == copy
                assert copy or names[after[j]] == f"w[{k}][{j}]"
    run = {v for state in enc.w for v in state.values()}
    run |= {v for step in enc.x for v in step}
    for row in enc.model.constraints:
        variables = [var for _, var in row.terms]
        assert len(variables) == len(set(variables)), row
        if len(row.terms) == 2 and set(variables) <= run:
            # only a one-hot row of a two-state layer has this shape
            assert [coef for coef, _ in row.terms] == [1, 1], row


def test_forced_selectors_reuse_their_state_variable(ring_tdes):
    for text, horizon in (("true", 11), ("F[1,5] ap2 & F[1,5] ap4", 11),
                          ("!ap2 U[3,5] ap3", 7)):
        assert_no_forced_copies(build_encoding(ring_tdes, parse(text), horizon))
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng = random.Random(1994)
    for _ in range(120):
        graph = build_tdes(random_system(rng), state_cap=5000)
        assert_no_forced_copies(build_encoding(graph, TRUE, 4))


def test_model_over_explored_graph_matches_model_over_full_graph():
    # the 120 random systems of test_random_reachable_graphs_match_reference
    rng, formulas = random.Random(1994), random.Random(5)
    for trial in range(120):
        system = random_system(rng)
        full = build_tdes(system, state_cap=5000)
        for horizon in range(1, 5):
            phi = random_formula(formulas, sorted(system.atoms), horizon)
            explored = build_encoding(TimedDes(system), phi, horizon)
            expected = build_encoding(full, phi, horizon)
            assert dump(explored.model) == dump(expected.model), trial


def test_root_demands_only_position_zero(ring_tdes, phi_two_goals):
    horizon = 11
    enc = build_encoding(ring_tdes, phi_two_goals, horizon)
    table = enc.table
    assert isinstance(table.entries[table.root], And)
    untils = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Until)
    ]
    assert len(untils) == 2
    for slot in untils:
        # only the windows anchored at 0, one per end position
        windows = sorted((a, j) for (s, a, j) in enc.zu if s == slot)
        assert windows == [(0, j) for j in range(horizon + 1)]
    assert [k for (slot, k) in enc.zphi if slot == table.root] == [0]
    # no window reads the goals' shared `true` left operand, so it is
    # demanded at position 0 only as well
    (truth,) = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Truth)
    ]
    assert [k for (slot, k) in enc.zphi if slot == truth] == [0]


def test_trajectory_pins_initial_state(ring_tdes):
    enc = build_encoding(ring_tdes, TRUE, 2)
    start = enc.w[0][0]
    assert enc.model.lower[start] == enc.model.upper[start] == 1


def test_single_state_tick_loop_forces_every_step():
    system = UntimedDes(
        states={"only"}, events=set(), transitions={}, initial="only",
        atoms=set(), labeling={}, timing={},
    )
    graph = build_tdes(system)
    enc = build_encoding(graph, TRUE, 3)
    box = propagate_bounds(enc.model)
    assert box is not None
    lo, hi = box
    for k in range(4):
        assert lo[enc.w[k][0]] == hi[enc.w[k][0]] == 1


def test_dead_end_state_makes_longer_horizons_infeasible():
    # the whole graph, then every edge out of s1 dropped
    pruned = build_tdes(pulse_system())
    pruned.outgoing[1] = ()
    enc = build_encoding(pruned, TRUE, 2)
    assert not solve(enc.model).feasible
    enc1 = build_encoding(pruned, TRUE, 1)
    assert solve(enc1.model).feasible


# --- tick indicators --------------------------------------------------------------

def test_tick_only_pair_forces_indicator_up():
    graph = build_tdes(pulse_system())
    enc = build_encoding(graph, TRUE, 1)
    box = propagate_bounds(enc.model)
    lo, hi = box
    # the only step from s0 goes to s1 via tick
    assert lo[enc.ze[1]] == hi[enc.ze[1]] == 1


def test_tickless_target_forces_indicator_down():
    graph = build_tdes(pulse_system())
    enc = build_encoding(graph, TRUE, 2)
    # pin the second step back to s0: only the event edge fits
    enc.model.add([(1, enc.w[2][0])], "=", 1)
    box = propagate_bounds(enc.model)
    lo, hi = box
    assert lo[enc.ze[2]] == hi[enc.ze[2]] == 0


# --- counter thresholds ------------------------------------------------------------

def test_threshold_pair_for_fixed_count():
    model = IlpModel()
    bits = [model.add_var(f"t{i}", 0, 1) for i in range(4)]
    for i, bit in enumerate(bits):
        model.add([(1, bit)], "=", 1 if i < 2 else 0)  # count fixed to 2
    z_ge, z_le = add_counter_threshold(model, bits, 1, 3, big_m=5)
    result = solve(model)
    assert result.feasible
    assert result.assignment[z_ge] == 1
    assert result.assignment[z_le] == 1


@pytest.mark.parametrize("horizon", [1, 3, 6])
def test_threshold_truth_table_small(horizon):
    big_m = horizon + 1
    for m in range(horizon + 1):
        for n in range(m, horizon + 1):
            for count in range(horizon + 1):
                model = IlpModel()
                bits = [model.add_var(f"t{i}", 0, 1) for i in range(horizon)]
                for i, bit in enumerate(bits):
                    model.add([(1, bit)], "=", 1 if i < count else 0)
                z_ge, z_le = add_counter_threshold(model, bits, m, n, big_m)
                result = solve(model)
                assert result.feasible
                assert result.assignment[z_ge] == (1 if count >= m else 0)
                assert result.assignment[z_le] == (1 if count <= n else 0)


def test_threshold_pair_for_empty_window():
    # anchor equals witness: the counter expression has no terms at all
    for m, n, expected_ge in ((0, 2, 1), (1, 2, 0)):
        model = IlpModel()
        z_ge, z_le = add_counter_threshold(model, [], m, n, big_m=4)
        result = solve(model)
        assert result.feasible
        assert result.assignment[z_ge] == expected_ge
        assert result.assignment[z_le] == 1  # zero ticks never exceed n


def test_window_bound_above_horizon_is_handled():
    # upper bound far beyond the horizon: thresholds must not go infeasible
    graph = build_tdes(pulse_system())
    enc = build_encoding(graph, parse("F[0,99] lit"), 2)
    assert solve(enc.model).feasible


# --- formula rows -------------------------------------------------------------------

def test_atom_row_pinned_by_initial_state(ring_tdes):
    # `a | !a` holds on every run, so its root pin leaves the atom free
    # of everything but the initial state
    for name, expected in (("ap1", 1), ("ap2", 0)):
        enc = build_encoding(ring_tdes, Or(Atom(name), Not(Atom(name))), 1)
        box = propagate_bounds(enc.model)
        lo, hi = box
        slot = enc.table.children[enc.table.root][0]
        assert lo[enc.zphi[(slot, 0)]] == hi[enc.zphi[(slot, 0)]] == expected


def test_negation_rows_complement():
    graph = build_tdes(pulse_system())
    enc = build_encoding(graph, Not(Atom("lit")), 1)
    result = solve(enc.model)
    assert not result.feasible  # every state is lit


def test_unknown_atom_rejected(ring_tdes):
    with pytest.raises(UnknownAtomError):
        build_encoding(ring_tdes, Atom("nope"), 1)


def test_root_pin_and_registry_names(ring_tdes):
    enc = build_encoding(ring_tdes, parse("F[1,5] ap2"), 3)
    text = dump(enc.model)
    # states 0..6 are reachable in three steps, state 27 is not
    assert "w[3][6]" in text and "w[3][27]" not in text
    assert "ze[2]" in text
    assert "cge" in text and "cle" in text
    # trivially satisfiable root
    trivial = build_encoding(ring_tdes, TRUE, 1)
    assert solve(trivial.model).feasible


def test_encoding_grows_only_forward(ring_tdes, phi_two_goals):
    enc = build_encoding(ring_tdes, phi_two_goals, 1)
    assert build_encoding(ring_tdes, phi_two_goals, 2, enc) is enc
    # growing a step equals building at that horizon
    assert dump(enc.model) == dump(build_encoding(ring_tdes, phi_two_goals, 2).model)
    build_encoding(ring_tdes, phi_two_goals, 3, enc)
    with pytest.raises(ValueError):
        build_encoding(ring_tdes, phi_two_goals, 2, enc)
    with pytest.raises(ValueError):
        build_encoding(ring_tdes, parse("F[1,5] ap2"), 4, enc)
    with pytest.raises(ValueError):
        build_encoding(ring_tdes, phi_two_goals, 2.5)


# sha256 of ``dump(model)``.  The solver branches in variable index
# order, so any change to a variable, a row, a big-M or the branching
# order changes the digest.
GOLDEN_MODELS = {
    ("F[1,5] ap2 & F[1,5] ap4", 11):
        "4466ccf929c9798efd11e8c0efa111ee24fe1faefac6b851a231c09f33b52dcf",
    ("!ap2 U[3,5] ap3", 7):
        "3d925831817f9369d1246977a1c1efeae5d28ed419a60efcfd1711861ba1a032",
}


def model_digest(model):
    return hashlib.sha256(dump(model).encode()).hexdigest()


@pytest.mark.parametrize(("text", "horizon"), list(GOLDEN_MODELS))
def test_model_text_and_branching_order_are_pinned(ring_tdes, text, horizon):
    phi = parse(text)
    fresh = build_encoding(ring_tdes, phi, horizon)
    assert model_digest(fresh.model) == GOLDEN_MODELS[(text, horizon)]
    grown = build_encoding(ring_tdes, phi, 5)
    build_encoding(ring_tdes, phi, horizon, grown)
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
        enc = build_encoding(graph, Or(phi, Not(phi)), frag.horizon)
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
        enc = None
        for h in range(1, horizon + 1):
            enc = build_encoding(graph, TRUE, h, enc)
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
        enc = build_encoding(graph, phi, horizon)
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
    models = [build_encoding(ring_tdes, phi_two_goals, 11).model]
    for _ in range(20):
        system = random_system(rng, max_states=4)
        graph = build_tdes(system, state_cap=3000)
        horizon = rng.randint(1, 5)
        phi = random_formula(rng, sorted(system.atoms), horizon)
        models.append(build_encoding(graph, phi, horizon).model)
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
        enc = None
        for h in range(1, horizon + 1):
            enc = build_encoding(graph, phi, h, enc)
            fresh = build_encoding(graph, phi, h).model
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
        enc = build_encoding(graph, phi, horizon)
        result = solve(enc.model)
        if not result.feasible:
            continue
        frag = decode(enc, result.assignment)
        assert evaluate(frag, phi, 0, system.labeling, system.atoms)
        done += 1


def test_decode_rejects_corrupted_assignment(ring_tdes, phi_avoid_until):
    # decode reads the edge selectors x[k]; a second selected edge at
    # step 1 leaves the step without a unique event
    enc = build_encoding(ring_tdes, phi_avoid_until, 7)
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


def test_decode_simple_tick_step():
    graph = build_tdes(pulse_system())
    enc = build_encoding(graph, TRUE, 1)
    result = solve(enc.model)
    frag = decode(enc, result.assignment)
    assert frag.events == (TICK,)
    assert frag.states[0].timer("pulse") == 1
    assert frag.states[1].timer("pulse") == 0
