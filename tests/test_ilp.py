import random

import pytest

from ticksynth import ilp
from ticksynth.ilp import (
    IlpModel,
    LinearConstraint,
    ModelError,
    SolveResult,
    check_assignment,
    dump,
    propagate_bounds,
    solve,
)

from helpers import (
    brute_force_feasible,
    enumerate_feasible,
    random_model,
    random_symmetric_model,
    random_unit_model,
    reference_propagate,
    reference_search,
)


def test_add_var_indices_are_dense():
    model = IlpModel()
    assert model.add_var("x", 0, 1) == 0
    assert model.add_var("y", 0, 1) == 1
    assert model.num_variables == 2


def test_add_var_rejects_empty_bounds():
    model = IlpModel()
    with pytest.raises(ModelError):
        model.add_var("x", 2, 1)


def test_add_var_rejects_bounds_that_are_not_integers():
    # a float bound once reached the solver and failed in key building
    for lo, hi in ((0.5, 2), (0, 2.0), (False, 1), (0, True), ("0", 1)):
        model = IlpModel()
        with pytest.raises(ModelError):
            model.add_var("x", lo, hi)
        assert model.num_variables == 0


def test_add_constraint_rejects_unknown_variable():
    model = IlpModel()
    model.add_var("x", 0, 1)
    model.add_var("y", 0, 1)
    with pytest.raises(ModelError):
        model.add([(1, 99)], "<=", 1)


def _model_state(model: IlpModel) -> tuple:
    """Everything ``IlpModel.add`` appends to, copied."""
    return tuple(
        [list(entry) if isinstance(entry, list) else entry for entry in store]
        for store in (
            model.constraints, model._rows, model._slack, model._cap,
            model._tight, model._reach, *_watches(model),
        )
    )


def test_constraint_shape_checks():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 3)
    model.add([(1, x), (2, y)], "<=", 3)
    model.add([(1, x), (-1, y)], "=", 0)
    model.add([(1, x)], ">=", 1)
    before = _model_state(model)
    assert all(before), before
    refusals = [
        (([(1, x)], "<", 1), "unknown comparator '<'"),
        (([(1.5, x)], "<=", 1), "coefficient 1.5 is not"),
        (([(1, x), (1, 2)], "<=", 1), "unknown variable 2"),
        (([(1, x)], ">=", "1"), "right-hand side '1' is not"),
    ]
    refusals += [
        (([(1, index)], "<=", 1), f"variable index {index!r} is not")
        for index in (0.0, True, "0")
    ]
    refusals += [
        (([(1, x)], "<=", rhs), f"right-hand side {rhs!r} is not")
        for rhs in (1.5, False)
    ]
    for args, message in refusals:
        with pytest.raises(ModelError, match=message):
            model.add(*args)
        assert _model_state(model) == before, args


def test_add_stores_the_constraint_as_given():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 2)
    rows = [([(1, y), (2, x), (-1, y)], ">=", 1), (iter([(3, x)]), "=", 3)]
    for terms, comparator, rhs in rows:
        model.add(terms, comparator, rhs)
    assert model.constraints == [
        LinearConstraint(((1, y), (2, x), (-1, y)), ">=", 1),
        LinearConstraint(((3, x),), "=", 3),
    ]
    assert all(type(row) is LinearConstraint for row in model.constraints)


def test_solve_refuses_an_assignment_the_verifier_rejects(monkeypatch):
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    model.add([(1, x)], ">=", 1)
    monkeypatch.setattr(ilp, "check_assignment", lambda model, values: [
        f"row 0 violated by {values}"
    ])
    with pytest.raises(RuntimeError, match=(
        r"solver produced an invalid assignment: row 0 violated by \(1,\)"
    )):
        solve(model)


def test_equality_stored_as_inequality_pair():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 3)
    model.add([(1, x)], "=", 1)
    assert model.num_constraints == 1
    assert len(model._rows) == 2
    # the two rows of an = constraint name each other as mirrors, unit
    # and weighted alike; a <= or >= row has none
    model.add([(1, x), (1, y)], "<=", 3)
    model.add([(2, y), (-1, x)], "=", 1)
    model.add([(1, x)], ">=", 1)
    assert [row[3] for row in model._rows] == [1, 0, -1, 4, 3, -1]
    assert [row[2] for row in model._rows] == [True, True, False, False, False, True]
    assert model._rows[3][:2] == model._rows[4][1::-1]


def test_truncate_restores_rows_and_watch_lists():
    rng = random.Random(5)
    for _ in range(30):
        model = random_model(rng, rng.randint(1, 8))
        kept = rng.randint(0, model.num_constraints)
        fresh = IlpModel()
        for var in range(model.num_variables):
            fresh.add_var(model.names[var], model.lower[var], model.upper[var])
        for constraint in model.constraints[:kept]:
            fresh.add(*constraint)
        model.truncate(kept)
        assert model.constraints == fresh.constraints
        assert model._rows == fresh._rows
        assert model._unit_lo == fresh._unit_lo
        assert model._unit_hi == fresh._unit_hi
        assert model._watch_lo == fresh._watch_lo
        assert model._watch_hi == fresh._watch_hi
        assert model._slack == fresh._slack
        assert model._cap == fresh._cap
        assert model._tight == fresh._tight
        assert model._reach == fresh._reach


def _watches(model: IlpModel) -> tuple[list[list[int]], ...]:
    return (model._unit_lo, model._unit_hi, model._watch_lo, model._watch_hi)


def _expected_watches(model: IlpModel) -> tuple[list[list[int]], ...]:
    """The four watch stores, derived from the constraints alone: a
    positive term of a stored row (a ``>=`` row is negated) is watched
    by its variable's lower bound, a negative one by its upper bound,
    and the other way round for an ``=`` row's mirror.  A unit row, all
    coefficients ±1 over variables declared [0, 1], is watched by bare
    row index, every other row by (row, |coef|) pairs; an empty pair
    store is ``()``, so that it allocates nothing."""
    n = model.num_variables
    stores = tuple([[] for _ in range(n)] for _ in range(4))
    unit_lo, unit_hi, watch_lo, watch_hi = stores
    row = 0
    for constraint in model.constraints:
        sign = -1 if constraint.comparator == ">=" else 1
        merged: dict[int, int] = {}
        for coef, var in constraint.terms:
            merged[var] = merged.get(var, 0) + sign * coef
        support = sorted((var, coef) for var, coef in merged.items() if coef)
        unit = all(
            abs(coef) == 1 and (model.lower[var], model.upper[var]) == (0, 1)
            for var, coef in support
        )
        for flip in (1, -1) if constraint.comparator == "=" else (1,):
            for var, coef in support:
                if unit:
                    (unit_lo if flip * coef > 0 else unit_hi)[var].append(row)
                else:
                    (watch_lo if flip * coef > 0 else watch_hi)[var] += (
                        row, abs(coef)
                    )
            row += 1
    for watch in watch_lo, watch_hi:
        watch[:] = [entries or () for entries in watch]
    return stores


def test_each_row_is_watched_by_exactly_its_support():
    # models of mixed weights, and ±1 models over binaries with and
    # without other domains, checked whole and after a truncation
    rng = random.Random(2503)
    units = pairs = 0
    for trial in range(300):
        if trial % 2:
            model = random_unit_model(rng)
        else:
            model = random_model(rng, rng.randint(1, 10))
        count = model.num_constraints
        for kept in (count, rng.randint(0, count)):
            model.truncate(kept)
            assert _watches(model) == _expected_watches(model), dump(model)
        units += sum(map(len, model._unit_lo + model._unit_hi))
        pairs += sum(map(len, model._watch_lo + model._watch_hi)) // 2
    assert units >= 300 and pairs >= 300, (units, pairs)


def test_truncate_rejects_a_negative_count():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 1)
    model.add([(1, x), (1, y)], "=", 1)
    model.add([(1, x)], ">=", 1)
    rows = list(model._rows)
    with pytest.raises(ModelError):
        model.truncate(-1)
    assert model.num_constraints == 2
    assert model._rows == rows
    assert (model._slack, model._cap, model._tight) == ([1, 1, 0], [1, 1, 1], [2])
    assert solve(model).assignment == (1, 0)


def test_declared_bounds_are_read_only():
    # each row's cached slack was computed from the declared bounds
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    model.add([(1, x)], "<=", 0)
    for bounds in (model.lower, model.upper):
        with pytest.raises(TypeError):
            bounds[x] = 1
    assert (list(model.lower), list(model.upper)) == ([0], [1])
    assert propagate_bounds(model) == reference_propagate(model) == ([0], [0])


def test_propagation_forces_tight_sum():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 1)
    model.add([(1, x), (1, y)], ">=", 2)
    result = solve(model)
    assert result.feasible
    assert result.assignment == (1, 1)
    assert result.nodes == 0  # settled by propagation alone


def test_contradictory_rows_are_infeasible():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 1)
    model.add([(1, x), (1, y)], "<=", 0)
    model.add([(1, x)], ">=", 1)
    result = solve(model)
    assert not result.feasible
    assert result.assignment is None


def test_branching_prefers_low_index_and_low_value():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    y = model.add_var("y", 0, 1)
    model.add([(1, x), (1, y)], ">=", 1)
    result = solve(model)
    # x=0 is tried first, then y is forced to 1
    assert result.assignment == (0, 1)


def test_a_decision_must_be_a_binary_variable():
    model = IlpModel()
    model.add_var("x", 0, 2)
    model.add_var("one", 1, 1)
    model.add_var("b", 0, 1)
    for var in (0, 1, 3, -1, True, 2.0):
        with pytest.raises(ModelError):
            model.add_decision(var)
    assert model.decisions == []
    model.add_decision(2)
    assert model.decisions == [2]


def test_decisions_give_the_least_point_in_decision_order(monkeypatch):
    # Listed decisions are branched first, in list order, 1 before 0, and
    # the other variables by index, 0 first, so the returned point is the
    # least feasible one in that order, with or without the cache.  Most
    # of these models are all binary; a few keys repeat (the symmetric
    # models repeat far less than under index order, since their prefix
    # sums start high, which loosens the core).
    rng = random.Random(4242)
    feasible = hits = 0
    for trial in range(400):
        pick = random_symmetric_model if trial % 2 else random_unit_model
        model = pick(rng)
        binaries = [
            var for var in range(model.num_variables)
            if (model.lower[var], model.upper[var]) == (0, 1)
        ]
        decisions = rng.sample(binaries, rng.randint(0, len(binaries)))
        for var in decisions:
            model.add_decision(var)
        others = [v for v in range(model.num_variables) if v not in decisions]
        least = min(
            enumerate_feasible(model),
            key=lambda p: ([-p[v] for v in decisions], [p[v] for v in others]),
            default=None,
        )
        got = solve(model)
        assert got.assignment == least, f"trial {trial}: {decisions} {dump(model)}"
        assert got.feasible == (least is not None)
        feasible += got.feasible
        with monkeypatch.context() as patch:
            patch.setattr(ilp, "CACHE_BYTES", 0)
            plain = solve(model)
        assert (plain.feasible, plain.assignment) == (got.feasible, least)
        assert got.nodes <= plain.nodes
        hits += got.nodes < plain.nodes
    assert 100 <= feasible <= 300 and hits >= 5, (feasible, hits)


def test_solver_handles_general_integer_bounds():
    model = IlpModel()
    x = model.add_var("x", -3, 4)
    y = model.add_var("y", 0, 5)
    model.add([(2, x), (3, y)], "=", 12)
    model.add([(1, x)], ">=", 1)
    result = solve(model)
    assert result.feasible
    xv, yv = result.assignment
    assert 2 * xv + 3 * yv == 12 and xv >= 1


def test_general_integer_branch_tries_each_value_in_turn():
    # x=0 and x=1 each force y=z=1 against y+z<=1; x=2 fixes only its
    # lower bound (its upper bound is already 2), then y=0 forces z=1
    for x_lower, x_upper in ((0, 2), (-2, 3)):
        model = IlpModel()
        x = model.add_var("x", x_lower, x_upper)
        y = model.add_var("y", 0, 1)
        z = model.add_var("z", 0, 1)
        model.add([(1, x), (2, y), (2, z)], ">=", 4)
        model.add([(1, y), (1, z)], "<=", 1)
        assert solve(model) == SolveResult(True, (2, 0, 1), 4)


def test_duplicate_terms_are_merged():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    model.add([(1, x), (1, x)], ">=", 2)
    result = solve(model)
    assert result.feasible and result.assignment == (1,)
    # rows whose terms merge: to nothing, around a zero coefficient, or
    # into repeats under each comparator; each merged row, and every
    # feasible one at once, must propagate and solve as the unmerged
    # reference and enumeration do, and store and watch its support only
    x, y, z = 0, 1, 2

    def model_with(rows):
        model = IlpModel()
        for name, lo, hi in (("x", 0, 3), ("y", 0, 1), ("z", -2, 2)):
            model.add_var(name, lo, hi)
        for terms, comparator, rhs in rows:
            model.add(terms, comparator, rhs)
        return model

    rows = [  # with the support of the merged row
        ([(1, x), (-1, x), (1, y)], ">=", 1, {y}),  # x - x cancels
        ([(1, y), (2, z), (-1, y)], "<=", 2, {z}),  # a unit term cancels
        ([(0, x), (2, y), (1, z)], "<=", 3, {y, z}),  # a zero coefficient
        ([(1, y), (1, z), (1, y)], ">=", 3, {y, z}),  # repeats under >=
        ([(1, x), (1, y), (1, x), (-1, z)], "=", 4, {x, y, z}),  # under =
        ([(1, y), (-1, z), (1, z)], "=", 1, {y}),  # leaves a unit row
        ([(1, x), (-1, x)], "=", 0, set()),  # no terms left: 0 = 0
        ([(3, y), (-3, y)], ">=", 0, set()),
        ([(1, x), (-1, x)], "<=", -1, set()),  # no terms left: 0 <= -1
        ([(2, z), (-1, z), (-1, z)], "=", 1, set()),
    ]
    for case in [[row] for row in rows] + [rows[:8]]:
        model = model_with([row[:3] for row in case])
        assert propagate_bounds(model) == reference_propagate(model), case
        least = next(iter(enumerate_feasible(model)), None)
        assert solve(model).assignment == least, case
        assert (least is None) == (rows[8] in case or rows[9] in case)
        if len(case) > 1:
            assert least == (2, 1, 1)
        if len(case) == 1:
            pos, neg, unit, _ = model._rows[0]
            stored = {term if unit else term[0] for term in pos + neg}
            watched = {
                var for var in (x, y, z)
                for watch in (model._unit_lo, model._unit_hi,
                              model._watch_lo, model._watch_hi)
                if watch[var]
            }
            assert stored == watched == case[0][3], case
        assert _watches(model) == _expected_watches(model), case


def test_verdicts_match_enumeration_on_integer_domains(monkeypatch):
    # Branching in index order on ascending values, with a propagation that
    # keeps every feasible point, finds the lexicographically least one:
    # the first point the enumeration yields.  The first 60 models (up to
    # 8 rows) are mostly infeasible; the 200 looser ones, with up to 4 rows
    # and spans of 1-5, are feasible far more often.  In 46 models a frame
    # keeps a negative bound or slack, so it restores from a tuple key;
    # with no key stored, the search must be the reference's node for node.
    rng = random.Random(8675309)
    shapes = [(8, 0)] * 60 + [(4, 1)] * 200  # (most rows, least span)
    feasible = 0
    for trial, (most_rows, least_span) in enumerate(shapes):
        model = IlpModel()
        n = rng.randint(1, 5)
        for v in range(n):
            lo = rng.randint(-3, 2)
            span = rng.randint(least_span, least_span + 4)
            model.add_var(f"v{v}", lo, lo + span)
        for _ in range(rng.randint(1, most_rows)):
            support = rng.sample(range(n), rng.randint(1, n))
            terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in support]
            model.add(terms, rng.choice(["<=", ">=", "="]), rng.randint(-6, 6))
        got = solve(model)
        least = next(iter(enumerate_feasible(model)), None)
        assert got.assignment == least, f"trial {trial}: {dump(model)}"
        assert got.feasible == (least is not None)
        if got.feasible:
            assert check_assignment(model, got.assignment) == []
            feasible += 1
        with monkeypatch.context() as patch:
            patch.setattr(ilp, "CACHE_BYTES", 0)
            plain = solve(model)
        assert (plain.feasible, plain.assignment, plain.nodes) == (
            reference_search(model)
        ), f"trial {trial}: {dump(model)}"
    assert feasible >= 60  # the least-point comparison must be exercised


def test_cache_skips_a_refuted_residual_problem(monkeypatch):
    # propagation cannot refute the core on x, y, z, so each branch that
    # reaches x searches it; a=0,b=1 and a=1,b=0 leave a+b+x <= 2 the same
    # slack, so the second poses the residual problem the first refuted.
    # Keys are tuples, not bytes, once that row is scaled by 300 (a slack
    # above 255) or a variable no row reads keeps its lower bound -1.  (A
    # lower bound of -1 on x would not do: propagation lifts it to 0.)
    # With a, b, x, y, z listed as decisions and an unlisted binary u
    # that no row reads between b and x, each frame below a and b
    # branches on x but keys from u, its lowest unfixed variable: a=0,b=1
    # hits the key that a=1,b=0 recorded (1 is tried first).
    def model_of(scale: int, spare: bool, listed: bool) -> IlpModel:
        model = IlpModel()
        a, b = model.add_var("a", 0, 1), model.add_var("b", 0, 1)
        if listed:
            model.add_var("u", 0, 1)
        x, y, z = (model.add_var(name, 0, 1) for name in "xyz")
        if spare:
            model.add_var("w", -1, 1)
        model.add([(scale, a), (scale, b), (scale, x)], "<=", 2 * scale)
        for u, v in ((x, y), (x, z), (y, z)):
            model.add([(1, u), (1, v)], ">=", 1)
        model.add([(1, x), (1, y), (1, z)], "<=", 1)
        if listed:
            for var in (a, b, x, y, z):
                model.add_decision(var)
        return model

    shapes = [(1, False), (300, False), (1, True)]
    models = [model_of(*shape, False) for shape in shapes]
    listed = [model_of(*shape, True) for shape in shapes]
    for model in models + listed:
        assert solve(model) == SolveResult(False, None, 10)
    monkeypatch.setattr(ilp, "CACHE_BYTES", 0)  # store no key
    for model in models + listed:
        assert solve(model) == SolveResult(False, None, 12)
    for model in models:
        assert reference_search(model) == (False, None, 12)


def _solve_symmetric_models() -> tuple[int, int]:
    """Solve 300 models with interchangeable prefixes, checking each
    against enumeration and the uncached reference search; returns the
    solves that took fewer nodes than the reference, and the total nodes."""
    rng = random.Random(2010)
    hits = total = 0
    for trial in range(300):
        model = random_symmetric_model(rng)
        got = solve(model)
        feasible, assignment, nodes = reference_search(model)
        assert (got.feasible, got.assignment) == (feasible, assignment), (
            f"trial {trial}: {dump(model)}"
        )
        assert got.assignment == next(iter(enumerate_feasible(model)), None)
        assert got.nodes <= nodes
        hits += got.nodes < nodes
        total += got.nodes
    return hits, total


def test_cache_hits_keep_the_least_point(monkeypatch):
    # only refuted subtrees are skipped, so the least point is still found
    hits, nodes = _solve_symmetric_models()
    assert hits >= 50
    monkeypatch.setattr(ilp, "CACHE_BYTES", 1)  # room for one key
    capped_hits, capped_nodes = _solve_symmetric_models()
    assert capped_hits >= 50 and capped_nodes > nodes
    monkeypatch.setattr(ilp, "CACHE_BYTES", 0)  # the plain search
    assert _solve_symmetric_models()[0] == 0


def test_verdicts_match_enumeration_on_random_models():
    rng = random.Random(101)
    for trial in range(150):
        model = random_model(rng, rng.randint(1, 12))
        got = solve(model)
        expected = brute_force_feasible(model)
        assert got.feasible == expected, f"trial {trial}: {dump(model)}"
        if got.feasible:
            assert check_assignment(model, got.assignment) == []


def test_solver_is_deterministic():
    rng = random.Random(55)
    for _ in range(25):
        model = random_model(rng, rng.randint(2, 10))
        first = solve(model)
        second = solve(model)
        assert first.feasible == second.feasible
        assert first.nodes == second.nodes
        if first.feasible:
            assert first.assignment == second.assignment


def test_propagation_keeps_every_feasible_point():
    rng = random.Random(77)
    for _ in range(120):
        model = random_model(rng, rng.randint(1, 10))
        box = propagate_bounds(model)
        points = list(enumerate_feasible(model))
        if box is None:
            assert points == []
            continue
        lo, hi = box
        for point in points:
            for var, value in enumerate(point):
                assert lo[var] <= value <= hi[var]


def test_propagation_matches_full_recompute_reference():
    rng = random.Random(4242)
    conflicts = tightened = 0
    for trial in range(400):
        model = random_model(rng, rng.randint(1, 14))
        expected = reference_propagate(model)
        assert propagate_bounds(model) == expected, f"trial {trial}: {dump(model)}"
        if expected is None:
            conflicts += 1
        elif expected != (list(model.lower), list(model.upper)):
            tightened += 1
    # both outcomes must be exercised for the comparison to mean anything
    assert conflicts >= 20 and tightened >= 20


def test_propagation_below_the_root_matches_the_reference():
    # Dives as solve makes them, five per model: from the root fixpoint,
    # fix one or two free variables, each by a move on its lower and then
    # its upper bound, and propagate again, until a conflict or a full
    # assignment.  Each fixpoint must be the reference's from the same
    # box, and no row may be left flagged as queued, conflict or not.
    rng = random.Random(3011)
    conflicts = tightened = 0
    for trial in range(300):
        if trial % 2:
            model = random_unit_model(rng)
        else:
            model = random_model(rng, rng.randint(2, 12))
        for _ in range(5):
            propagator = ilp._Propagator(model)
            lo, hi = propagator.lo, propagator.hi
            conflict = propagator.propagate()
            assert not any(propagator.queued)
            while not conflict:
                free = [var for var in range(len(lo)) if lo[var] < hi[var]]
                if not free:
                    break
                box = (list(lo), list(hi))
                for var in rng.sample(free, min(len(free), rng.randint(1, 2))):
                    value = rng.randint(lo[var], hi[var])
                    box[0][var] = box[1][var] = value
                    if lo[var] < value:
                        propagator.move(var, False, value)
                    if hi[var] > value:
                        propagator.move(var, True, value)
                expected = reference_propagate(model, box)
                conflict = propagator.propagate()
                assert not any(propagator.queued), f"trial {trial}: {dump(model)}"
                assert (None if conflict else (lo, hi)) == expected, (
                    f"trial {trial}: {dump(model)}"
                )
                conflicts += conflict
                tightened += not conflict and expected != box
    assert conflicts >= 20 and tightened >= 20, (conflicts, tightened)


def test_unit_rows_propagate_like_the_reference(monkeypatch):
    # Rows of ±1 coefficients over binaries take the unit fast path; the
    # same rows over a variable declared [1, 1], [0, 0], [0, 2], or with
    # a span of 1 off 0, do not.
    rng = random.Random(1903)
    rows = {True: 0, False: 0}
    tightened = conflicts = 0  # in models of unit rows only
    for trial in range(400):
        model = random_unit_model(rng)
        box = propagate_bounds(model)
        assert box == reference_propagate(model), f"trial {trial}: {dump(model)}"
        for _, _, unit, _ in model._rows:
            rows[unit] += 1
        if all(unit for _, _, unit, _ in model._rows):
            conflicts += box is None
            tightened += box not in (None, (list(model.lower), list(model.upper)))
        with monkeypatch.context() as patch:
            patch.setattr(ilp, "CACHE_BYTES", 0)
            plain = solve(model)
        assert (plain.feasible, plain.assignment, plain.nodes) == (
            reference_search(model)
        ), f"trial {trial}: {dump(model)}"
    assert min(rows.values()) >= 300, rows
    assert tightened >= 20 and conflicts >= 20


def test_verifier_reports_violations():
    model = IlpModel()
    x = model.add_var("x", 0, 1)
    model.add([(1, x)], ">=", 1)
    assert check_assignment(model, (0,)) != []
    assert check_assignment(model, (1,)) == []
    assert check_assignment(model, (5,)) != []  # out of bounds
    assert check_assignment(model, ()) != []  # wrong arity


def test_dump_lists_variables_and_rows():
    model = IlpModel()
    x = model.add_var("alpha", 0, 1)
    y = model.add_var("beta", 0, 1)
    model.add([(1, x), (-2, y)], "<=", 3)
    text = dump(model)
    assert "alpha in [0, 1]" in text
    assert "c0: +1 alpha -2 beta <= 3" in text
    assert dump(model) == text  # stable
