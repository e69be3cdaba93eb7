import hashlib
import json
import time

from ticksynth import tdes
from ticksynth.cli import run
from ticksynth.logic import MAX_DEPTH
from ticksynth.tdes import fixture_path

RING = str(fixture_path("ring4.json"))
ROUTE_A = str(fixture_path("ring4_route_a.json"))
ROUTE_B = str(fixture_path("ring4_route_b.json"))

TWO_GOALS = "F[1,5] ap2 & F[1,5] ap4"
AVOID_UNTIL = "!ap2 U[3,5] ap3"


def test_synth_finds_avoid_until_run(capsys):
    code = run([
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmin", "5", "--hmax", "15", "--format", "json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["found"] is True
    assert out["horizon"] == 7
    assert len(out["fragment"]["events"]) == 7
    assert out["stats"]["variables"] > 0
    assert "wall" not in json.dumps(out)  # output carries no timings


def test_synth_not_found_exits_one(capsys):
    code = run([
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmin", "5", "--hmax", "6",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "found: no" in out
    assert "horizon-max: 6" in out


def test_synth_text_output(capsys):
    code = run([
        "synth", "--system", RING, "--formula", "ap1",
        "--hmax", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "found: yes" in out and "horizon: 1" in out
    assert "trajectory: p1" in out


def test_synth_json_two_goals(capsys):
    code = run([
        "synth", "--system", RING, "--formula", TWO_GOALS,
        "--hmin", "5", "--hmax", "15", "--format", "json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["horizon"] == 11


def test_synth_dot_overlay(capsys):
    code = run([
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmin", "7", "--hmax", "7", "--format", "dot",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph timed")
    assert "color=red" in out and "style=dashed" in out


def test_synth_dot_builds_the_whole_graph_before_the_search(capsys, monkeypatch):
    # the overlay's whole graph is built before the search, which then
    # explores its own only as far as horizons 1..7 reach: the request
    # fires build_tdes's steps, the search's 40, and one per event of the
    # certifying replay.  Exploring a state tries tick and each event
    # defined at its activity.
    calls = []
    real_step = tdes.step

    def counted_step(*args):
        calls.append(args)
        return real_step(*args)

    system = tdes.load_system(RING)
    graph = tdes.build_tdes(system)
    defined = [src for src, _ in system.transitions]
    tries = sum(1 + defined.count(state.activity) for state in graph.states)
    monkeypatch.setattr(tdes, "step", counted_step)
    tdes.build_tdes(system)
    assert len(calls) == tries == 60
    calls.clear()
    assert run([
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmax", "7", "--format", "dot",
    ]) == 0
    assert len(calls) == tries + 40 + 7
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "eaa9b1081166c6e3eb055188e96e84c280bca8c9c08e777d9e264700427014db"
    )


def test_check_route_fixtures(capsys):
    assert run([
        "check", "--system", RING, "--fragment", ROUTE_A,
        "--formula", TWO_GOALS,
    ]) == 0
    assert run([
        "check", "--system", RING, "--fragment", ROUTE_A,
        "--formula", "F[1,5] ap4",
    ]) == 0
    assert run([
        "check", "--system", RING, "--fragment", ROUTE_B,
        "--formula", AVOID_UNTIL,
    ]) == 0
    code = run([
        "check", "--system", RING, "--fragment", ROUTE_B,
        "--formula", TWO_GOALS,
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "result: false" in out


def test_check_json_format(capsys):
    code = run([
        "check", "--system", RING, "--fragment", ROUTE_B,
        "--formula", AVOID_UNTIL, "--format", "json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {
        "holds": True,
        "horizon": 9,
        "formula": "!ap2 U[3,5] ap3",
    }


def test_check_fragment_written_without_timers(tmp_path, capsys):
    doc = {
        "states": [{"activity": "p1"}, {"activity": "p1"}],
        "events": ["tick"],
    }
    path = tmp_path / "wait.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([
        "check", "--system", RING, "--fragment", str(path),
        "--formula", "ap1",
    ]) == 0


def test_build_statistics(capsys):
    code = run(["build", "--system", RING, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["timed_states"] == 28
    assert out["timed_transitions"] == 44
    assert out["tick_transitions"] == 28
    assert run(["build", "--system", RING]) == 0
    assert capsys.readouterr().out == (
        "activity states: 12\nevents: 16\ntimed states: 28\n"
        "timed transitions: 44\ntick transitions: 28\n"
    )


def test_build_dot_outputs(capsys):
    assert run(["build", "--system", RING, "--format", "dot"]) == 0
    timed = capsys.readouterr().out
    assert "style=dashed" in timed
    assert run(["build", "--system", RING, "--format", "untimed-dot"]) == 0
    untimed = capsys.readouterr().out
    assert untimed.startswith("digraph activity")
    # the format is the one switch: the old flag is a usage error
    assert run(["build", "--system", RING, "--untimed-dot"]) == 2


def test_oracle_subcommand_is_gone(capsys):
    # the enumeration is a reference for the tests, not a command
    code = run([
        "oracle", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmin", "5", "--hmax", "8",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid choice: 'oracle'" in captured.err


def test_dump_ilp_contains_registry_names(capsys):
    code = run([
        "dump-ilp", "--system", RING, "--formula", AVOID_UNTIL,
        "--horizon", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "w[0][0]" in out and "ze[1]" in out and "z1[0]" in out
    # slot 0 is `ap2`, the operand of the propositional slot 1, `!ap2`,
    # which reads the states directly: the atom gets no binary
    assert "z0[" not in out
    assert run(["dump-ilp", "--system", RING, "--formula", "ap1",
                "--horizon", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "integer feasibility model: 12 variables, 8 constraints"


def test_formula_file_input(tmp_path, capsys):
    path = tmp_path / "goal.txt"
    path.write_text(AVOID_UNTIL + "\n", encoding="utf-8")
    code = run([
        "synth", "--system", RING, "--formula-file", str(path),
        "--hmin", "7", "--hmax", "7",
    ])
    assert code == 0


def test_input_errors_exit_two(tmp_path, capsys):
    assert run(["synth", "--system", "missing.json",
                "--formula", "ap1", "--hmax", "2"]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    assert run(["build", "--system", str(bad)]) == 2

    assert run(["synth", "--system", RING,
                "--formula", "ap1 &&", "--hmax", "2"]) == 2
    assert run(["synth", "--system", RING,
                "--formula", "nosuchatom", "--hmax", "2"]) == 2
    assert run(["check", "--system", RING, "--fragment", RING,
                "--formula", "ap1"]) == 2
    # request validation surfaces as an input error, not a traceback
    assert run(["synth", "--system", RING, "--formula", "ap1",
                "--hmin", "3", "--hmax", "1"]) == 2
    # usage errors from argparse are also mapped
    assert run(["synth", "--system", RING]) == 2
    assert run([]) == 2


def test_undecodable_input_files_exit_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff{}")
    for args in (
        ["build", "--system", str(path)],
        ["check", "--system", RING, "--fragment", str(path), "--formula", "ap1"],
        ["synth", "--system", RING, "--formula-file", str(path), "--hmax", "2"],
    ):
        assert run(args) == 2, args
        assert capsys.readouterr().err.startswith(f"error: {path}: "), args


DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_deeply_nested_system_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert run(["build", "--system", str(path)]) == 2
    assert f"error: {path}: JSON nests too deeply" in capsys.readouterr().err


def test_deeply_nested_fragment_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert run(["check", "--system", RING, "--fragment", str(path),
                "--formula", "ap1"]) == 2
    assert f"error: {path}: JSON nests too deeply" in capsys.readouterr().err


def _synth_and_check(formula, capsys):
    codes = (
        run(["synth", "--system", RING, "--formula", formula, "--hmax", "2"]),
        run(["check", "--system", RING, "--fragment", ROUTE_A,
             "--formula", formula]),
    )
    return codes, capsys.readouterr().err


def test_nested_parentheses_exit_two(capsys):
    codes, err = _synth_and_check("(" * 300 + "ap1" + ")" * 300, capsys)
    assert codes == (2, 2)
    assert err.count("nests deeper than") == 2


def test_repeated_negation_exits_two(capsys):
    codes, err = _synth_and_check("!" * 1000 + "ap1", capsys)
    assert codes == (2, 2)
    assert err.count("nests deeper than") == 2


def test_long_conjunction_chain_exits_two(capsys):
    codes, err = _synth_and_check(" & ".join(["ap1"] * 2000), capsys)
    assert codes == (2, 2)
    assert err.count("nests deeper than") == 2


def test_formulas_at_depth_limit_run(capsys):
    for formula in (
        "(" * MAX_DEPTH + "ap1" + ")" * MAX_DEPTH,
        "!" * MAX_DEPTH + "ap1",
        " & ".join(["ap1"] * (MAX_DEPTH + 1)),
    ):
        codes, err = _synth_and_check(formula, capsys)
        assert codes == (0, 0), err


def test_equivalence_chain_runs_in_linear_time(capsys):
    # parse shares both operands of each <->, so the expanded tree of this
    # 33-link chain (depth 99) has about 2^33 nodes; it holds at position 0.
    formula = " <-> ".join(["ap1"] * 34)
    for args in (
        ["synth", "--system", RING, "--formula", formula, "--hmax", "3"],
        ["check", "--system", RING, "--fragment", ROUTE_A, "--formula", formula],
    ):
        start = time.perf_counter()
        assert run(args) == 0, capsys.readouterr().err
        assert time.perf_counter() - start < 1.0


def test_check_json_echoes_equivalence_chain_text(capsys):
    # The parsed tree of this 20-link chain expands to about 2^20 nodes;
    # the JSON result echoes the text instead of printing that tree.
    formula = " <-> ".join(["ap1"] * 21)
    start = time.perf_counter()
    code = run([
        "check", "--system", RING, "--fragment", ROUTE_A,
        "--formula", formula, "--format", "json",
    ])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert len(out.encode()) < 4096
    assert elapsed < 1.0
    assert json.loads(out)["formula"] == formula


def test_invalid_system_exits_two(tmp_path, capsys, ring_doc):
    doc = json.loads(json.dumps(ring_doc))
    doc["transitions"][0]["to"] = "nowhere"
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command, *rest in (
        ["synth", "--formula", "ap1", "--hmax", "2"],
        ["check", "--fragment", ROUTE_A, "--formula", "ap1"],
        ["build"],
    ):
        assert run([command, "--system", str(path), *rest]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid system: " in err
        assert "-> 'nowhere': target is not a declared state" in err


def test_duplicate_names_exit_two(tmp_path, capsys, ring_doc):
    first, count = ring_doc["events"][0], len(ring_doc["events"])
    for key, edit, message in (
        ("states", lambda doc: doc["states"].append("p1"), "duplicate name"),
        ("atoms", lambda doc: doc["atoms"].append("ap4"), "duplicate name"),
        ("labels", lambda doc: doc["labels"]["p3"].append("ap3"),
         "duplicate name"),
        ("events", lambda doc: doc["events"].append(first),
         f"events[{count}]: duplicate event {first['name']!r}"),
    ):
        doc = json.loads(json.dumps(ring_doc))
        edit(doc)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["build", "--system", str(path)]) == 2, key
        assert message in capsys.readouterr().err, key


def test_repeated_object_keys_exit_two(tmp_path, capsys):
    # a last-wins decoder would drop p2's first label list and answer
    # "found: no" for F[1,5] ap2
    system = tmp_path / "system.json"
    text = fixture_path("ring4.json").read_text(encoding="utf-8")
    system.write_text(
        text.replace('"p2": ["ap2"]', '"p2": ["ap1"], "p2": ["ap2"]'),
        encoding="utf-8",
    )
    route = tmp_path / "route.json"
    text = fixture_path("ring4_route_a.json").read_text(encoding="utf-8")
    route.write_text(
        text.replace('"activity": "p4"', '"activity": "p2", "activity": "p4"'),
        encoding="utf-8",
    )
    for args, path, key in (
        (["build", "--system", str(system)], system, "p2"),
        (["synth", "--system", str(system), "--formula", "F[1,5] ap2",
          "--hmax", "8"], system, "p2"),
        (["check", "--system", RING, "--fragment", str(route),
          "--formula", "ap1"], route, "activity"),
    ):
        assert run(args) == 2, args
        err = capsys.readouterr().err
        assert f"error: {path}: JSON object repeats key {key!r}" in err


def test_state_cap_flag(capsys):
    assert run(["build", "--system", RING, "--state-cap", "5"]) == 2
    assert "cap" in capsys.readouterr().err
    synth = ["synth", "--formula", "ap1", "--hmax", "2"]
    dump = ["dump-ilp", "--formula", "ap1", "--horizon", "2"]
    for cap in ("-3", "0"):
        for command in (["build"], synth, dump):
            args = [*command, "--system", RING, "--state-cap", cap]
            assert run(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"state cap must be at least 1, got {cap}" in captured.err


def test_synth_dot_over_the_cap_fails_before_the_search(capsys, monkeypatch):
    # the overlay draws the whole graph (28 states), so it is built first
    def no_search(request):
        raise AssertionError("the search ran before the cap was checked")

    monkeypatch.setattr("ticksynth.synth.synthesize", no_search)
    assert run([
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmax", "7", "--format", "dot", "--state-cap", "24",
    ]) == 2
    assert "exceeds cap 24" in capsys.readouterr().err


def test_synth_state_cap_bounds_only_the_states_its_horizons_reach(capsys):
    cap = ["--system", RING, "--state-cap", "24"]
    assert run(["synth", *cap, "--formula", AVOID_UNTIL, "--hmax", "7"]) == 0
    assert "horizon: 7" in capsys.readouterr().out.splitlines()
    assert run(["build", *cap]) == 2
    assert "exceeds cap 24" in capsys.readouterr().err


def test_byte_identical_reruns(capsys):
    args = [
        "synth", "--system", RING, "--formula", AVOID_UNTIL,
        "--hmin", "5", "--hmax", "8", "--format", "json",
    ]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def _synth_on_document(tmp_path, doc, formula="ap1", hmin="1", hmax="2"):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(["synth", "--system", str(path), "--formula", formula,
                "--hmin", hmin, "--hmax", hmax])


def test_synth_as_deep_as_its_horizon(tmp_path, capsys):
    # one state and no events: the only run of each horizon ticks
    # throughout, so the search is as deep as the horizon
    doc = {"states": ["s"], "events": [], "transitions": [], "initial": "s",
           "atoms": ["p"], "labels": {"s": ["p"]}}
    code = _synth_on_document(tmp_path, doc, "p", "1000", "1000")
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "horizon: 1000" in captured.out.splitlines()


def test_transition_source_list_exits_two(tmp_path, capsys, ring_doc):
    doc = json.loads(json.dumps(ring_doc))
    doc["transitions"][0]["from"] = ["p1"]
    assert _synth_on_document(tmp_path, doc) == 2
    assert "transitions[0]: 'from', 'event' and 'to' must be names" in (
        capsys.readouterr().err
    )


def test_initial_list_exits_two(tmp_path, capsys, ring_doc):
    assert _synth_on_document(tmp_path, {**ring_doc, "initial": ["p1"]}) == 2
    assert "'initial' must be a state name" in capsys.readouterr().err


def test_atoms_number_exits_two(tmp_path, capsys, ring_doc):
    assert _synth_on_document(tmp_path, {**ring_doc, "atoms": 7}) == 2
    assert "'atoms' must be a list of names" in capsys.readouterr().err


def test_label_value_number_exits_two(tmp_path, capsys, ring_doc):
    labels = {**ring_doc["labels"], "p1": 3}
    assert _synth_on_document(tmp_path, {**ring_doc, "labels": labels}) == 2
    assert "labels['p1'] must be a list of names" in capsys.readouterr().err
    labels = list(ring_doc["labels"].items())
    assert _synth_on_document(tmp_path, {**ring_doc, "labels": labels}) == 2
    assert "'labels' must map states to atom lists" in capsys.readouterr().err


def test_event_list_shapes_exit_two(tmp_path, capsys, ring_doc):
    assert _synth_on_document(tmp_path, {**ring_doc, "events": 7}) == 2
    assert "'events' must be a list" in capsys.readouterr().err
    for change, message in (
        ({"name": ["move12"]}, "'name' must be a string"),
        ({"lower": True}, "'lower' must be an integer"),
        ({"kind": "prospective"}, "prospective event needs integer 'upper'"),
        ({"upper": 3}, "remote event must omit 'upper'"),
        ({"kind": "sometimes"}, "unknown kind 'sometimes'"),
        ({"lowr": 3}, "unknown key 'lowr'"),
    ):
        events = [{**ring_doc["events"][0], **change}] + ring_doc["events"][1:]
        assert _synth_on_document(tmp_path, {**ring_doc, "events": events}) == 2
        assert f"events[0]: {message}" in capsys.readouterr().err


def _check_on_fragment(tmp_path, doc):
    path = tmp_path / "fragment.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(["check", "--system", RING, "--fragment", str(path),
                "--formula", "ap1"])


def _route_a_doc():
    with open(ROUTE_A, encoding="utf-8") as handle:
        return json.load(handle)


def test_fragment_event_shapes_exit_two(tmp_path, capsys):
    for bad in (["tick"], {"a": 1}):
        doc = _route_a_doc()
        doc["events"][0] = bad
        assert _check_on_fragment(tmp_path, doc) == 2
        assert "events[0] must be an event name" in capsys.readouterr().err


def test_fragment_activity_list_exits_two(tmp_path, capsys):
    doc = _route_a_doc()
    doc["states"][0]["activity"] = ["p1"]
    assert _check_on_fragment(tmp_path, doc) == 2
    assert "states[0]: 'activity' must be a string" in capsys.readouterr().err


def test_fragment_timers_number_exits_two(tmp_path, capsys):
    doc = _route_a_doc()
    doc["states"][0]["timers"] = 7
    assert _check_on_fragment(tmp_path, doc) == 2
    assert "states[0]: 'timers' must be an object" in capsys.readouterr().err


def test_fragment_timers_must_be_integers(tmp_path, capsys):
    # false, true and 2.0 compare equal to the replayed 0, 1 and 2
    start = tdes.initial_state(tdes.load_system(RING)).timer_map()
    assert (start["move12"], start["reach14"], start["reach12"]) == (0, 1, 2)
    for event, bad in (("move12", False), ("reach14", True), ("reach12", 2.0)):
        doc = _route_a_doc()
        doc["states"][0]["timers"] = {**start, event: bad}
        assert _check_on_fragment(tmp_path, doc) == 2
        assert f"states[0]: timer {event!r} must be an integer" in (
            capsys.readouterr().err
        )
