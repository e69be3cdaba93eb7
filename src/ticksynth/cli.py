"""Command-line front end.

Subcommands: ``synth`` (find a certified run), ``check`` (evaluate a
stored run against a formula), ``build`` (timed-system statistics, DOT
of the timed system or of the untimed automaton), and ``dump-ilp``
(annotated model text).  Exit codes: 0 when a run was found or the
check holds, 1 for a negative answer, 2 for usage or input errors.

Rendered output never includes timing measurements, so repeated runs on
identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import encode, ilp, synth, tdes
from .logic import evaluate, parse

# ValueError covers the format, validation, and parse error families;
# internal invariant violations (RuntimeError at large) traceback loudly.
_INPUT_ERRORS = (ValueError, OSError, tdes.StateCapError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticksynth",
        description=(
            "Synthesize and check runs of timed discrete-event systems "
            "against tick-counting temporal specifications."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", required=True, help="system JSON document")

    def add_formula(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file holding formula text")

    def add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--state-cap",
            type=int,
            default=tdes.DEFAULT_STATE_CAP,
            help="abort when more timed states than this are discovered "
            "(synth and dump-ilp discover only those their horizons reach; "
            "synth --format dot draws, and so discovers, the whole graph)",
        )

    p_synth = sub.add_parser("synth", help="search the horizon range for a run")
    add_system(p_synth)
    add_formula(p_synth)
    p_synth.add_argument("--hmin", type=int, default=1)
    p_synth.add_argument("--hmax", type=int, required=True)
    p_synth.add_argument(
        "--format", choices=["text", "json", "dot"], default="text"
    )
    add_cap(p_synth)

    p_check = sub.add_parser("check", help="evaluate a stored run")
    add_system(p_check)
    add_formula(p_check)
    p_check.add_argument("--fragment", required=True, help="run JSON document")
    p_check.add_argument("--format", choices=["text", "json"], default="text")

    p_build = sub.add_parser("build", help="construct the timed system")
    add_system(p_build)
    p_build.add_argument(
        "--format",
        choices=["text", "json", "dot", "untimed-dot"],
        default="text",
        help="untimed-dot: DOT of the untimed activity automaton",
    )
    add_cap(p_build)

    p_dump = sub.add_parser("dump-ilp", help="print the feasibility model")
    add_system(p_dump)
    add_formula(p_dump)
    p_dump.add_argument("--horizon", type=int, required=True)
    add_cap(p_dump)

    return parser


def _formula_text(args: argparse.Namespace) -> str:
    if args.formula is not None:
        return args.formula
    try:
        with open(args.formula_file, encoding="utf-8") as handle:
            return handle.read().strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.formula_file}: {exc}") from exc


def _result_payload(result: synth.SynthesisResult) -> dict:
    payload: dict = {
        "found": result.found,
        "horizon": result.horizon,
        "horizon_max": result.horizon_max,
        "stats": {
            "variables": result.statistics.variables,
            "constraints": result.statistics.constraints,
            "nodes": result.statistics.nodes,
        },
    }
    if result.fragment is not None:
        payload["fragment"] = tdes.fragment_to_json(result.fragment)
    return payload


def _cmd_synth(args: argparse.Namespace) -> int:
    """Search the request the arguments describe and print the result.
    ``dot`` overlays the run on the whole timed graph, built before the
    search so that a graph over the cap fails first; the search explores
    a graph of its own."""
    system = tdes.load_system(args.system)
    request = synth.SynthesisRequest(
        system=system,
        formula=parse(_formula_text(args)),
        horizon_min=args.hmin,
        horizon_max=args.hmax,
        state_cap=args.state_cap,
    )
    if args.format == "dot":  # over the cap, fail before the search
        graph = tdes.build_tdes(system, args.state_cap)
    result = synth.synthesize(request)
    if args.format == "json":
        print(json.dumps(_result_payload(result), indent=2, sort_keys=True))
    elif args.format == "dot":
        print(tdes.tdes_to_dot(graph, highlight=result.fragment), end="")
    else:
        print(f"found: {'yes' if result.found else 'no'}")
        if result.found:
            print(f"horizon: {result.horizon}")
            print("events: " + " ".join(result.fragment.events))
            print("trajectory: " + " ".join(result.fragment.activities()))
        else:
            print(f"horizon-max: {result.horizon_max}")
        stats = result.statistics
        print(f"variables: {stats.variables}")
        print(f"constraints: {stats.constraints}")
        print(f"nodes: {stats.nodes}")
    return 0 if result.found else 1


def _cmd_check(args: argparse.Namespace) -> int:
    system = tdes.load_system(args.system)
    text = _formula_text(args)
    formula = parse(text)
    fragment = tdes.load_fragment(args.fragment, system)
    holds = evaluate(fragment, formula, 0, system.labeling, system.atoms)
    if args.format == "json":
        payload = {
            "holds": holds,
            "horizon": fragment.horizon,
            # The text as given: printing the parsed tree would expand
            # the subtrees that ``<->`` shares.
            "formula": text,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"result: {'true' if holds else 'false'}")
        print(f"horizon: {fragment.horizon}")
    return 0 if holds else 1


def _cmd_build(args: argparse.Namespace) -> int:
    system = tdes.load_system(args.system)
    if args.format == "untimed-dot":
        print(tdes.untimed_to_dot(system), end="")
        return 0
    graph = tdes.build_tdes(system, args.state_cap)
    if args.format == "dot":
        print(tdes.tdes_to_dot(graph), end="")
        return 0
    events = [ev for pairs in graph.outgoing for ev, _ in pairs]
    counts = {
        "activity states": len(system.states),
        "events": len(system.events),
        "timed states": graph.n,
        "timed transitions": len(events),
        "tick transitions": events.count(tdes.TICK),
    }
    if args.format == "json":
        payload = {name.replace(" ", "_"): n for name, n in counts.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, n in counts.items():
            print(f"{name}: {n}")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    system = tdes.load_system(args.system)
    formula = parse(_formula_text(args))
    graph = tdes.TimedDes(system, args.state_cap)
    enc = encode.build_encoding(encode.Encoding(graph, formula), args.horizon)
    print(ilp.dump(enc.model), end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "check": _cmd_check,
    "build": _cmd_build,
    "dump-ilp": _cmd_dump,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
