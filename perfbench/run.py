"""Time-to-verdict benchmark for ticksynth's exact synthesis pipeline.

    python3 perfbench/run.py --workload ring-found --seed 1 --seconds 40 --trace 0

One client in one process calls ``ticksynth.synth.synthesize`` in a closed
loop: the next request starts only after the previous verdict returned.
Every verdict is compared with the workload's pinned answer, and every
returned run is replayed and evaluated independently of ``synthesize``.
"found" answers are also cross-checked once per run against exhaustive
enumeration, outside all timed regions.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics, with times normalized to host speed by a probe run between
requests (see ``Normalizer``).  With ``--trace 1`` untraced and traced
requests alternate; the traced ones give the per-layer metrics (see
``tracer.py``) and their spans are written to ``perfbench/out/`` at the
end.  The last line of standard output is the result as one JSON object;
``--workload all`` runs every workload in turn, each ending with its own
result line.  The package is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, request_summary
from workloads import DEFAULT_SEED, WORKLOADS, Case

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("tdes", "logic", "encode", "ilp", "synth")
# Set-up takes milliseconds, so it is repeated and its median reported.
SETUP_REPEATS = 15
# The host-speed probe; see Normalizer.
PROBE_SIZE = 12_000
PROBE_NOMINAL_S = 0.01
# verdict_s.p90 is printed only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


@dataclasses.dataclass
class Prepared:
    case: Case
    system: object
    formula: object
    request: object


def import_program() -> dict:
    """Fresh import of the package from ``src/`` next to the benchmark."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "ticksynth"]:
        del sys.modules[name]
    package = importlib.import_module("ticksynth")
    if Path(package.__file__).resolve().parent != SRC / "ticksynth":
        raise ImportError(f"ticksynth was imported from {package.__file__}")
    return {name: importlib.import_module(f"ticksynth.{name}") for name in MODULES}


def exact_request(modules: dict, system, formula, case: Case):
    """Request exact encoding while the request type still has a mode."""
    synth = modules["synth"]
    fields = {f.name for f in dataclasses.fields(synth.SynthesisRequest)}
    extra = {"mode": modules["encode"].EXACT} if "mode" in fields else {}
    return synth.SynthesisRequest(
        system, formula, case.horizon_min, case.horizon_max, **extra
    )


def set_up(workload: str, seed: int) -> tuple[float, dict, list[Prepared]]:
    """Import, instance generation or fixture load, and formula parsing."""
    start = time.perf_counter()
    modules = import_program()
    tdes, logic = modules["tdes"], modules["logic"]
    prepared = []
    for case in WORKLOADS[workload](seed):
        if isinstance(case.system, str):
            system = tdes.load_system(tdes.fixture_path(case.system))
        else:
            system = tdes.system_from_json(case.system)
        formula = logic.parse(case.formula)
        prepared.append(
            Prepared(case, system, formula, exact_request(modules, system, formula, case))
        )
    return time.perf_counter() - start, modules, prepared


def verdict_problem(item: Prepared, result, modules: dict) -> str | None:
    """Why a returned verdict is wrong, or None when it is right."""
    case, system = item.case, item.system
    if result.found != (case.horizon is not None):
        return f"found={result.found}, pinned horizon {case.horizon}"
    if not result.found:
        return None
    if result.horizon != case.horizon:
        return f"horizon {result.horizon}, pinned {case.horizon}"
    fragment = result.fragment
    if fragment is None or fragment.horizon != result.horizon:
        return "returned run does not have the reported horizon"
    replay = modules["tdes"].fragment_errors(system, fragment)
    if replay:
        return "returned run does not replay: " + replay[0]
    if not modules["logic"].evaluate(
        fragment, item.formula, 0, system.labeling, system.atoms
    ):
        return "returned run does not satisfy the formula"
    return None


def oracle_problems(prepared: list[Prepared], modules: dict) -> list[str]:
    """Pinned "found" answers against exhaustive enumeration."""
    problems = []
    for item in prepared:
        if item.case.horizon is None:
            continue
        result = modules["synth"].oracle_synthesize(item.request)
        if result.horizon != item.case.horizon:
            problems.append(
                f"{item.case.name}: enumeration gives horizon {result.horizon}, "
                f"pinned {item.case.horizon}"
            )
    return problems


def probe_s() -> float:
    """Seconds the host takes for a fixed stdlib-only computation.

    The work is of the program's kind (tuples, dict updates, list growth,
    a sort) but shares no code with it, so a change to ticksynth never
    changes the probe.
    """
    start = time.perf_counter()
    table: dict = {}
    rows = []
    total = 0
    for i in range(PROBE_SIZE):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        rows.append((i * 7 % 31, -i, key))
        total += i * 3 if i & 1 else -(i >> 1)
    rows.sort()
    for row in rows:
        total += table[row[2]] & 255
    return time.perf_counter() - start


class Normalizer:
    """Scales wall times to the host speed at which a probe takes
    ``PROBE_NOMINAL_S``, using the probes right before and after each."""

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def __call__(self, wall: float) -> float:
        self.probes.append(probe_s())
        return wall * 2 * PROBE_NOMINAL_S / (self.probes[-2] + self.probes[-1])


@dataclasses.dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    # Normalized seconds of correct requests; ``raw`` holds the same
    # untraced requests in wall seconds.
    walls: list = dataclasses.field(default_factory=list)
    raw: list = dataclasses.field(default_factory=list)
    traced_walls: list = dataclasses.field(default_factory=list)
    traced_ok: list = dataclasses.field(default_factory=list)
    by_case: dict = dataclasses.field(default_factory=dict)
    probes: list = dataclasses.field(default_factory=list)


def measure(prepared: list[Prepared], modules: dict, seconds: float,
            tracer: Tracer | None) -> Loop:
    """Closed loop over the workload's requests for ``seconds``.

    Untraced, each step sends one request.  Traced, each step sends the
    same request untraced and traced, alternating which goes first.
    """
    synthesize = modules["synth"].synthesize
    loop = Loop()
    normalize = Normalizer()
    start = last = time.perf_counter()
    step = 0
    # Start a step only if one more like the last still ends in time.
    while step == 0 or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        item = prepared[step % len(prepared)]
        modes = [False] if tracer is None else [step % 2 == 1, step % 2 == 0]
        for traced in modes:
            loop.attempted += 1
            try:
                if traced:
                    result, wall = tracer.call(synthesize, item.request)
                else:
                    begin = time.perf_counter()
                    result = synthesize(item.request)
                    wall = time.perf_counter() - begin
            except Exception as exc:  # a raising request is a failed request
                normalize(0.0)
                loop.failed += 1
                print(f"FAILED {item.case.name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            scaled = normalize(wall)
            problem = verdict_problem(item, result, modules)
            if problem is not None:
                loop.failed += 1
                print(f"FAILED {item.case.name}: {problem}", file=sys.stderr)
                continue
            if traced:
                loop.traced_walls.append(scaled)
                loop.traced_ok.append((len(tracer.requests) - 1, item.case.name))
            else:
                loop.walls.append(scaled)
                loop.raw.append(wall)
                loop.by_case.setdefault(item.case.name, (result, []))[1].append(wall)
        step += 1
    loop.probes = normalize.probes
    return loop


def end_to_end(loop: Loop, setup_s: float) -> dict:
    return {
        "verdict_s.p50": (statistics.median(loop.walls), "s"),
        "verdicts_per_s": (len(loop.walls) / sum(loop.walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


# Per-layer metrics reported as means per traced request.
MEANS = (
    "tdes.build_s", "tdes.states", "tdes.transitions",
    "encode.build_s", "encode.vars", "encode.rows", "encode.nnz", "encode.decode_s",
    "ilp.solve_s", "ilp.nodes", "ilp.verify_s",
    "logic.evaluate_s", "logic.evaluate_calls",
    "synth.self_s", "synth.horizons_tried",
)


def per_layer(loop: Loop, tracer: Tracer) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics, the per-horizon records of each traced request,
    and each layer's share of traced request time."""
    summaries, records = [], []
    for index, name in loop.traced_ok:
        summary, horizons = request_summary(tracer.requests[index])
        summaries.append(summary)
        records.append({"request": index, "case": name, "horizons": horizons})

    def total(key: str) -> float:
        return sum(s[key] for s in summaries)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    metrics = {
        key: (total(key) / len(summaries), "s" if key.endswith("_s") else "count")
        for key in MEANS
    }
    metrics.update({
        "ilp.us_per_node": (1e6 * ratio(total("ilp.solve_s"), total("ilp.nodes")), "us"),
        "ilp.feasible_share": (ratio(total("ilp.feasible"), total("ilp.solves")), "share"),
        "synth.solves_per_horizon": (
            ratio(total("ilp.solves"), total("synth.horizons_tried")), "count"
        ),
        "synth.refuted_share": (total("refuted_s") / total("wall_s"), "share"),
        "trace.overhead_share": (
            statistics.median(loop.traced_walls) / statistics.median(loop.walls) - 1,
            "share",
        ),
    })
    shares: dict[str, float] = {}
    for summary in summaries:
        for span, seconds in summary["self_s"].items():
            layer = span.partition(".")[0]
            shares[layer] = shares.get(layer, 0.0) + seconds / total("wall_s")
    return metrics, records, shares


def write_spans(workload: str, seed: int, tracer: Tracer, records: list[dict]) -> Path:
    origin = tracer.requests[0][0].start
    spans = [
        [span.name, span.start - origin, span.end - origin, span.parent,
         span.request, span.counts]
        for spans in tracer.requests
        for span in spans
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "absent_hooks": tracer.absent,
        "span_fields": ["name", "start_s", "end_s", "parent", "request", "counts"],
        "spans": spans,
        "requests": records,
    }))
    return path


def report_cases(loop: Loop, records: list[dict]) -> None:
    """One line per request kind: verdict, decisive model size, nodes."""
    for name, (result, walls) in loop.by_case.items():
        stats = result.statistics
        verdict = f"found H={result.horizon}" if result.found else "not found"
        print(f"  {name:18} {verdict:12} vars {stats.variables} rows "
              f"{stats.constraints} nodes {stats.nodes}  median "
              f"{statistics.median(walls):.4f} s ({len(walls)} samples)")
    seen = set()
    for record in records:
        if record["case"] in seen or not record["horizons"]:
            continue
        seen.add(record["case"])
        last = record["horizons"][-1]
        nodes = sum(h["nodes"] for h in record["horizons"])
        print(f"  {record['case']:18} traced: H={last['horizon']} vars {last['vars']} "
              f"rows {last['rows']} nnz {last['nnz']} nodes {nodes} "
              f"over {len(record['horizons'])} horizons")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    normalize = Normalizer()
    for _ in range(SETUP_REPEATS):
        setup_s, modules, prepared = set_up(workload, seed)
        setups.append(normalize(setup_s))
    oracle = oracle_problems(prepared, modules)
    for problem in oracle:
        print(f"ORACLE {problem}", file=sys.stderr)

    tracer = Tracer(modules) if trace else None
    loop = measure(prepared, modules, seconds, tracer)

    e2e = end_to_end(loop, statistics.median(setups)) if loop.walls else {}
    layers: dict = {}
    records: list[dict] = []
    if tracer is not None and loop.traced_ok and loop.walls:
        layers, records, shares = per_layer(loop, tracer)
    metrics = layers if trace else e2e

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"attempted {loop.attempted}  failed {loop.failed}  "
          f"failed_share {loop.failed / loop.attempted:.4f}  "
          f"oracle {'agrees' if not oracle else 'DISAGREES'}")
    report_cases(loop, records)
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:26} {value:.6g} {unit}")
    if loop.walls:
        print(f"  verdict_s.p50 is the median of {len(loop.walls)} samples; "
              f"in wall seconds {statistics.median(loop.raw):.6g} s at a median "
              f"probe of {statistics.median(loop.probes):.6g} s")
    if len(loop.walls) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(loop.walls, n=10)[-1]
        print(f"  verdict_s.p90 {p90:.6g} s ({len(loop.walls)} samples)")
    if layers:
        print("  self-time shares: " + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if tracer.absent:
            print("  absent hooks (their metrics read 0): " + ", ".join(tracer.absent))
        print(f"  spans written to {write_spans(workload, seed, tracer, records)}")
    return {
        "correct": loop.failed == 0 and not oracle and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ticksynth" / "__init__.py").is_file():
        print(f"error: no ticksynth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except ImportError as exc:
            print(f"error: cannot import ticksynth: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
