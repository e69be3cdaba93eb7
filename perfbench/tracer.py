"""Spans around the calls ``synthesize`` makes into each layer.

For a traced request the benchmark replaces the module attributes that
``synth.synthesize`` (and, below it, ``encode.decode`` and ``ilp.solve``)
look up at call time with timing wrappers, and puts the originals back
afterwards.  Each wrapped call records a span: name, start, end, parent
span and request id.  Spans stay in memory.  Sizes are read off each
returned object as its call ends, so that the object can be freed as in
an untraced request; that pause is kept out of every self time.

A span's layer is the text before the dot in its name.  A hook whose
attribute a refactor removed is recorded as absent instead of failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, span name); the module is the one whose namespace
# the caller resolves the name in.
HOOKS = (
    ("synth", "build_tdes", "tdes.build_tdes"),
    ("synth", "build_encoding", "encode.build_encoding"),
    ("synth", "solve", "ilp.solve"),
    ("synth", "decode", "encode.decode"),
    ("synth", "evaluate", "logic.evaluate"),
    ("encode", "evaluate", "logic.evaluate"),
    ("ilp", "check_assignment", "ilp.check_assignment"),
)
ROOT = "synth.synthesize"


@dataclass
class Span:
    """One wrapped call; ``parent`` indexes the request's span list."""

    name: str
    start: float
    end: float
    parent: int
    request: int
    counts: dict = field(default_factory=dict)
    # Time the tracer spent reading sizes off this span's children.
    paused: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, result: object) -> dict:
    """Sizes a layer's return value reveals; empty where it reveals none."""
    try:
        if name == "tdes.build_tdes":
            return {"states": len(result.states), "transitions": len(result.transitions)}
        if name == "encode.build_encoding":
            model = result.model
            return {
                "horizon": result.horizon,
                "vars": model.num_variables,
                "rows": model.num_constraints,
                "nnz": sum(len(c.terms) for c in model.constraints),
            }
        if name == "ilp.solve":
            return {"nodes": result.nodes, "feasible": bool(result.feasible)}
    except AttributeError:
        pass
    return {}


class Tracer:
    """Span recorder; ``requests[r]`` holds request r's spans, root first."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.requests: list[list[Span]] = []
        self.absent = sorted(
            f"{mod}.{attr}"
            for mod, attr, _ in HOOKS
            if not hasattr(modules.get(mod), attr)
        )

    def _wrap(self, name: str, fn, spans: list[Span], stack: list[int]):
        request, clock = len(self.requests) - 1, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, clock(), 0.0, parent, request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            # Read sizes now so the result can be freed; the parent's self
            # time leaves this pause out.
            span.counts = _counts(name, result)
            if parent >= 0:
                spans[parent].paused += clock() - span.end
            return result

        return traced

    def call(self, fn, *args):
        """Run one request as a root span with its layer hooks installed.

        Returns the request's result and its wall time, which includes
        the tracer's own pauses.
        """
        spans: list[Span] = []
        stack: list[int] = []
        self.requests.append(spans)
        saved = []
        try:
            for mod, attr, name in HOOKS:
                module = self.modules.get(mod)
                original = getattr(module, attr, None)
                if original is not None:
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, spans, stack))
            result = self._wrap(ROOT, fn, spans, stack)(*args)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        return result, spans[0].seconds


# Per-layer self-time metrics and the span whose self time each sums.
SELF_TIMES = {
    "tdes.build_s": "tdes.build_tdes",
    "encode.build_s": "encode.build_encoding",
    "encode.decode_s": "encode.decode",
    "ilp.solve_s": "ilp.solve",
    "ilp.verify_s": "ilp.check_assignment",
    "logic.evaluate_s": "logic.evaluate",
    "synth.self_s": ROOT,
}


def request_summary(spans: list[Span]) -> tuple[dict, list[dict]]:
    """Per-layer totals and per-horizon records of one traced request.

    ``spans`` is one entry of ``Tracer.requests``.  Self time is a span's
    duration minus that of its direct children and the tracer's pauses,
    so the self times of a request's spans and those pauses add up to its
    wall time.  A horizon opens at each
    ``encode.build_encoding`` span and owns the request's top-level spans
    up to the next one; it is refuted when its last solve was infeasible.
    """
    self_s = {name: 0.0 for name in SELF_TIMES.values()}
    for pos, span in enumerate(spans):
        children = sum(s.seconds for s in spans if s.parent == pos) + span.paused
        self_s[span.name] = self_s.get(span.name, 0.0) + span.seconds - children
    self_s["tracer.pause"] = sum(span.paused for span in spans)

    horizons: list[dict] = []
    for span in spans:
        if span.name == "encode.build_encoding" and span.parent == 0:
            horizons.append({key: span.counts.get(key) for key in ("horizon", "vars", "rows", "nnz")})
            horizons[-1].update(seconds=0.0, solves=0, nodes=0, feasible=False)
        if span.parent != 0 or not horizons:
            continue
        record = horizons[-1]
        record["seconds"] += span.seconds
        if span.name == "ilp.solve" and span.counts:
            record["solves"] += 1
            record["nodes"] += span.counts["nodes"]
            record["feasible"] = span.counts["feasible"]

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    graphs = [s.counts for s in spans if s.name == "tdes.build_tdes" and s.counts]
    summary = {metric: self_s[name] for metric, name in SELF_TIMES.items()}
    summary.update({
        "wall_s": spans[0].seconds,
        "self_s": self_s,
        "tdes.states": graphs[-1]["states"] if graphs else 0,
        "tdes.transitions": graphs[-1]["transitions"] if graphs else 0,
        "encode.vars": total("encode.build_encoding", "vars"),
        "encode.rows": total("encode.build_encoding", "rows"),
        "encode.nnz": total("encode.build_encoding", "nnz"),
        "ilp.nodes": total("ilp.solve", "nodes"),
        "ilp.solves": sum(1 for s in spans if s.name == "ilp.solve" and s.counts),
        "ilp.feasible": total("ilp.solve", "feasible"),
        "logic.evaluate_calls": sum(1 for s in spans if s.name == "logic.evaluate"),
        "synth.horizons_tried": len(horizons),
        "refuted_s": sum(h["seconds"] for h in horizons if h["solves"] and not h["feasible"]),
    })
    return summary, horizons
