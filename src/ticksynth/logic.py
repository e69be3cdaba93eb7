"""Finite-trace temporal formulas whose until operator counts clock ticks.

The core grammar has five constructors: truth, atomic propositions,
negation, conjunction, and an until operator ``U[m,n]`` that requires the
right operand to hold at some position reachable with between ``m`` and
``n`` tick events, with the left operand holding everywhere before it.
Disjunction is kept as a native sixth node because the downstream integer
encoding treats it directly; implication, equivalence, ``false``, and the
``F``/``G`` temporal operators are expanded at parse time:

    a -> b      becomes  !a | b
    a <-> b     becomes  (!a | b) & (!b | a)
    false       becomes  !true
    F[m,n] a    becomes  true U[m,n] a
    G[m,n] a    becomes  !(true U[m,n] !a)

Satisfaction is decided over a :class:`~ticksynth.tdes.Fragment` relative
to an activity labeling, with the tick-count windows measured through
``Fragment.count``.
"""

from __future__ import annotations

import re
from typing import Callable, Collection, Mapping

from .record import Record
from .tdes import Fragment


class FormulaSyntaxError(ValueError):
    """Rejected formula text; carries the character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ValueError):
    """A formula mentions an atom outside the system's alphabet."""


class Formula(Record):
    """Base class for formula nodes; all nodes are immutable and compare
    and hash by kind and fields, so ``And(a, b) != Or(a, b)``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))


class Truth(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)


class Not(Formula):
    __slots__ = ("operand",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Until(Formula):
    """``left U[lower,upper] right`` with tick-count bounds."""

    __slots__ = ("left", "right", "lower", "upper")

    def __init__(
        self, left: Formula, right: Formula, lower: int, upper: int
    ) -> None:
        if type(lower) is not int or type(upper) is not int:
            raise ValueError("until bounds must be integers")
        if lower < 0 or lower > upper:
            raise ValueError(
                f"until bounds [{lower},{upper}] must satisfy "
                "0 <= lower <= upper"
            )
        super().__init__(left, right, lower, upper)


TRUE = Truth()

MAX_DEPTH = 100
"""Deepest formula ``parse`` accepts, both as nesting in the text
(parentheses, prefix operators, right-nested ``U`` and ``->``) and as
depth of the parsed tree.  Parsing, hashing and evaluation all recurse
over the tree, so deeper input would exhaust the interpreter's stack."""

_RESERVED = {"U", "F", "G", "X", "true", "false"}

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>\d+)"
    r"|(?P<op><->|->|[()\[\],&|!])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest first: ``<->``, ``->``, ``|``, ``&``, ``U[m,n]``
    (right associative), then the prefix operators ``!``, ``F``, ``G``.
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.depths: dict[int, int] = {}

    def too_deep(self) -> FormulaSyntaxError:
        return FormulaSyntaxError(
            f"formula nests deeper than {MAX_DEPTH} levels", self.peek()[2]
        )

    def nested(self, rule: Callable[[], Formula]) -> Formula:
        """Apply a recursive grammar rule one nesting level deeper."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.too_deep()
        node = rule()
        self.nesting -= 1
        return node

    def node(self, kind: type, *fields: object) -> Formula:
        """Build a tree node, tracking its depth by object identity (every
        node built here stays referenced by the tree, so ids stay unique)."""
        depth = 1 + max(
            (self.depths.get(id(f), 0) for f in fields if isinstance(f, Formula)),
            default=0,
        )
        if depth > MAX_DEPTH:
            raise self.too_deep()
        built = kind(*fields)
        self.depths[id(built)] = depth
        return built

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, literal: str, what: str) -> None:
        kind, text, at = self.peek()
        if text != literal or kind == "end":
            shown = text if kind != "end" else "end of input"
            raise FormulaSyntaxError(f"expected {what}, found {shown!r}", at)
        self.take()

    def parse(self) -> Formula:
        node = self.equivalence()
        kind, text, at = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {text!r}", at)
        return node

    def equivalence(self) -> Formula:
        node = self.implication()
        while self.peek()[1] == "<->":
            self.take()
            other = self.implication()
            node = self.node(
                And,
                self.node(Or, self.node(Not, node), other),
                self.node(Or, self.node(Not, other), node),
            )
        return node

    def implication(self) -> Formula:
        node = self.disjunction()
        if self.peek()[1] == "->":
            self.take()
            return self.node(
                Or, self.node(Not, node), self.nested(self.implication)
            )
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek()[1] == "|":
            self.take()
            node = self.node(Or, node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.until()
        while self.peek()[1] == "&":
            self.take()
            node = self.node(And, node, self.until())
        return node

    def until(self) -> Formula:
        node = self.unary()
        if self.peek()[1] == "U":
            self.take()
            low, high = self.interval()
            return self.node(Until, node, self.nested(self.until), low, high)
        return node

    def unary(self) -> Formula:
        kind, text, at = self.peek()
        if text == "!":
            self.take()
            return self.node(Not, self.nested(self.unary))
        if text == "F":
            self.take()
            low, high = self.interval()
            return self.node(Until, TRUE, self.nested(self.unary), low, high)
        if text == "G":
            self.take()
            low, high = self.interval()
            operand = self.node(Not, self.nested(self.unary))
            return self.node(
                Not, self.node(Until, TRUE, operand, low, high)
            )
        if text == "X":
            raise FormulaSyntaxError("the next operator is not supported", at)
        return self.primary()

    def primary(self) -> Formula:
        kind, text, at = self.take()
        if text == "(":
            node = self.nested(self.equivalence)
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if text == "true":
                return TRUE
            if text == "false":
                return self.node(Not, TRUE)
            if text in _RESERVED:
                raise FormulaSyntaxError(
                    f"{text!r} is an operator and needs an operand", at
                )
            return Atom(text)
        shown = text if kind != "end" else "end of input"
        raise FormulaSyntaxError(f"expected a formula, found {shown!r}", at)

    def interval(self) -> tuple[int, int]:
        self.expect("[", "'[' opening a tick interval")
        low = self.integer()
        self.expect(",", "','")
        high = self.integer()
        kind, _, at = self.peek()
        self.expect("]", "']'")
        if low > high:
            raise FormulaSyntaxError(f"empty tick interval [{low},{high}]", at)
        return low, high

    def integer(self) -> int:
        kind, text, at = self.take()
        if kind != "num":
            raise FormulaSyntaxError(
                "interval bounds must be nonnegative integers", at
            )
        return int(text)


def parse(text: str) -> Formula:
    """Parse concrete formula syntax into the core node kinds.

    Text or trees nesting deeper than :data:`MAX_DEPTH` are rejected with
    :class:`FormulaSyntaxError`.
    """
    return _Parser(text).parse()


_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_NOT = 4


def _fmt(node: Formula, need: int) -> str:
    if isinstance(node, Truth):
        return "true"
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Not):
        text, prec = "!" + _fmt(node.operand, _PREC_NOT), _PREC_NOT
    elif isinstance(node, And):
        text = f"{_fmt(node.left, _PREC_AND)} & {_fmt(node.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(node, Or):
        text = f"{_fmt(node.left, _PREC_OR)} | {_fmt(node.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif isinstance(node, Until):
        text = (
            f"{_fmt(node.left, _PREC_UNTIL + 1)} "
            f"U[{node.lower},{node.upper}] "
            f"{_fmt(node.right, _PREC_UNTIL)}"
        )
        prec = _PREC_UNTIL
    else:
        raise TypeError(f"not a formula node: {node!r}")
    return f"({text})" if prec < need else text


def format_formula(node: Formula) -> str:
    """Emit the concrete syntax; ``parse(format_formula(f))`` returns ``f``."""
    return _fmt(node, 0)


class SubformulaTable(Record):
    """Distinct subformulas in bottom-up order, root last.

    Structurally equal subtrees share one entry, so each entry's children
    indices point at earlier entries; ``root`` is the root's index.
    """

    __slots__ = ("entries", "children", "root")

    def __len__(self) -> int:
        return len(self.entries)


def _child_nodes(node: Formula) -> tuple[Formula, ...]:
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, (And, Or, Until)):
        return (node.left, node.right)
    return ()


def _scalars(node: Formula) -> tuple:
    if isinstance(node, Atom):
        return (node.name,)
    if isinstance(node, Until):
        return (node.lower, node.upper)
    return ()


def subformulas(root: Formula) -> SubformulaTable:
    """Enumerate distinct subformulas, children before parents.

    Nodes are matched by identity first and then by kind, scalar fields
    and child slots, never by hashing a subtree: ``parse`` shares the
    operands of ``<->``, so a chain of equivalences is a DAG whose
    expanded tree is exponentially large.
    """
    entries: list[Formula] = []
    children: list[tuple[int, ...]] = []
    by_id: dict[int, int] = {}  # the tree keeps every node, so ids stay unique
    by_shape: dict[tuple, int] = {}

    def visit(node: Formula) -> int:
        found = by_id.get(id(node))
        if found is not None:
            return found
        kids = tuple(visit(child) for child in _child_nodes(node))
        shape = (type(node), _scalars(node), kids)
        slot = by_shape.get(shape)
        if slot is None:
            slot = by_shape[shape] = len(entries)
            entries.append(node)
            children.append(kids)
        by_id[id(node)] = slot
        return slot

    top = visit(root)
    return SubformulaTable(tuple(entries), tuple(children), top)


def evaluate(
    fragment: Fragment,
    formula: Formula,
    k: int,
    labels: Mapping[str, Collection[str]],
    atoms: Collection[str],
) -> bool:
    """Decide satisfaction of ``formula`` on the k-th suffix of ``fragment``.

    ``labels`` maps activity names to the atoms holding there; ``atoms``
    is the full alphabet (mentioning anything else raises
    :class:`UnknownAtomError`).  Results are memoized per (subformula,
    position) in a three-valued table so shared subtrees are evaluated
    once.
    """
    horizon = fragment.horizon
    if not 0 <= k <= horizon:
        raise IndexError(f"suffix index {k} out of range 0..{horizon}")
    table = subformulas(formula)
    for node in table.entries:
        if isinstance(node, Atom) and node.name not in atoms:
            raise UnknownAtomError(f"atom {node.name!r} is not declared")

    memo: list[list[bool | None]] = [
        [None] * (horizon + 1) for _ in table.entries
    ]

    def value(slot: int, pos: int) -> bool:
        cached = memo[slot][pos]
        if cached is not None:
            return cached
        node = table.entries[slot]
        kids = table.children[slot]
        if isinstance(node, Truth):
            result = True
        elif isinstance(node, Atom):
            result = node.name in labels.get(fragment.states[pos].activity, ())
        elif isinstance(node, Not):
            result = not value(kids[0], pos)
        elif isinstance(node, And):
            result = value(kids[0], pos) and value(kids[1], pos)
        elif isinstance(node, Or):
            result = value(kids[0], pos) or value(kids[1], pos)
        else:  # Until
            result = False
            for j in range(pos, horizon + 1):
                if j > pos and not value(kids[0], j - 1):
                    break
                ticks = fragment.count(pos, j)
                if ticks > node.upper:
                    break  # the count only grows with j
                if ticks >= node.lower and value(kids[1], j):
                    result = True
                    break
        memo[slot][pos] = result
        return result

    return value(table.root, k)
