"""Synthesis of timed discrete-event system runs against tick-counting
finite-trace temporal specifications.

The pipeline: build the reachable timed system from an untimed automaton
with per-event timing bounds (:mod:`.tdes`), parse and evaluate formulas
over finite runs (:mod:`.logic`), compile bounded synthesis into an
integer feasibility model (:mod:`.encode`), solve it exactly
(:mod:`.ilp`), and iterate horizons with mandatory certification of every
decoded run (:mod:`.synth`).  :mod:`.cli` wraps everything for the
command line.
"""

from .encode import (
    DecodeError,
    Encoding,
    build_encoding,
    decode,
)
from .ilp import (
    IlpModel,
    LinearConstraint,
    ModelError,
    SolveResult,
    check_assignment,
    solve,
)
from .logic import (
    And,
    Atom,
    Formula,
    FormulaSyntaxError,
    Not,
    Or,
    SubformulaTable,
    Truth,
    UnknownAtomError,
    Until,
    evaluate,
    format_formula,
    parse,
    subformulas,
)
from .synth import (
    OracleBudgetError,
    SynthesisRequest,
    SynthesisResult,
    SynthStats,
    enumerate_fragments,
    oracle_synthesize,
    synthesize,
)
from .tdes import (
    DEFAULT_STATE_CAP,
    PROSPECTIVE,
    REMOTE,
    TICK,
    EventTiming,
    Fragment,
    FragmentError,
    InvalidSystemError,
    StateCapError,
    SystemFormatError,
    TimedDes,
    TimedState,
    UnknownEventError,
    UntimedDes,
    build_tdes,
    fixture_path,
    fragment_errors,
    fragment_from_json,
    fragment_to_json,
    initial_state,
    load_fragment,
    load_system,
    replay_events,
    step,
    system_from_json,
    tdes_to_dot,
    untimed_to_dot,
)

__version__ = "0.1.0"
