"""Synthesis of timed discrete-event system runs against tick-counting
finite-trace temporal specifications.

The pipeline: build the reachable timed system from an untimed automaton
with per-event timing bounds (:mod:`.tdes`), parse and evaluate formulas
over finite runs (:mod:`.logic`), compile bounded synthesis into an
integer feasibility model (:mod:`.encode`), solve it exactly
(:mod:`.ilp`), and iterate horizons with mandatory certification of every
decoded run (:mod:`.synth`).  :mod:`.cli` wraps everything for the
command line.  Names are imported from their modules, not from here.
"""

__version__ = "0.1.0"
