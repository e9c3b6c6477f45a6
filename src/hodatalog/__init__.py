"""Higher-order Datalog: syntax, typing, semantics, engines, and
Turing-machine program generation."""

from .core import Program, ProgramStats, compute_stats, expk, iteration_bound
from .syntax import parse_program, print_source
from .typecheck import analyze, infer_types, validate_definitional
from .encode import encode_input, merge
from .semantics import dump_model, least_model_naive
from .engines import (DemandEngine, EngineConfig, decide,
                      least_model_seminaive)
from .tm import TuringMachine, parse_tm, sample_machine, tm_run
from .codegen import (compile_tm_first_order, compile_tm_higher_order,
                      gen_base_arith, gen_bignum, short_string_rules)

__version__ = "0.1.0"
