"""Probabilistic model checking for a textual robotic state-machine language.

Pipeline: parse a model (`.rcm`) and a property file (`.rcp`), validate and
resolve cross-references, instantiate loose constants/functions, explore the
state space into an explicit DTMC or MDP, then check properties numerically,
graph-theoretically, or statistically, or emit PRISM input files.
"""

from .model import ModelAst, loose_symbols, parse_model, pretty_model
from .props import SpecAst, parse_expression, parse_sim_method, parse_spec, pretty_spec
from .resolve import Diagnostic, ResolveError, classify, resolve_fqn, validate
from .build import (ClosedModel, MarkovModel, attach_rewards, build_markov,
                    eval_expr, expand_sweep, instantiate)
from .exact import (CheckResult, check_AE, check_property, check_state_formula,
                    expected_reward, prob_path, prob_path_bounded)
from .smc import Estimate, SamplePool, SimPath, run_aci, run_apmc, run_ci, run_sprt, simulate
from .prism import EmittedPair, check_prism_model, check_prism_props, emit_model, \
    emit_pair, emit_properties, mangle

__version__ = "0.1.0"
