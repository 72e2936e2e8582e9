"""Belief revision over finite possible worlds.

Ranked models (well-ordered partitions of a finite universe) and ordinal
conditional functions, with revision rules for both, plus exhaustive checkers
that verify the single-step and iteration axioms and reproduce the
irreversibility of ranking-level belief change at desk scale.
"""

from .errors import InputError, ParseError
from .expressions import parse_expression
from .modelfile import ModelFile, format_model, load_model, parse_model, resolve_proposition
from .ranking import OCF, RankedModel, ocf_from_rpm, rpm_from_ocf
from .revision import (
    Attitude,
    EpistemicInput,
    RevisionRule,
    apply_rule,
    flip_rule,
    lexicographic_rule,
    natural_rule,
    required_content,
    reverse_strength,
    revise,
    rule_by_name,
    spohn_conditionalize,
    spohn_rule,
)
from .verify import (
    AxiomReport,
    CounterexampleFixture,
    CounterexampleReport,
    Witness,
    check_agm,
    check_degree_conditions,
    check_iteration_axiom,
    check_ocf_reversibility,
    check_order_preservation,
    check_reversibility,
    constrained_successors,
    counterexample_fixture,
    counterexample_verify,
    enumerate_ranked_models,
    find_irreversibility,
    find_ocf_irreversibility,
    representation_check,
    revision_table,
)
from .worlds import Proposition, Universe

__version__ = "0.1.0"

__all__ = [
    "Attitude",
    "AxiomReport",
    "CounterexampleFixture",
    "CounterexampleReport",
    "EpistemicInput",
    "InputError",
    "ModelFile",
    "OCF",
    "ParseError",
    "Proposition",
    "RankedModel",
    "RevisionRule",
    "Universe",
    "Witness",
    "apply_rule",
    "check_agm",
    "check_degree_conditions",
    "check_iteration_axiom",
    "check_ocf_reversibility",
    "check_order_preservation",
    "check_reversibility",
    "constrained_successors",
    "counterexample_fixture",
    "counterexample_verify",
    "enumerate_ranked_models",
    "find_irreversibility",
    "find_ocf_irreversibility",
    "flip_rule",
    "format_model",
    "lexicographic_rule",
    "load_model",
    "natural_rule",
    "ocf_from_rpm",
    "parse_expression",
    "parse_model",
    "representation_check",
    "required_content",
    "resolve_proposition",
    "reverse_strength",
    "revise",
    "revision_table",
    "rpm_from_ocf",
    "rule_by_name",
    "spohn_conditionalize",
    "spohn_rule",
]
