"""Abductive diagnosis over causal networks with an isa taxonomy.

Scenarios (culprit plus a tree of causation links) are validated against
a most-specific-attachment rule, weighted by -ln of their probability,
and the best explanations of an observation set are found either by an
exhaustive oracle or by a Steiner-tree dynamic program with k-best
enumeration.  A recognition layer maps concept taxonomies with instance
counts onto the same machinery.

The public names are loaded on first use (PEP 562): ``import abducer``
runs no submodule, and ``abducer.explain`` imports only ``abducer.solver``
and what it needs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule.
_EXPORTS = {
    "AbducerError": "errors",
    "AmbiguousReferenceClassError": "errors",
    "CountExceedsParentError": "errors",
    "DuplicateDeclarationError": "errors",
    "InconsistentConstraintsError": "errors",
    "InvalidArgumentError": "errors",
    "InvalidScenarioError": "errors",
    "IsaCycleError": "errors",
    "MissingDisorderPriorError": "errors",
    "MissingPriorError": "errors",
    "NetworkTooLargeError": "errors",
    "NoRelevantConceptError": "errors",
    "ParseError": "errors",
    "ProbabilityOutOfRangeError": "errors",
    "ReservedNameError": "errors",
    "TooManyTerminalsError": "errors",
    "UnionCycleError": "errors",
    "UnknownConceptError": "errors",
    "UnknownEventError": "errors",
    "UnknownLinkError": "errors",
    "UnknownPropertyValueError": "errors",
    "CausalLink": "kb",
    "CausalNetwork": "kb",
    "EventNode": "kb",
    "IsaLink": "kb",
    "TOP_NAME": "kb",
    "add_top": "kb",
    "parse_network": "kb",
    "serialize_network": "kb",
    "RankedExplanation": "scenario",
    "Scenario": "scenario",
    "ValidityResult": "scenario",
    "is_explanation": "scenario",
    "is_valid_scenario": "scenario",
    "log_weight": "scenario",
    "participants": "scenario",
    "probability": "scenario",
    "DPTable": "solver",
    "SolveStats": "solver",
    "SteinerTree": "solver",
    "WeightedSearchGraph": "solver",
    "build_search_graph": "solver",
    "explain": "solver",
    "steiner_dp": "solver",
    "tree_to_scenario": "solver",
    "best_explanations_bruteforce": "oracle",
    "enumerate_valid_scenarios": "oracle",
    "Concept": "recognition",
    "PropertySpec": "recognition",
    "RecognitionKB": "recognition",
    "RecognitionQuery": "recognition",
    "RecognitionResult": "recognition",
    "parse_recognition_kb": "recognition",
    "recognize": "recognition",
    "relevant_concept": "recognition",
    "serialize_recognition_kb": "recognition",
    "shastri_score": "recognition",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
