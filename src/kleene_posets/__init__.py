"""Finite order-theory toolkit.

Core objects are finite posets with named elements, optionally carrying an
antitone involution.  On top of those the package provides:

- cone calculus (lower/upper cones, the induced set order) and a
  classification ladder from antitone involutions up to Boolean posets,
- completion by cut ideals, with the inherited involution,
- commutative meet-directoid assignments and the identity/implication
  characterisations of each rung of the ladder,
- residuated operations ``odot`` / ``arrow`` and their axioms,
- the twist construction over a pivot element, and
- an exhaustive small-instance audit engine with a registry of named
  claims, serialisable witnesses, and replay.
"""

from .errors import DomainError, FixtureParseError, UsageError
from .poset import (DISTRIBUTIVITY_FORMS, Poset, Subset, Verdict,
                    find_isomorphism)
from .involution import (Classification, InvolutivePoset, classify,
                         involution_from_pairs)
from .completion import CompletionLattice, dedekind_macneille
from .directoid import (MeetDirectoid, all_assignments, assign_directoid,
                        assignment_choices, assignment_count,
                        check_derived_set_laws, check_printed_u_pair_law,
                        directoid_from_choices, iter_assignments)
from .residuation import ResiduatedStructure, check_condition7
from .twist import TwistPoset, audit_theorem61, twist, twist_embedding
from .enumeration import (audit, claim_ids, enumerate_involutions,
                          enumerate_posets, isomorphic_with_pin,
                          replay_report, replay_witness)
from .figures import FIGURES, figure
from .fileformat import PosetDocument, build, document_from, parse, render
from .dot import to_dot
from .cli import main, run_cli

__version__ = "1.0.0"

__all__ = [
    "DISTRIBUTIVITY_FORMS",
    "Classification",
    "CompletionLattice",
    "DomainError",
    "FIGURES",
    "FixtureParseError",
    "InvolutivePoset",
    "MeetDirectoid",
    "Poset",
    "PosetDocument",
    "ResiduatedStructure",
    "Subset",
    "TwistPoset",
    "UsageError",
    "Verdict",
    "__version__",
    "all_assignments",
    "assign_directoid",
    "assignment_choices",
    "assignment_count",
    "audit",
    "audit_theorem61",
    "build",
    "check_condition7",
    "check_derived_set_laws",
    "check_printed_u_pair_law",
    "claim_ids",
    "classify",
    "dedekind_macneille",
    "directoid_from_choices",
    "document_from",
    "enumerate_involutions",
    "enumerate_posets",
    "figure",
    "find_isomorphism",
    "involution_from_pairs",
    "isomorphic_with_pin",
    "iter_assignments",
    "main",
    "parse",
    "render",
    "replay_report",
    "replay_witness",
    "run_cli",
    "to_dot",
    "twist",
    "twist_embedding",
]
