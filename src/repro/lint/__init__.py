"""Determinism & simulation-correctness static analysis.

The reproduction's claims (Table II schedules, Fig. 4/5 traces, state-sync
convergence) are only checkable because a given seed replays bit-for-bit.
This package enforces the invariants that make that true:

- **static rules** (:mod:`repro.lint.rules`) — AST checks banning wall-clock
  reads, ad-hoc RNG construction, float equality on physical quantities,
  mutable defaults, swallowed exceptions, and literal yields in process
  generators;
- **an engine** (:mod:`repro.lint.engine`) — file walking, inline
  ``# repro-lint: disable=<rule>`` suppression, structured findings;
- **a CLI gate** (:mod:`repro.lint.cli`, installed as ``repro-lint``) —
  text/JSON output, exit 0/1 for CI;
- **dynamic checks** (:mod:`repro.lint.verify`, run as ``repro-sim
  verify``) — same-seed replay (:mod:`repro.lint.determinism`), perturbed
  tie-order replay (:mod:`repro.lint.tie_replay`) and the fault-invariant
  and conservation verdict, all on one scenario.

See ``docs/determinism.md`` for the invariant catalogue and how to add rules.
"""

from repro.lint.determinism import DeterminismReport, trace_digest
from repro.lint.engine import lint_paths, lint_source
from repro.lint.findings import Finding, Severity
from repro.lint.rules import RULE_REGISTRY, Rule, default_rules, register
from repro.lint.verify import VerifyReport, verify

__all__ = [
    "DeterminismReport",
    "VerifyReport",
    "trace_digest",
    "verify",
    "lint_paths",
    "lint_source",
    "Finding",
    "Severity",
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
    "register",
]
