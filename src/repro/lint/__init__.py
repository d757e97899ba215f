"""Static diagnostics for netlists and the knowledge base.

Two passes ship with the package:

* **ERC** -- electrical rule checks over a flat
  :class:`~repro.circuit.netlist.Circuit` (floating nodes, missing DC
  paths, undriven gates, bulk polarity, minimum geometry, supply
  shorts, mirror ratio mismatches);
* **KB lint** -- static analysis of design plans, rules and topology
  templates *without executing them* (read-before-set variables,
  restart targets, unknown style slots, unproduced sub-blocks);
* **Feasibility** -- interval-arithmetic abstract interpretation of
  the translation plans (:mod:`repro.lint.absint`): infeasible-spec
  detection, division/domain hazards, dead rules and restart-cycle
  termination (``FEAS4xx`` / ``RULE5xx``);
* **Topology** -- structural sub-block recognition over the device-net
  graph (:mod:`repro.lint.topology`): motif matching, symmetry /
  matching constraint derivation, and the ``TOPO6xx`` checkers
  (asymmetric pairs, inconsistent mirror ratios, unrecognized
  clusters, shared tails);
* **Dataflow** -- whole-plan dataflow over per-step effect summaries
  (:mod:`repro.lint.dataflow`): the actual control-flow graph with
  rule restart edges, MAY-reaching definitions and liveness, powering
  the ``FLOW7xx`` checkers (read-before-write, dead writes, orphaned
  rule patches, definition-skipping restarts, unconsumed choices);
* **Units** -- dimensional abstract interpretation of plan arithmetic
  (:mod:`repro.lint.units`): exponent vectors over V/A/s/m seeded from
  spec and process tables, propagated through the equations, powering
  the ``DIM8xx`` checkers (incompatible additions, wrong-dimension
  stores, dimensioned transcendentals, implausible exponents).  The
  mutation oracle (:mod:`repro.lint.oracle`) keeps both passes honest
  in CI.

Entry points:

* :func:`lint_circuit` / :func:`assert_erc_clean` /
  :func:`validation_diagnostics` for circuits;
* :func:`lint_spice_deck` for raw SPICE text (including ``.subckt``);
* :func:`lint_template` / :func:`lint_plan` /
  :func:`lint_knowledge_base` for the knowledge base;
* :func:`lint_feasibility` / :func:`precheck_styles` /
  :func:`render_analysis` for interval feasibility;
* :func:`analyze_topology` / :func:`lint_topology` for structural
  recognition and the TOPO6xx checks;
* :func:`lint_dataflow` / :func:`lint_units` for the whole-plan
  dataflow and dimensional passes (and
  :func:`~repro.lint.oracle.run_mutation_oracle` for the self-check);
* the ``repro lint`` / ``repro analyze`` CLI subcommands wrap all of
  the above.

Checkers are pluggable: see :mod:`repro.lint.registry` and
``docs/EXTENDING.md`` for the recipe.
"""

from __future__ import annotations

from .absint import (
    AbstractDesignState,
    AbstractRun,
    Interval,
    abstract_numeric_context,
    interpret_plan,
    interpret_template,
)
from .diagnostics import Diagnostic, LintReport, Severity
from .erc import (
    LintContext,
    assert_erc_clean,
    lint_circuit,
    lint_spice_deck,
    validation_diagnostics,
)
from .feasibility import (
    FEAS_REGISTRY,
    FeasibilityContext,
    FeasibilityTarget,
    PrecheckResult,
    lint_feasibility,
    precheck_styles,
    render_analysis,
)
from .kblint import (
    KbContext,
    StateUsage,
    analyze_callable,
    lint_knowledge_base,
    lint_plan,
    lint_template,
)
from .constraints import (
    CommonCentroidCandidate,
    ConstraintSet,
    MatchedGroup,
    SymmetricPair,
    derive_constraints,
)
from .motifs import (
    MOTIF_REGISTRY,
    BlockInstance,
    Motif,
    MotifRegistry,
    TopologyView,
    recognize_blocks,
)
from .dataflow import (
    FLOW_REGISTRY,
    DataflowContext,
    EffectSummary,
    PlanCFG,
    build_cfg,
    lint_dataflow,
    lint_plan_dataflow,
    lint_template_dataflow,
    live_variables,
    plan_effect_summaries,
    reaching_definitions,
    rule_effect_summary,
)
from .oracle import MUTATIONS, Mutation, MutationResult, run_mutation_oracle
from .registry import ERC_REGISTRY, KB_REGISTRY, Checker, CheckerRegistry
from .topology import (
    TOPO_REGISTRY,
    TopologyAnalysis,
    TopologyContext,
    analyze_topology,
    lint_topology,
)
from .units import (
    ATTR_DIMENSIONS,
    DIM_REGISTRY,
    SPEC_DIMENSIONS,
    VAR_DIMENSIONS,
    DimContext,
    analyze_template_dimensions,
    lint_template_units,
    lint_units,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "LintReport",
    "Checker",
    "CheckerRegistry",
    "ERC_REGISTRY",
    "KB_REGISTRY",
    "FEAS_REGISTRY",
    "LintContext",
    "KbContext",
    "Interval",
    "AbstractDesignState",
    "AbstractRun",
    "abstract_numeric_context",
    "interpret_plan",
    "interpret_template",
    "FeasibilityTarget",
    "FeasibilityContext",
    "PrecheckResult",
    "lint_feasibility",
    "precheck_styles",
    "render_analysis",
    "StateUsage",
    "analyze_callable",
    "lint_circuit",
    "lint_spice_deck",
    "assert_erc_clean",
    "validation_diagnostics",
    "lint_template",
    "lint_plan",
    "lint_knowledge_base",
    "MOTIF_REGISTRY",
    "TOPO_REGISTRY",
    "Motif",
    "MotifRegistry",
    "BlockInstance",
    "TopologyView",
    "recognize_blocks",
    "SymmetricPair",
    "MatchedGroup",
    "CommonCentroidCandidate",
    "ConstraintSet",
    "derive_constraints",
    "TopologyAnalysis",
    "TopologyContext",
    "analyze_topology",
    "lint_topology",
    "FLOW_REGISTRY",
    "DIM_REGISTRY",
    "DataflowContext",
    "DimContext",
    "EffectSummary",
    "PlanCFG",
    "build_cfg",
    "reaching_definitions",
    "live_variables",
    "plan_effect_summaries",
    "rule_effect_summary",
    "lint_dataflow",
    "lint_plan_dataflow",
    "lint_template_dataflow",
    "lint_units",
    "lint_template_units",
    "analyze_template_dimensions",
    "SPEC_DIMENSIONS",
    "ATTR_DIMENSIONS",
    "VAR_DIMENSIONS",
    "Mutation",
    "MutationResult",
    "MUTATIONS",
    "run_mutation_oracle",
]
