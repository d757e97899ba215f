"""Static diagnostics for netlists and the knowledge base.

Six passes ship with the package:

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

Importing the package loads no pass: each exported name imports its
submodule on first use, so :meth:`Circuit.validate` pays for ERC only.
The rest of each pass (contexts, registries, the seeded-mutation
oracle) is imported from its submodule.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: Exported name -> the submodule that defines it, imported on first use.
#: A registry maps to the pass that fills it, so it arrives populated.
_EXPORTS = {
    "Diagnostic": ".diagnostics",
    "LintReport": ".diagnostics",
    "Severity": ".diagnostics",
    "CheckerRegistry": ".registry",
    "ERC_REGISTRY": ".erc",
    "assert_erc_clean": ".erc",
    "lint_circuit": ".erc",
    "lint_spice_deck": ".erc",
    "validation_diagnostics": ".erc",
    "KB_REGISTRY": ".kblint",
    "analyze_callable": ".kblint",
    "lint_knowledge_base": ".kblint",
    "lint_plan": ".kblint",
    "lint_template": ".kblint",
    "AbstractDesignState": ".absint",
    "Interval": ".absint",
    "abstract_numeric_context": ".absint",
    "interpret_plan": ".absint",
    "lint_feasibility": ".feasibility",
    "precheck_styles": ".feasibility",
    "render_analysis": ".feasibility",
    "MOTIF_REGISTRY": ".motifs",
    "BlockInstance": ".motifs",
    "TopologyView": ".motifs",
    "analyze_topology": ".topology",
    "lint_topology": ".topology",
    "EffectSummary": ".dataflow",
    "build_cfg": ".dataflow",
    "lint_dataflow": ".dataflow",
    "lint_plan_dataflow": ".dataflow",
    "lint_template_dataflow": ".dataflow",
    "live_variables": ".dataflow",
    "plan_effect_summaries": ".dataflow",
    "reaching_definitions": ".dataflow",
    "rule_effect_summary": ".dataflow",
    "lint_template_units": ".units",
    "lint_units": ".units",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


__all__ = list(_EXPORTS)
