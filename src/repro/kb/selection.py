"""Design-style selection (Sections 3.2 and 4.3).

"Style selection at this level is still simplistic in OASYS, and is
based on breadth-first search.  All possible styles are designed and a
selection among successful design styles is made based on comparison of
final parameters such as estimated area."

:func:`breadth_first_select` implements exactly that: every candidate
style is designed to completion; candidates whose designs fail are
recorded as infeasible; among the survivors the one with the smallest
cost (estimated area by default) wins.  Soft-spec violations are
tolerated but count against a candidate when a violation-free
alternative exists.

Failure isolation
-----------------
Each candidate is a *fault domain*: any exception a candidate raises --
not just the expected :class:`~repro.errors.SynthesisError` -- is
caught, converted to a structured
:class:`~repro.resilience.FailureReport` (taxonomy: convergence /
budget / plan / internal, with the traceback preserved for internal
errors), and recorded on that candidate.  One style crashing can
therefore never abort the whole selection while another style would
have succeeded.  The only exception that stops the sweep early is a
tripped *global* budget: designing further candidates would be futile,
so the remaining styles are recorded as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import BudgetExceeded, SynthesisError
from ..obs.spans import current_tracer
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..resilience import Budget, FailureKind, FailureReport
from ..resilience.faults import fault_point
from .trace import DesignTrace

__all__ = ["CandidateResult", "breadth_first_select"]


@dataclass
class CandidateResult:
    """Outcome of designing one candidate style.

    Attributes:
        style: candidate style name.
        result: whatever the designer returned (None when infeasible).
        cost: selection cost (estimated area); inf when infeasible.
        soft_violations: count of soft-spec shortfalls in the result.
        error: failure description when infeasible (human-readable;
            kept for backward compatibility -- prefer ``failure``).
        failure: structured failure report when infeasible.
        skipped: True when the candidate was never attempted (the
            global budget ran out before its turn).
    """

    style: str
    result: Any = None
    cost: float = float("inf")
    soft_violations: int = 0
    error: str = ""
    failure: Optional[FailureReport] = None
    skipped: bool = field(default=False)

    @property
    def feasible(self) -> bool:
        return self.result is not None


def _record_failure(
    candidates: List[CandidateResult],
    trace: Optional[DesignTrace],
    block: str,
    style: str,
    exc: BaseException,
    skipped: bool = False,
    observing: bool = False,
) -> FailureReport:
    report = FailureReport.from_exception(exc, style=style, block=block)
    candidates.append(
        CandidateResult(
            style=style, error=str(exc), failure=report, skipped=skipped
        )
    )
    if observing:
        if skipped:
            metric_count("selection.skipped", block=block or "selection")
        else:
            metric_count(
                "selection.infeasible",
                block=block or "selection",
                kind=str(report.kind),
            )
    if trace is not None:
        if report.kind in (FailureKind.BUDGET, FailureKind.INTERNAL):
            trace.failure(block, f"style {style!r} [{report.kind}]: {exc}")
        else:
            trace.selection(block, f"style {style!r} infeasible: {exc}")
    return report


def breadth_first_select(
    styles: Sequence[str],
    design_one: Callable[[str], Tuple[Any, float, int]],
    trace: Optional[DesignTrace] = None,
    block: str = "",
    budget: Optional[Budget] = None,
    require_feasible: bool = True,
) -> Tuple[Optional[CandidateResult], List[CandidateResult]]:
    """Design every style, pick the best by (soft violations, cost).

    Args:
        styles: candidate style names, in catalogue order.
        design_one: designs a single style; returns
            ``(result, cost, soft_violations)``; raises
            :class:`SynthesisError` when the style cannot meet the
            spec.  *Any* other exception it leaks is likewise isolated
            to that candidate (see module docstring).
        trace: optional trace receiving selection events.
        block: block name for the trace.
        budget: optional global budget.  When it trips, candidates not
            yet attempted are recorded as skipped and, with
            ``require_feasible`` and no feasible survivor, the
            :class:`~repro.errors.BudgetExceeded` is re-raised so
            callers see the budget (not a generic infeasibility).
        require_feasible: when True (default), raise
            :class:`SynthesisError` if no style is feasible; when
            False, return ``(None, candidates)`` instead -- the
            best-effort mode of :func:`repro.opamp.synthesize`.

    Returns:
        (winner, all_candidates); winner is None only when
        ``require_feasible`` is False and nothing succeeded.

    Raises:
        SynthesisError: no style feasible (and ``require_feasible``);
            the message aggregates each style's failure reason.
        BudgetExceeded: the global budget tripped and no style had
            succeeded yet (and ``require_feasible``).
    """
    if not styles and require_feasible:
        raise SynthesisError(f"{block or 'selection'}: no candidate styles")
    candidates: List[CandidateResult] = []
    budget_error: Optional[BudgetExceeded] = None
    # Hoisted once per sweep: with observability disabled, each
    # candidate costs one bool check rather than span/metric calls.
    observing = current_tracer() is not None
    remaining = list(styles)
    while remaining:
        style = remaining.pop(0)
        try:
            fault_point("selection.candidate")
            if budget is not None:
                budget.check(block=block, step=f"select:{style}")
            # Written out twice so the observability-disabled path pays
            # no context-manager enter/exit per candidate.
            if observing:
                with obs_span(
                    f"candidate:{style}", category="selection",
                    block=block or "selection", style=style,
                ) as candidate_span:
                    result, cost, soft = design_one(style)
                    candidate_span.set("cost", cost)
                    candidate_span.set("soft_violations", soft)
                metric_count("selection.feasible", block=block or "selection")
            else:
                result, cost, soft = design_one(style)
            candidates.append(
                CandidateResult(
                    style=style, result=result, cost=cost, soft_violations=soft
                )
            )
            if trace is not None:
                trace.selection(
                    block, f"style {style!r} feasible: cost={cost:.4g}, soft={soft}"
                )
        except SynthesisError as exc:
            _record_failure(
                candidates, trace, block, style, exc, observing=observing
            )
        except BudgetExceeded as exc:
            _record_failure(
                candidates, trace, block, style, exc, observing=observing
            )
            if budget is None or budget.exhausted():
                # The *global* budget is gone: stop the sweep, mark the
                # rest as skipped rather than silently dropping them.
                budget_error = exc
                for leftover in remaining:
                    report = _record_failure(
                        candidates,
                        trace,
                        block,
                        leftover,
                        BudgetExceeded(
                            f"not attempted: synthesis budget exhausted "
                            f"while designing {style!r}",
                            block=block,
                            step=f"select:{leftover}",
                            scope=exc.scope,
                        ),
                        skipped=True,
                        observing=observing,
                    )
                    report.recoverable = False
                break
            # A per-style / per-step scope tripped: that candidate is
            # dead, but the overall budget still has headroom.
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            _record_failure(
                candidates, trace, block, style, exc, observing=observing
            )

    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        if not require_feasible:
            return None, candidates
        if budget_error is not None:
            raise budget_error
        reasons = "; ".join(f"{c.style}: {c.error}" for c in candidates)
        raise SynthesisError(
            f"{block or 'selection'}: no design style can meet the "
            f"specification ({reasons})",
            block=block,
        )
    winner = min(feasible, key=lambda c: (c.soft_violations, c.cost))
    if trace is not None:
        trace.selection(
            block,
            f"selected {winner.style!r} "
            f"(cost={winner.cost:.4g}, soft={winner.soft_violations}) "
            f"out of {len(feasible)}/{len(candidates)} feasible styles",
        )
    return winner, candidates
