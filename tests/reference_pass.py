"""``pricing._sigma_pass`` and ``pricing._i_bar_pass`` as they stood while
each operator ran its own depth-first recursion.

Verbatim copies: ``_sigma_pass`` stops at maturity and where continuity from
below fails, ``_i_bar_pass`` only at maturity, with every value floored at
zero.  Both return the entry of every node they evaluated and the active
labels (and, for ``_sigma_pass``, the note) of the node evaluated last.
``test_pricing.py`` compares today's single level-by-level engine against
them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from trajhedge.analysis import Analysis, analyze
from trajhedge.model import MINUS_INF, PayoffSpec, TrajectoryTree
from trajhedge.pricing import (
    PriceValue,
    PricingError,
    _build_step_problem,
    feasible_position,
    one_step_superhedge,
    solve_step,
)


@dataclass(slots=True)
class _NodeEval:
    value: PriceValue
    attained: bool
    h: Optional[Fraction]


def _sigma_pass(
    tree: TrajectoryTree,
    f: PayoffSpec,
    starts: Sequence[str],
) -> tuple[dict[str, _NodeEval], list[str], str]:
    """Backward induction of the one-step kernel from each start node in turn.

    Returns value, attained flag and position for every node evaluated, plus
    the active labels and note of the node evaluated last (with a single
    start node, that node's)."""
    analysis = analyze(tree)
    f.validate(tree)
    memo: dict[str, _NodeEval] = {}
    last: tuple[list[str], str] = ([], "")

    def ev(cur: str) -> _NodeEval:
        nonlocal last
        if cur in memo:
            return memo[cur]
        node = tree.node(cur)
        if analysis.l_fails(cur):
            out = _NodeEval(MINUS_INF, False, None)
            last = ([], "continuity from below fails")
        elif node.time >= f.maturity:
            site = tree.ancestor_at(cur, f.maturity)
            v = f.node_values[site]
            out = _NodeEval(v, v != MINUS_INF, Fraction(0))
            last = ([f"payoff:{site}"], "")
        else:
            child_values = {child: ev(child).value for _, child in node.children}
            pieces = {fid: f.family_values[fid] for fid in node.families}
            step = one_step_superhedge(tree, cur, child_values, pieces, analysis)
            attained = step.attained and all(
                ev(c).attained for c in step.tight_children
            )
            out = _NodeEval(step.value, attained, step.h)
            last = (step.active, step.note)
        memo[cur] = out
        return out

    for start in starts:
        ev(start)
    return memo, *last


def _i_bar_pass(
    tree: TrajectoryTree,
    f: PayoffSpec,
    analysis: Analysis,
    starts: Sequence[str],
) -> tuple[dict[str, _NodeEval], list[str]]:
    """Backward induction of the one-step kernel, floored at zero.

    A node's value is the least entering wealth from which a nonnegative
    aggregate covers the claim.  Where the step can move wealth (a nonzero
    slope or a scan group) the node keeps a position covering its children
    and members from that value; attained says one was found.  Also returns
    the active labels of the node evaluated last."""
    f.validate(tree)
    if not f.is_nonnegative(tree):
        raise PricingError("the null operator applies to nonnegative payoffs")
    memo: dict[str, _NodeEval] = {}
    active: list[str] = []

    def ev(cur: str) -> _NodeEval:
        nonlocal active
        if cur in memo:
            return memo[cur]
        node = tree.node(cur)
        if node.time >= f.maturity:
            # a bad site's whole future is harvestable: its claim is waived
            site = tree.ancestor_at(cur, f.maturity)
            good = analysis.good[cur]
            out = _NodeEval(f.node_values[site] if good else Fraction(0), True, None)
            active = [f"payoff:{site}"] if good else []
        else:
            child_values = {child: ev(child).value for _, child in node.children}
            pieces = {fid: f.family_values[fid] for fid in node.families}
            problem = _build_step_problem(tree, analysis, cur, child_values, pieces)
            if not problem.fixed and not problem.groups:
                out, active = _NodeEval(Fraction(0), True, None), []
            else:
                step = solve_step(problem)
                value = step.value if step.value > 0 else Fraction(0)
                out, active = _NodeEval(value, True, None), step.active
                if problem.groups or any(p.slope != 0 for p in problem.fixed):
                    # aim at the floored value, never below the step value
                    h = feasible_position(step, value)
                    out = _NodeEval(value, h is not None, h)
        memo[cur] = out
        return out

    for start in starts:
        ev(start)
    return memo, active
