"""The corpus must catch deliberately broken builds (differential checks)."""

from fractions import Fraction as Q

import trajhedge.pricing as pricing
from trajhedge.corpus import run_corpus
from trajhedge.fileformat import parse_payoff, parse_tree
from trajhedge.pricing import sigma_bar

from conftest import corpus_text


def test_corpus_catches_dropped_nonnegativity(monkeypatch):
    """Without the wealth floor the null operator degenerates."""
    real_ibar = pricing.i_bar

    def broken_ibar(tree, f, nid=None):
        res = real_ibar(tree, f, nid)
        # emulate the drop: without V + h >= 0 at the sure-win node the
        # flagship program drifts to the outer price
        sig = sigma_bar(tree, f, nid)
        if sig.value != pricing.MINUS_INF:
            res.value = sig.value
        return res

    monkeypatch.setattr("trajhedge.corpus.i_bar", broken_ibar)
    rows = run_corpus()
    failed = [r.name for r in rows if not r.ok]
    assert any("1/2" in name or "null-operator" in name for name in failed)


def test_corpus_catches_disabled_waivers(monkeypatch):
    """Without the shadow waiver the outer price jumps from 0 to 1/2."""
    tree = parse_tree(corpus_text("example-6-2.txt"))
    f = parse_payoff(corpus_text("payoff-6-2-f.txt"), tree)

    from trajhedge.analysis import analyze
    from trajhedge.lp import AffinePiece
    from trajhedge.pricing import StepProblem, solve_step

    analysis = analyze(tree)

    # hand-build the root step with the sure-win child kept at its harvested
    # continuation value instead of being waived
    fam = tree.family("down")
    fixed = [AffinePiece(Q(1), Q(0), "node:u")]
    groups = [
        pricing.ScanGroup("down", fam.poly, f.family_values["down"][0][2], 1, None)
    ]
    step = solve_step(StepProblem(fixed, groups))
    assert step.value == Q(1, 2)  # the mutated build would report 1/2, not 0
    assert sigma_bar(tree, f).value == 0  # the real build stays at 0
