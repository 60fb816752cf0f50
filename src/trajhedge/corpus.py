"""Bundled regression corpus: every quantitative claim of the worked examples.

Each entry recomputes one value with the engine and compares against the
expected constant.  ``run_corpus`` returns one row per entry; the CLI turns
the rows into its table and exit status.
"""

from __future__ import annotations

import importlib.resources as resources
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .analysis import EventSet, NodeAtom, NodeClass, analyze
from .decomposition import (
    HypothesisError,
    decomposition_feasible,
    doob_decompose,
    verify_decomposition,
)
from .fileformat import parse_payoff, parse_process, parse_tree
from .model import PayoffSpec, wealth_on_member
from .poly import Poly, rat_str
from .pricing import (
    check_supermartingale,
    i_bar,
    is_null,
    norm_j,
    sigma_bar,
)
from .oracle import explicit_reduction, martingale_measures

Q = Fraction


def corpus_text(name: str) -> str:
    return (resources.files("trajhedge") / "corpus_data" / name).read_text()


def load_tree(name: str):
    return parse_tree(corpus_text(name))


@dataclass
class CorpusRow:
    name: str
    expected: str
    computed: str
    ok: bool


def _fmt(v) -> str:
    return rat_str(v) if isinstance(v, Fraction) else str(v)  # -inf, or None


def tail_indicator(tree, n0: int) -> PayoffSpec:
    """1 on down-family members with index >= n0, else 0 (two-branch model)."""
    pieces = []
    if n0 > 1:
        pieces.append((1, n0 - 1, Poly.constant(0)))
    pieces.append((n0, None, Poly.constant(1)))
    return PayoffSpec(1, {"u": Q(0)}, {"down": tuple(pieces)})


def _entries() -> list[tuple[str, Callable[[], tuple[str, str, bool]]]]:
    out: list[tuple[str, Callable[[], tuple[str, str, bool]]]] = []

    def entry(name: str):
        def wrap(fn):
            out.append((name, fn))
            return fn

        return wrap

    # ------------------------------------------------------------------ 6.2
    @entry("two-branch: root classified up-down")
    def _():
        a = analyze(load_tree("example-6-2.txt"))
        got = a.node_class["r"].value
        return "up-down", got, got == "up-down"

    @entry("two-branch: up node is a sure-win (type II) node")
    def _():
        a = analyze(load_tree("example-6-2.txt"))
        got = a.node_class["u"].value
        return "arbitrage-II", got, got == "arbitrage-II"

    @entry("two-branch: continuity fails exactly at the up node")
    def _():
        a = analyze(load_tree("example-6-2.txt"))
        failing = sorted(n for n, ok in a.l_holds.items() if not ok)
        return "['u']", str(failing), failing == ["u"]

    @entry("two-branch: near-zero-sibling hypothesis (H2) holds")
    def _():
        a = analyze(load_tree("example-6-2.txt"))
        return "holds", "holds" if a.h2.holds else "fails", a.h2.holds

    @entry("two-branch: a.e. continuity assumption holds")
    def _():
        a = analyze(load_tree("example-6-2.txt"))
        return "holds", "holds" if a.l_ae.holds else "fails", a.l_ae.holds

    @entry("two-branch: up branch is a null set")
    def _():
        t = load_tree("example-6-2.txt")
        null, res = is_null(t, EventSet([NodeAtom("u")]))
        return "null (cost 0)", f"null={null} cost={_fmt(res.value)}", null

    @entry("two-branch: norm of the up-branch indicator is 0")
    def _():
        t = load_tree("example-6-2.txt")
        from .pricing import indicator_payoff

        res = norm_j(t, indicator_payoff(t, EventSet([NodeAtom("u")])))
        return "0", _fmt(res.value), res.value == 0

    @entry("two-branch: outer price of f is 0, infimum unattained")
    def _():
        t = load_tree("example-6-2.txt")
        f = parse_payoff(corpus_text("payoff-6-2-f.txt"), t)
        r = sigma_bar(t, f)
        got = f"{_fmt(r.value)} attained={r.attained}"
        return "0 attained=False", got, r.value == 0 and not r.attained

    @entry("two-branch: null-operator price of f is 1/2 with certificate")
    def _():
        t = load_tree("example-6-2.txt")
        f = parse_payoff(corpus_text("payoff-6-2-f.txt"), t)
        r = i_bar(t, f)
        h0 = r.hedge.hedge.at(0, "r") if r.hedge else None
        got = f"{_fmt(r.value)} V={_fmt(r.hedge.initial_capital)} h0={_fmt(h0)}"
        ok = r.value == Q(1, 2) and r.hedge.initial_capital == Q(1, 2) and h0 == Q(-1, 2)
        return "1/2 V=1/2 h0=-1/2", got, ok

    @entry("two-branch: certificate wealth on down members is 1/2 + t^2/2")
    def _():
        t = load_tree("example-6-2.txt")
        f = parse_payoff(corpus_text("payoff-6-2-f.txt"), t)
        r = i_bar(t, f)
        poly = wealth_on_member(t, r.hedge, "down")
        return "1/2,0,1/2", poly.format_coeffs(), poly == Poly.parse("1/2,0,1/2")

    @entry("two-branch: down-tail indicators all price to 1 (n0=1,5,50)")
    def _():
        t = load_tree("example-6-2.txt")
        vals = [i_bar(t, tail_indicator(t, n0)).value for n0 in (1, 5, 50)]
        return "[1, 1, 1]", str([_fmt(v) for v in vals]), vals == [Q(1)] * 3

    @entry("two-branch: staircase sequence is a supermartingale")
    def _():
        t = load_tree("example-6-2.txt")
        p = parse_process(corpus_text("process-6-2-b.txt"), t)
        ok, _w = check_supermartingale(t, p)
        return "True", str(ok), ok

    @entry("two-branch: staircase sequence decomposes and verifies")
    def _():
        t = load_tree("example-6-2.txt")
        p = parse_process(corpus_text("process-6-2-b.txt"), t)
        d = doob_decompose(t, p, [Q(1, 10), Q(1, 10)])
        ok, why = verify_decomposition(t, p, d)
        return "verified", "verified" if ok else why, ok

    @entry("two-branch: the ceil(1/slack)-short hedge also reconstructs")
    def _():
        from .decomposition import decomposition_from_hedge
        from .model import HedgeSequence

        t = load_tree("example-6-2.txt")
        p = parse_process(corpus_text("process-6-2-b.txt"), t)
        hedge = HedgeSequence({(0, "r"): Q(-10), (1, "u"): Q(0)})
        d = decomposition_from_hedge(t, p, [Q(1, 10), Q(1, 10)], hedge)
        ok, why = verify_decomposition(t, p, d)
        return "verified", "verified" if ok else why, ok

    @entry("two-branch: no zero-slack decomposition exists")
    def _():
        t = load_tree("example-6-2.txt")
        p = parse_process(corpus_text("process-6-2-b.txt"), t)
        # delta0 = 0 with a positive later slack: infeasible at the root
        feas, where = decomposition_feasible(t, p, [Q(0), Q(1, 10)])
        return "infeasible at r", f"feasible={feas} at={where}", not feas and where == "r"

    @entry("two-branch: explicit reduction admits no martingale measure")
    def _():
        t = load_tree("example-6-2.txt")
        ms = martingale_measures(explicit_reduction(t))
        return "none", "none" if not ms.feasible else "some", not ms.feasible

    # -------------------------------------------------------- remark variant
    @entry("point-mass variant: indicator of the constant path prices to 1")
    def _():
        t = load_tree("example-6-2-remark.txt")
        f = parse_payoff("payoff maturity=1\nat z = 1\nat u = 0\nat m = 0\n", t)
        r = i_bar(t, f)
        return "1", _fmt(r.value), r.value == 1

    @entry("point-mass variant: indicator of the drop path prices to 1/2")
    def _():
        t = load_tree("example-6-2-remark.txt")
        f = parse_payoff("payoff maturity=1\nat z = 0\nat u = 0\nat m = 1\n", t)
        r = i_bar(t, f)
        return "1/2", _fmt(r.value), r.value == Q(1, 2)

    @entry("point-mass variant: a.e. continuity holds")
    def _():
        a = analyze(load_tree("example-6-2-remark.txt"))
        return "holds", "holds" if a.l_ae.holds else "fails", a.l_ae.holds

    @entry("point-mass variant: unique measure is the point mass")
    def _():
        t = load_tree("example-6-2-remark.txt")
        ms = martingale_measures(explicit_reduction(t))
        ok = ms.unique and ms.measures[0] == {"z2": Q(1)}
        return "point mass on z2", str(ms.measures[:1]), ok

    # ---------------------------------------------------- incomplete variant
    @entry("incomplete variant (completed): sit-or-jump nodes are type I")
    def _():
        a = analyze(load_tree("example-6-2-incomplete.txt"))
        got = [a.node_class[n] for n in ("a1", "a2", "a3")]
        ok = all(c is NodeClass.ARBITRAGE_I for c in got)
        return "arbitrage-I x3", str([c.value for c in got]), ok

    @entry("incomplete variant (completed): a.e. continuity holds")
    def _():
        a = analyze(load_tree("example-6-2-incomplete.txt"))
        return "holds", "holds" if a.l_ae.holds else "fails", a.l_ae.holds

    # ------------------------------------------------------ failure example
    @entry("failure example: continuity fails at the value-2 node")
    def _():
        a = analyze(load_tree("example-l-failure.txt"))
        got = not a.l_holds["u"]
        return "fails at u", "fails" if got else "holds", got

    @entry("failure example: a.e. continuity assumption is violated")
    def _():
        a = analyze(load_tree("example-l-failure.txt"))
        return "fails", "fails" if not a.l_ae.holds else "holds", not a.l_ae.holds

    @entry("failure example: down-step singleton has cost >= 1/6 (engine: 1/3)")
    def _():
        t = load_tree("example-l-failure.txt")
        f = parse_payoff(
            "payoff maturity=2\nat z2 = 0\nat uu = 0\nat ud = 1\nat m2 = 0\n", t
        )
        r = i_bar(t, f)
        ok = Q(1, 6) <= r.value == Q(1, 3)
        return "1/3 (>= 1/6)", _fmt(r.value), ok

    @entry("failure example: time-1 claim prices to 1")
    def _():
        t = load_tree("example-l-failure.txt")
        f1 = parse_payoff(corpus_text("payoff-l-failure-f1.txt"), t)
        r = sigma_bar(t, f1)
        return "1 attained", f"{_fmt(r.value)} attained={r.attained}", (
            r.value == 1 and r.attained
        )

    @entry("failure example: no decomposition passes with slack0 < 1")
    def _():
        t = load_tree("example-l-failure.txt")
        p = parse_process(corpus_text("process-l-failure.txt"), t)
        results = [
            decomposition_feasible(t, p, [d0, Q(1, 10), Q(1, 10)])[0]
            for d0 in (Q(1, 4), Q(1, 2), Q(3, 4))
        ]
        refused = False
        try:
            doob_decompose(t, p, [Q(1, 2), Q(1, 10), Q(1, 10)])
        except HypothesisError:
            refused = True
        ok = results == [False, False, False] and refused
        return "infeasible x3 + refusal", f"{results} refused={refused}", ok

    return out


def run_corpus() -> list[CorpusRow]:
    rows = []
    for name, fn in _entries():
        try:
            expected, computed, ok = fn()
        except Exception as exc:  # pragma: no cover - corpus entries must run
            expected, computed, ok = "(no error)", f"error: {exc}", False
        rows.append(CorpusRow(name, expected, computed, ok))
    return rows


def render_corpus(rows: list[CorpusRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  expected {r.expected}; got {r.computed}")
    failed = sum(1 for r in rows if not r.ok)
    lines.append(f"{len(rows) - failed}/{len(rows)} corpus entries passed")
    return "\n".join(lines) + "\n"
