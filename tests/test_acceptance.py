"""Acceptance gate: every stated criterion at its stated size and tolerance.

Each test prints one line so a plain ``pytest -s tests/test_acceptance.py``
doubles as the acceptance report.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from trajhedge.analysis import EventSet, NodeAtom, NodeClass, analyze
from trajhedge.decomposition import (
    HypothesisError,
    decomposition_feasible,
    doob_decompose,
    martingale_floor_check,
    verify_decomposition,
)
from trajhedge.fileformat import parse_payoff, parse_process, parse_tree
from trajhedge.model import (
    MINUS_INF,
    PayoffSpec,
    add_payoffs,
    scale_payoff,
)
from trajhedge.oracle import dual_price, explicit_reduction, martingale_measures
from trajhedge.poly import Poly
from trajhedge.pricing import (
    i_bar,
    i_bar_backward,
    i_bar_backward_all,
    is_null,
    sigma_bar,
    sigma_bar_all,
    tower_check,
)

from conftest import corpus_text
from gen import (
    random_arbitrage_free_tree,
    random_family_tree,
    random_h3_tree,
    random_no_measure_tree,
    random_payoff,
    random_supermartingale,
)

TOL = Q(1, 10**9)


def _report(criterion: str, detail: str) -> None:
    print(f"PASS  criterion {criterion}: {detail}")


def _le(a, b) -> bool:
    """a <= b with -inf handling."""
    if a == MINUS_INF:
        return True
    if b == MINUS_INF:
        return False
    return a <= b


def tail_indicator(tree, n0):
    pieces = []
    if n0 > 1:
        pieces.append((1, n0 - 1, Poly.constant(0)))
    pieces.append((n0, None, Poly.constant(1)))
    return PayoffSpec(1, {"u": Q(0)}, {"down": tuple(pieces)})


def mixed_tree(rng, idx):
    kind = idx % 4
    if kind == 0:
        return random_arbitrage_free_tree(rng, depth=2, branching=3)
    if kind == 1:
        return random_arbitrage_free_tree(rng, depth=3, branching=2)
    if kind == 2:
        return random_h3_tree(rng, depth=3)
    return random_family_tree(rng, depth=2)


# ---------------------------------------------------------------------------


def test_criterion_1_flagship_exact_values(tree_6_2, payoff_6_2_f):
    t0 = time.time()
    s = sigma_bar(tree_6_2, payoff_6_2_f)
    assert s.value == 0 and not s.attained
    assert time.time() - t0 < 1.0

    t0 = time.time()
    r = i_bar(tree_6_2, payoff_6_2_f)
    assert r.value == Q(1, 2) and r.attained
    assert r.hedge.initial_capital == Q(1, 2)
    assert r.hedge.hedge.at(0, "r") == Q(-1, 2)
    assert time.time() - t0 < 1.0

    for n0 in (1, 5, 50):
        t0 = time.time()
        assert i_bar(tree_6_2, tail_indicator(tree_6_2, n0)).value == 1
        assert time.time() - t0 < 1.0

    t0 = time.time()
    null, res = is_null(tree_6_2, EventSet([NodeAtom("u")]))
    assert null and res.value == 0
    assert time.time() - t0 < 1.0
    _report("1", "sigma=0 unattained, ibar=1/2 (V=1/2,h0=-1/2), tails=1, up null")


def test_criterion_2_point_mass_variant(tree_remark):
    f_z = parse_payoff("payoff maturity=1\nat z = 1\nat u = 0\nat m = 0\n", tree_remark)
    f_m = parse_payoff("payoff maturity=1\nat z = 0\nat u = 0\nat m = 1\n", tree_remark)
    assert i_bar(tree_remark, f_z).value == 1
    assert i_bar(tree_remark, f_m).value == Q(1, 2)
    ms = martingale_measures(explicit_reduction(tree_remark))
    assert ms.unique and ms.measures[0] == {"z2": Q(1)}
    _report("2", "indicators price to 1 and 1/2; unique point-mass measure")


def test_criterion_3_failure_example(tree_lfail, payoff_lfail_f1, process_lfail):
    a = analyze(tree_lfail)
    assert not a.l_holds["u"]
    assert not a.l_ae.holds
    ind = parse_payoff(
        "payoff maturity=2\nat z2 = 0\nat uu = 0\nat ud = 1\nat m2 = 0\n", tree_lfail
    )
    r = i_bar(tree_lfail, ind)
    assert r.value >= Q(1, 6) - TOL
    assert r.value == Q(1, 3)  # frozen engine value (regression constant)
    s = sigma_bar(tree_lfail, payoff_lfail_f1)
    assert s.value == 1 and s.attained
    for d0 in (Q(1, 4), Q(1, 2), Q(3, 4)):
        feas, _ = decomposition_feasible(
            tree_lfail, process_lfail, [d0, Q(1, 10), Q(1, 10)]
        )
        assert not feas
        with pytest.raises(HypothesisError):
            doob_decompose(tree_lfail, process_lfail, [d0, Q(1, 10), Q(1, 10)])
    _report("3", "L fails at u; l-ae false; ibar(1_{down-step})=1/3>=1/6; "
                 "sigma f1=1; no decomposition below slack 1")


def test_criterion_4_decomposition_round_trip(tree_6_2, process_6_2_b):
    t0 = time.time()
    rng = random.Random(2024)
    d1 = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    d2 = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 1000), Q(1, 1000)])
    assert verify_decomposition(tree_6_2, process_6_2_b, d1)[0]
    assert d1.exception_set.atoms_sorted() == d2.exception_set.atoms_sorted()
    count = 0
    for i in range(200):
        depth = rng.choice((2, 3, 4))
        tree = random_arbitrage_free_tree(rng, depth=depth, branching=3)
        f = random_supermartingale(rng, tree)
        da = doob_decompose(tree, f, [Q(1, 10)] * tree.horizon)
        ok, why = verify_decomposition(tree, f, da)
        assert ok, why
        db = doob_decompose(tree, f, [Q(1, 1000)] * tree.horizon)
        ok, why = verify_decomposition(tree, f, db)
        assert ok, why
        assert da.exception_set.atoms_sorted() == db.exception_set.atoms_sorted()
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("4", f"{count} random + flagship round trips verified, "
                 f"slack-independent exceptions, {elapsed:.1f}s")


def test_criterion_5_zero_slack_infeasible(tree_6_2, process_6_2_b):
    feas, where = decomposition_feasible(tree_6_2, process_6_2_b, [Q(0), Q(1, 10)])
    assert not feas and where == "r"
    _report("5", "zero opening slack reported infeasible at the root")


def test_criterion_6_operator_identities():
    rng = random.Random(66)
    checked = {"tower": 0, "mono": 0, "subadd": 0, "homog": 0, "order": 0, "shadow": 0}

    # tower inequality
    for i in range(500):
        tree = mixed_tree(rng, i)
        f = random_payoff(rng, tree)
        k = rng.randint(0, f.maturity)
        j = rng.randint(0, k)
        ok, witness = tower_check(tree, f, j, k)
        assert ok, witness
        checked["tower"] += 1

    # monotonicity, subadditivity, positive homogeneity
    for i in range(500):
        tree = mixed_tree(rng, i)
        analysis = analyze(tree)
        f = random_payoff(rng, tree)
        bump = random_payoff(rng, tree, nonneg=True)
        g = add_payoffs(tree, f, bump)
        vf, vg = sigma_bar_all(tree, f), sigma_bar_all(tree, g)
        for nid in tree.nodes:
            if not analysis.fully_covered(nid):
                assert _le(vf[nid], vg[nid]), (nid, vf[nid], vg[nid])
        checked["mono"] += 1

        h = random_payoff(rng, tree)
        vh = sigma_bar_all(tree, h)
        vsum = sigma_bar_all(tree, add_payoffs(tree, f, h))
        for nid in tree.nodes:
            a, b = vf[nid], vh[nid]
            rhs = MINUS_INF if MINUS_INF in (a, b) else a + b
            assert _le(vsum[nid], rhs), nid
        checked["subadd"] += 1

        c = rng.choice([Q(0), Q(1, 2), Q(2), Q(3)])
        vs = sigma_bar_all(tree, scale_payoff(f, c))
        for nid in tree.nodes:
            a = vf[nid]
            rhs = Q(0) if c == 0 else (MINUS_INF if a == MINUS_INF else c * a)
            if c == 0:
                assert _le(vs[nid], rhs), nid
            else:
                assert vs[nid] == rhs, nid
        checked["homog"] += 1

    # sigma <= ibar on nonnegative payoffs; equality when continuity is global
    for i in range(500):
        tree = mixed_tree(rng, i)
        analysis = analyze(tree)
        f = random_payoff(rng, tree, nonneg=True)
        vs = sigma_bar_all(tree, f)
        vi = i_bar_backward_all(tree, f)
        for nid in tree.nodes:
            assert _le(vs[nid], vi[nid]), nid
        if all(analysis.l_holds.values()):
            for nid in tree.nodes:
                assert vs[nid] == vi[nid], nid
        checked["order"] += 1

    # sure-win shadows price everything to -inf
    for i in range(500):
        tree = random_h3_tree(rng, depth=3)
        analysis = analyze(tree)
        f = random_payoff(rng, tree)
        vs = sigma_bar_all(tree, f)
        for nid, cls in analysis.node_class.items():
            if cls is NodeClass.ARBITRAGE_II:
                assert vs[nid] == MINUS_INF
        checked["shadow"] += 1

    assert all(v == 500 for v in checked.values()), checked
    _report("6", "tower/monotone/subadditive/homogeneous/order/shadow: "
                 "500 instances each, zero violations")


def test_criterion_6_ibar_countable_subadditivity():
    rng = random.Random(67)
    for i in range(120):
        tree = mixed_tree(rng, i)
        parts = [
            random_payoff(rng, tree, nonneg=True)
            for _ in range(rng.randint(2, 4))
        ]
        total = parts[0]
        for p in parts[1:]:
            total = add_payoffs(tree, total, p)
        lhs = i_bar_backward(tree, total)
        rhs = sum((i_bar_backward(tree, p) for p in parts), Q(0))
        assert lhs <= rhs + TOL
    _report("6b", "null operator finitely subadditive on 120 random sums")


def test_criterion_7_duality_oracle():
    rng = random.Random(77)
    for _ in range(200):
        tree = random_arbitrage_free_tree(rng, depth=rng.choice((2, 3)), branching=3)
        f = random_payoff(rng, tree)
        lp = sigma_bar(tree, f)
        assert lp.value == dual_price(tree, f)
    for _ in range(200):
        tree = random_no_measure_tree(rng)
        analysis = analyze(tree)
        assert any(
            c is NodeClass.ARBITRAGE_II for c in analysis.node_class.values()
        )
        ms = martingale_measures(explicit_reduction(tree, members=2))
        assert not ms.feasible
        assert analysis.h2.holds and analysis.l_ae.holds
        # the hedging price stays finite off the shadow despite measure-freeness
        f = random_payoff(rng, tree, nonneg=True)
        assert sigma_bar(tree, f).value != MINUS_INF
    _report("7", "dual price equals the hedging price on 200 trees; 200 "
                 "measure-free sure-win models still certify a.e. continuity")


def test_criterion_8_hypothesis_soundness():
    rng = random.Random(88)
    planted = 0
    for _ in range(200):
        tree = random_h3_tree(rng, depth=rng.choice((3, 4)))
        analysis = analyze(tree)
        assert analysis.h3.holds
        assert analysis.h2.holds
        assert analysis.h1.holds
        if any(c is NodeClass.ARBITRAGE_II for c in analysis.node_class.values()):
            planted += 1
    _report("8", f"200 straddle-built trees: H3 => H2 and H1 verdicts hold "
                 f"({planted} contained sure-win nodes)")


def test_criterion_9_martingale_floor():
    rng = random.Random(99)
    checked = refused = 0
    for i in range(120):
        if i % 4 == 0:
            tree = random_family_tree(rng, depth=2)
        else:
            tree = random_arbitrage_free_tree(rng, depth=rng.choice((2, 3)))
        f = random_supermartingale(rng, tree, nonneg=True)
        d = doob_decompose(tree, f, [Q(1, 8)] * tree.horizon)
        analysis = analyze(tree)
        if not analysis.h1.holds:
            with pytest.raises(HypothesisError):
                martingale_floor_check(tree, f, d)
            refused += 1
            continue
        ok, witness = martingale_floor_check(tree, f, d)
        assert ok, witness
        checked += 1
    # corpus instance: hypothesis verified to fail, so the check must refuse
    tree = parse_tree(corpus_text("example-6-2.txt"))
    proc = parse_process(corpus_text("process-6-2-b.txt"), tree)
    d = doob_decompose(tree, proc, [Q(1, 10), Q(1, 10)])
    with pytest.raises(HypothesisError):
        martingale_floor_check(tree, proc, d)
    _report("9", f"floor nonnegative on {checked} instances incl. family tails "
                 f"({refused + 1} hypothesis refusals, none spurious)")
