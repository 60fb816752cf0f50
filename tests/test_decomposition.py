import random
from fractions import Fraction as Q

import pytest

from trajhedge.decomposition import (
    DecompositionError,
    HypothesisError,
    convergence_report,
    decomposition_feasible,
    decomposition_from_hedge,
    doob_decompose,
    martingale_floor_check,
    verify_decomposition,
)
from trajhedge.analysis import analyze
from trajhedge.model import (
    HedgeSequence,
    ModelError,
    PayoffSpec,
    ProcessSequence,
    SimpleStrategy,
    TrajectoryTree,
    uniform_positions,
    supermartingale_transform,
    stopped_process,
    StoppingTime,
    wealth,
)
from trajhedge.pricing import check_supermartingale
from trajhedge.poly import Poly

from gen import (
    random_arbitrage_free_tree,
    random_family_tree,
    random_h3_tree,
    random_no_measure_tree,
    random_supermartingale,
)
from reference_feasible import decomposition_feasible as reference_feasible


def coordinate_process(tree) -> ProcessSequence:
    specs = []
    for j in range(tree.horizon + 1):
        nodes = {nd.nid: nd.value for nd in tree.nodes_at_time(j)}
        fams = {}
        for fam in tree.families_born_by(j):
            parent_val = tree.node(fam.parent).value
            fams[fam.fid] = ((fam.n0, None, fam.poly.shift(parent_val)),)
        specs.append(PayoffSpec(j, nodes, fams))
    return ProcessSequence(tree, specs)


def test_doob_flagship_round_trip(tree_6_2, process_6_2_b):
    d = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    ok, why = verify_decomposition(tree_6_2, process_6_2_b, d)
    assert ok, why
    # the forced position is strictly negative, as in the worked example
    assert d.hedge.at(0, "r") < 0
    assert d.exception_set.covers_path(tree_6_2, "u")


def test_doob_exceptions_delta_independent(tree_6_2, process_6_2_b):
    d1 = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    d2 = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 1000), Q(1, 1000)])
    assert d1.exception_set.atoms_sorted() == d2.exception_set.atoms_sorted()


def test_papers_own_hedge_choice_verifies(tree_6_2, process_6_2_b):
    # ceil(1/delta0) units short at the root also reconstructs exactly
    delta0 = Q(1, 10)
    hedge = HedgeSequence()
    hedge.set(0, "r", -10)  # -ceil(1/delta0)
    hedge.set(1, "u", 0)
    d = decomposition_from_hedge(tree_6_2, process_6_2_b, [delta0, Q(1, 10)], hedge)
    ok, why = verify_decomposition(tree_6_2, process_6_2_b, d)
    assert ok, why


def test_tampered_compensator_detected(tree_6_2, process_6_2_b):
    # a negative increment, then pieces that leave members of the family
    # without any increment: a gap at n0, a gap in the middle, no tail
    tampers = [
        (0, lambda poly: ((1, None, poly.shift(Q(-10))),), "negative"),
        (0, lambda poly: ((2, None, poly),), "gap at n=1"),
        (1, lambda poly: ((1, 2, poly), (4, None, poly)), "gap at n=3"),
        (1, lambda poly: ((1, 3, poly),), "do not cover the tail"),
    ]
    for j, tamper, want in tampers:
        d = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
        ((lo, hi, poly),) = d.alphas[j].family_values["down"]
        assert (lo, hi) == (1, None)
        d.alphas[j].family_values["down"] = tamper(poly)
        ok, why = verify_decomposition(tree_6_2, process_6_2_b, d)
        assert not ok and "'down'" in why and want in why, (j, want, why)


def test_tampered_exception_set_detected(tree_6_2, process_6_2_b):
    from trajhedge.analysis import FamilyAtom

    d = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    d.exception_set.add(FamilyAtom("down", ((1, None),)))  # down members not null
    ok, why = verify_decomposition(tree_6_2, process_6_2_b, d)
    assert not ok and "not null" in why


def _generated_decomposition(seed: int):
    rng = random.Random(seed)
    tree = random_arbitrage_free_tree(rng, depth=3)
    f = random_supermartingale(rng, tree)
    d = doob_decompose(tree, f, [Q(1, 10)] * tree.horizon)
    return tree, f, d


def _counting_solves(monkeypatch) -> list[int]:
    """Count pricing.solve_step calls from now on."""
    from trajhedge import pricing

    solve = pricing.solve_step
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(pricing, "solve_step", counting)
    return calls


def test_doob_solves_each_one_step_problem_once(monkeypatch):
    rng = random.Random(17)
    for _ in range(4):
        tree = random_arbitrage_free_tree(rng, depth=4)
        f = random_supermartingale(rng, tree)
        with monkeypatch.context() as m:
            calls = _counting_solves(m)
            doob_decompose(tree, f, [Q(1, 10)] * tree.horizon)
        assert calls[0] <= len(tree.internal_nodes())


def test_doob_flagship_hedge_reuses_its_unattained_step(
    monkeypatch, tree_6_2, process_6_2_b
):
    # the root's infimum is not attained: its hedge walks out along the drift
    # of the step already solved for the supermartingale check
    calls = _counting_solves(monkeypatch)
    d = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    assert calls[0] == 1 and d.hedge.at(0, "r") == -4


def test_tampered_node_compensator_detected():
    tree, f, d = _generated_decomposition(5)
    alpha = d.alphas[1].node_values
    tampered = 0
    for nd in tree.nodes_at_time(2):
        if d.exception_set.covers_path(tree, nd.nid):
            continue
        alpha[nd.nid] += 1
        ok, why = verify_decomposition(tree, f, d)
        assert not ok and why == f"reconstruction fails at {nd.nid!r} time 2"
        alpha[nd.nid] -= 1
        tampered += 1
    assert tampered and verify_decomposition(tree, f, d) == (True, "")


def test_tampered_hedge_detected():
    tree, f, d = _generated_decomposition(6)
    tampered = 0
    for nd in tree.nodes_at_time(1):
        if d.exception_set.covers_path(tree, nd.nid) or all(inc == 0 for inc, _ in nd.children):
            continue
        h = d.hedge.at(1, nd.nid)
        d.hedge.set(1, nd.nid, h + 1)
        ok, why = verify_decomposition(tree, f, d)
        assert not ok and any(repr(child) in why for _, child in nd.children)
        d.hedge.set(1, nd.nid, h)
        tampered += 1
    assert tampered and verify_decomposition(tree, f, d) == (True, "")


def test_constant_process_decomposes_to_zero_hedge():
    t = random_arbitrage_free_tree(random.Random(3))
    specs = [PayoffSpec.constant(t, j, Q(2)) for j in range(t.horizon + 1)]
    f = ProcessSequence(t, specs)
    d = doob_decompose(t, f, [Q(1, 7)] * t.horizon)
    assert all(h == 0 for _, h in d.hedge.items())
    ok, why = verify_decomposition(t, f, d)
    assert ok, why
    # compensator absorbs exactly the slacks
    for nd in t.nodes_at_time(t.horizon):
        assert d.compensator_at_node(t, nd.nid) == Q(1, 7) * t.horizon


def test_coordinate_martingale_unit_hedge():
    t = random_arbitrage_free_tree(random.Random(5), with_flats=False)
    f = coordinate_process(t)
    ok, _ = check_supermartingale(t, f)
    assert ok
    d = doob_decompose(t, f, [Q(1, 9)] * t.horizon)
    ok, why = verify_decomposition(t, f, d)
    assert ok, why
    # off the (empty) exception set: compensator increments equal the slack
    for j in range(t.horizon):
        for nd in t.nodes_at_time(j + 1):
            assert d.alphas[j].node_values[nd.nid] == Q(1, 9)


def test_transform_and_stopping_preserve_supermartingales():
    rng = random.Random(13)
    for _ in range(10):
        t = random_arbitrage_free_tree(rng)
        f = random_supermartingale(rng, t)
        assert check_supermartingale(t, f)[0]
        d = uniform_positions(t, rng.choice([Q(0), Q(1, 2), Q(1), Q(2)]))
        assert check_supermartingale(t, supermartingale_transform(f, d))[0]
        marks = frozenset(
            nd.nid for nd in t.nodes.values() if rng.random() < 0.2
        )
        stopped = stopped_process(f, StoppingTime(marks))
        assert check_supermartingale(t, stopped)[0]


def test_floor_check_on_nonneg_supermartingales():
    rng = random.Random(17)
    for _ in range(10):
        t = random_arbitrage_free_tree(rng)
        f = random_supermartingale(rng, t, nonneg=True)
        d = doob_decompose(t, f, [Q(1, 8)] * t.horizon)
        ok, witness = martingale_floor_check(t, f, d)
        assert ok, witness


def test_floor_check_flags_adversarial_hedge():
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 1, "a")
    t.add_child(t.root, -2, "b")
    f = ProcessSequence(
        t,
        [
            PayoffSpec(0, {t.root: Q(1)}),
            PayoffSpec(1, {"a": Q(0), "b": Q(0)}),
        ],
    )
    hedge = HedgeSequence()
    hedge.set(0, t.root, Q(100))  # huge long position loses on the drop
    d = decomposition_from_hedge(t, f, [Q(1, 2)], hedge)
    ok, witness = martingale_floor_check(t, f, d)
    assert not ok and witness == "b"


def test_floor_refused_without_straddle_hypothesis(tree_6_2, process_6_2_b):
    d = doob_decompose(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    with pytest.raises(HypothesisError):
        martingale_floor_check(tree_6_2, process_6_2_b, d)
    # the raw floor bound genuinely fails on the explicit up move
    v0 = d.base + sum(d.deltas, Q(0))
    assert wealth(tree_6_2, SimpleStrategy(v0, d.hedge), "u") < 0


def test_doob_rejects_non_supermartingale():
    t = random_arbitrage_free_tree(random.Random(23))
    specs = [PayoffSpec.constant(t, j, Q(j)) for j in range(t.horizon + 1)]
    with pytest.raises(DecompositionError, match="not a supermartingale"):
        doob_decompose(t, ProcessSequence(t, specs), [Q(1, 4)] * t.horizon)


def test_doob_rejects_on_l_failure(tree_lfail, process_lfail):
    with pytest.raises(HypothesisError):
        doob_decompose(tree_lfail, process_lfail, [Q(1, 4)] * 3)


def test_delta_necessity_flagship(tree_6_2, process_6_2_b):
    feas, where = decomposition_feasible(tree_6_2, process_6_2_b, [Q(0), Q(1, 10)])
    assert not feas and where == "r"
    feas, _ = decomposition_feasible(tree_6_2, process_6_2_b, [Q(1, 10), Q(1, 10)])
    assert feas


def test_delta_necessity_l_failure(tree_lfail, process_lfail):
    for d0 in (Q(1, 4), Q(1, 2), Q(3, 4)):
        feas, where = decomposition_feasible(
            tree_lfail, process_lfail, [d0, Q(1, 10), Q(1, 10)]
        )
        assert not feas and where == "r"
    feas, _ = decomposition_feasible(tree_lfail, process_lfail, [Q(1), Q(1, 10), Q(1, 10)])
    assert feas


FEASIBILITY_SLACKS = [
    lambda T: [Q(1, 10)] * T,
    lambda T: [Q(0)] * T,
    lambda T: [Q(-1, 4)] * T,
    lambda T: [Q(-1, 4)] + [Q(1)] * (T - 1),
    lambda T: [Q(1)] * (T - 1) + [Q(-1, 4)],
]


@pytest.mark.parametrize(
    "make",
    [random_arbitrage_free_tree, random_h3_tree, random_family_tree,
     random_no_measure_tree],
)
def test_feasibility_matches_hand_built_reference(make):
    rng = random.Random(29)
    verdicts = set()
    for _ in range(10):
        tree = make(rng)
        f = random_supermartingale(rng, tree)
        for slacks in FEASIBILITY_SLACKS:
            deltas = slacks(tree.horizon)
            got = decomposition_feasible(tree, f, deltas)
            assert got == reference_feasible(tree, f, deltas), deltas
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_feasibility_matches_reference_at_harvest_nodes():
    # one-period trees whose root often has one-signed increments, so the
    # builder's harvest rule meets the null cover; family pieces are cut
    # short, at the plain-row limit, or left as scan groups
    rng = random.Random(31)
    vals = [Q(k, 2) for k in range(-4, 5)]
    seen = set()
    for _ in range(300):
        t = TrajectoryTree(0, 1)
        incs = rng.choice([[0], [0, 1], [0, 2], [1], [0, -1], [], [2]])
        for k, inc in enumerate(incs):
            t.add_child(t.root, inc, f"c{k}")
        n0 = rng.choice([1, 2])
        poly = rng.choice(["0,1,-1", "0,1", "0,-1", "0,-1,1", "1,-2", "0,0,1"])
        t.add_family(t.root, Poly.parse(poly), n0, "f")
        try:
            t.validate()
        except ModelError:  # an explicit increment equals a member's
            continue
        summary = analyze(t).summaries[t.root]
        line = lambda: Poly([rng.choice(vals), rng.choice(vals)])
        cut = rng.choice([None, n0, n0 + 70])
        pieces = ((n0, None, line()),) if cut is None else (
            (n0, cut, line()), (cut + 1, None, line()))
        f = ProcessSequence(t, [
            PayoffSpec(0, {t.root: rng.choice(vals)}),
            PayoffSpec(1, {f"c{k}": rng.choice(vals) for k in range(len(incs))},
                       {"f": pieces}),
        ])
        for deltas in ([Q(1, 10)], [Q(0)], [Q(-1, 4)], [Q(1)]):
            got = decomposition_feasible(t, f, deltas)
            assert got == reference_feasible(t, f, deltas), (incs, poly, deltas)
            seen.add((summary.plus_ray or summary.minus_ray, got[0]))
    assert len(seen) == 4  # both verdicts, with and without harvest


def test_convergence_report_flagship(tree_6_2, process_6_2_b):
    rep = convergence_report(tree_6_2, process_6_2_b)
    assert rep.l_ae_holds and not rep.h1_holds
    assert rep.divergence_cover == ["node u", "family uptail 1-inf"]
    assert rep.warnings
    assert "constant from the horizon" in rep.limits_exist_off


def test_convergence_report_constant_process():
    t = random_arbitrage_free_tree(random.Random(29))
    specs = [PayoffSpec.constant(t, j, Q(1)) for j in range(t.horizon + 1)]
    rep = convergence_report(t, ProcessSequence(t, specs))
    assert rep.h1_holds and not rep.warnings and rep.divergence_cover == []


def test_convergence_report_stopped_supermartingale():
    rng = random.Random(31)
    t = random_arbitrage_free_tree(rng)
    f = random_supermartingale(rng, t, nonneg=True)
    marks = frozenset(nd.nid for nd in t.nodes.values() if rng.random() < 0.3)
    stopped = stopped_process(f, StoppingTime(marks))
    rep = convergence_report(t, stopped)
    assert rep.divergence_cover == []


def test_convergence_refused_on_l_failure(tree_lfail, process_lfail):
    with pytest.raises(HypothesisError):
        convergence_report(tree_lfail, process_lfail)
