import itertools
import random
from fractions import Fraction as Q

import pytest

from trajhedge.decomposition import (
    Decomposition,
    DecompositionError,
    HypothesisError,
    convergence_report,
    decomposition_feasible,
    decomposition_from_hedge,
    doob_decompose,
    martingale_floor_check,
    verify_decomposition,
)
from trajhedge.analysis import FamilyAtom, NodeAtom, analyze
from trajhedge.fileformat import parse_process, parse_tree
from trajhedge.model import (
    MINUS_INF,
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
from conftest import corpus_text
from reference_feasible import decomposition_feasible as reference_feasible
from reference_verify import verify_decomposition as reference_verify


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


def _two_child_martingale():
    """The martingale 1 -> 2 | 0 on the two-child tree with inc = +-1."""
    t = TrajectoryTree(1, 1)
    t.add_child(t.root, 1, "a")
    t.add_child(t.root, -1, "b")
    f = ProcessSequence(
        t, [PayoffSpec(0, {t.root: Q(1)}), PayoffSpec(1, {"a": Q(2), "b": Q(0)})]
    )
    return t, f


def test_zero_compensator_increment_verifies():
    # slack 1/10 and hedge 9/10 leave alpha(a) = 1 + 1/10 + 9/10 - 2 = 0
    t, f = _two_child_martingale()
    hedge = HedgeSequence()
    hedge.set(0, t.root, Q(9, 10))
    d = decomposition_from_hedge(t, f, [Q(1, 10)], hedge)
    assert d.alphas[0].node_values == {"a": 0, "b": Q(1, 5)}
    assert verify_decomposition(t, f, d) == (True, "")


def test_exception_windows_with_one_start_decompose():
    # at the arbitrage-I root the null cover takes members 2.. of fu, and the
    # process climbs on members 2..5: two exception windows start at n=2
    t = TrajectoryTree(0, 2, "r")
    t.add_child("r", 0, "z")
    t.add_family("r", Poly.parse("0,-1"), 2, "fu")
    t.add_child("z", 1, "zu")
    t.add_child("z", -1, "zd")
    f = ProcessSequence(t, [
        PayoffSpec(0, {"r": Q(0)}),
        PayoffSpec(1, {"z": Q(0)}, {"fu": ((2, None, Poly.constant(0)),)}),
        PayoffSpec(2, {"zu": Q(0), "zd": Q(0)},
                   {"fu": ((2, 5, Poly.constant(1)), (6, None, Poly.constant(0)))}),
    ])
    d = doob_decompose(t, f, [Q(1, 10), Q(1, 10)])
    assert d.exception_set.atoms_sorted() == ["family fu 2-5,2-inf"]
    assert verify_decomposition(t, f, d) == (True, "")


def test_zero_slack_fails_verification():
    t, f = _two_child_martingale()
    hedge = HedgeSequence()
    hedge.set(0, t.root, Q(1))
    d = decomposition_from_hedge(t, f, [Q(0)], hedge)
    assert verify_decomposition(t, f, d) == (False, "slack sequence invalid")


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


def test_the_drift_walk_has_no_doubling_cap(tree_6_2, process_6_2_b):
    # at slack 2^-(k+2) the root's hedge is -2^k, k doublings of |h| out:
    # here k = 208, past any cap of 200 doublings
    deltas = [Q(1, 2**210), Q(1, 10)]
    assert decomposition_feasible(tree_6_2, process_6_2_b, deltas) == (True, None)
    d = doob_decompose(tree_6_2, process_6_2_b, deltas)
    assert d.hedge.at(0, "r") == -2**208
    assert verify_decomposition(tree_6_2, process_6_2_b, d) == (True, "")


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


def _reference_cases():
    """Generated decompositions on explicit, H3 and family trees, and the
    flagship: (generator name, tree, process, decomposition)."""
    rng = random.Random(41)
    cases = []
    for make in (random_arbitrage_free_tree, random_h3_tree, random_family_tree):
        while sum(1 for c in cases if c[0] == make.__name__) < 14:
            tree = make(rng)
            f = random_supermartingale(rng, tree)
            deltas = [rng.choice([Q(1, 10), Q(1, 3), Q(1)]) for _ in range(tree.horizon)]
            try:
                d = doob_decompose(tree, f, deltas)
            except HypothesisError:  # a.e. continuity fails on this draw
                continue
            cases.append((make.__name__, tree, f, d))
    tree = parse_tree(corpus_text("example-6-2.txt"))
    f = parse_process(corpus_text("process-6-2-b.txt"), tree)
    cases.append(("flagship", tree, f, doob_decompose(tree, f, [Q(1, 10), Q(1, 10)])))
    return cases


def _tamperings(rng, tree, d):
    """Single edits of a decomposition, each applied to its own copy."""

    def node_slot(e):
        j = rng.choice([j for j, a in enumerate(e.alphas) if a.node_values])
        return e.alphas[j].node_values, rng.choice(sorted(e.alphas[j].node_values))

    def node_alpha(e):
        values, nid = node_slot(e)
        values[nid] += rng.choice([Q(1, 7), Q(-1, 7)])

    def hedge(e):
        nd = rng.choice(tree.internal_nodes())
        e.hedge.set(nd.time, nd.nid, e.hedge.at(nd.time, nd.nid) + rng.choice([1, -1]))

    def base(e):
        e.base += rng.choice([1, -1])

    def delta(e):
        e.deltas[rng.randrange(tree.horizon)] += rng.choice([Q(1, 7), Q(-1, 7)])

    def dropped_alpha(e):
        values, nid = node_slot(e)
        del values[nid]

    def family_alpha(e):
        slots = [(j, fid) for j, a in enumerate(e.alphas) for fid in sorted(a.family_values)]
        if not slots:
            return
        j, fid = rng.choice(slots)
        pieces = list(e.alphas[j].family_values[fid])
        k = rng.randrange(len(pieces))
        lo, hi, poly = pieces[k]
        pieces[k] = (lo, hi, poly.shift(rng.choice([Q(1, 7), Q(-1, 7)])))
        e.alphas[j].family_values[fid] = tuple(pieces)

    def exception(e):
        if tree.families and rng.random() < 0.4:
            fid = rng.choice(sorted(tree.families))
            n = tree.family(fid).n0 + rng.randrange(3)
            e.exception_set.add(FamilyAtom(fid, ((n, n + rng.randrange(3)),)))
        else:
            e.exception_set.add(NodeAtom(rng.choice(sorted(tree.nodes))))

    edits = [node_alpha, hedge, base, delta, dropped_alpha, family_alpha, exception]
    for edit in [None] + edits:
        e = Decomposition(
            d.base, HedgeSequence(d.hedge.entries),
            [PayoffSpec(a.maturity, dict(a.node_values), dict(a.family_values))
             for a in d.alphas],
            list(d.deltas), d.exception_set.copy(),
        )
        if edit is not None:
            edit(e)
        yield (edit.__name__ if edit else "untampered"), e


def test_verifier_matches_fraction_reference():
    # every verdict and message of the per-edge integer check equals the
    # parent's running gains-and-compensator check, tampered or not
    rng = random.Random(43)
    cases = _reference_cases()
    assert len(cases) >= 40
    verdicts = set()
    for name, tree, f, d in cases:
        for _ in range(3):
            for edit, e in _tamperings(rng, tree, d):
                got = verify_decomposition(tree, f, e)
                assert got == reference_verify(tree, f, e), (name, edit)
                if edit == "untampered":
                    assert got == (True, ""), (name, got)
                verdicts.add(" ".join(got[1].split()[:3]) if not got[0] else "ok")
    # the edits reach every phase: nullity, slacks, base, increments and
    # the node and member identities
    assert verdicts >= {
        "ok", "exception set not", "slack sequence invalid",
        "base differs from", "missing compensator increment",
        "negative compensator increment", "reconstruction fails at",
        "reconstruction fails on",
    }, verdicts


def _recut(rng, pieces, merge):
    """The same member values on other pieces: neighbours with equal
    polynomials merged, or pieces cut at random members."""
    out = []
    for lo, hi, poly in sorted(pieces, key=lambda p: p[0]):
        if merge and out and out[-1][2] == poly:
            out[-1] = (out[-1][0], hi, poly)
        elif not merge and (hi is None or hi > lo) and rng.random() < 0.7:
            cut = lo + rng.randint(0, 5 if hi is None else hi - lo - 1)
            out += [(lo, cut, poly), (cut + 1, hi, poly)]
        else:
            out.append((lo, hi, poly))
    return tuple(out)


def _recut_specs(rng, specs, merge):
    return [
        PayoffSpec(s.maturity, dict(s.node_values),
                   {fid: _recut(rng, p, merge) for fid, p in s.family_values.items()})
        for s in specs
    ]


def test_verifier_verdict_ignores_equal_piece_cuts():
    # where a process or an alpha cuts its member pieces does not change the
    # verdict: the compensator is overlaid with the process pieces, not
    # looked up in one of them; a tampered alpha member still fails
    rng = random.Random(53)
    checked = failed = 0
    while checked < 12:
        tree = random_family_tree(rng, depth=rng.choice((2, 3)))
        f = random_supermartingale(rng, tree)
        cut_f = ProcessSequence(tree, _recut_specs(rng, f.specs, merge=False))
        try:
            decompositions = [doob_decompose(tree, g, [Q(1, 10)] * tree.horizon)
                              for g in (f, cut_f)]
        except HypothesisError:  # a.e. continuity fails on this draw
            continue
        checked += 1
        for d, merge in itertools.product(decompositions, (False, True)):
            e = Decomposition(d.base, d.hedge, _recut_specs(rng, d.alphas, merge),
                              d.deltas, d.exception_set)
            for g in (f, cut_f):
                assert verify_decomposition(tree, g, e) == (True, "")
            slots = [
                (j, fid, k)
                for j, a in enumerate(e.alphas)
                for fid, pieces in sorted(a.family_values.items())
                for k, (lo, hi, _) in enumerate(pieces)
                if not e.exception_set.covers_member(tree, fid, lo)
            ]
            if not slots:
                continue
            j, fid, k = rng.choice(slots)
            pieces = list(e.alphas[j].family_values[fid])
            lo, hi, poly = pieces[k]
            pieces[k] = (lo, hi, poly.shift(rng.choice([Q(1, 7), Q(-1, 7)])))
            e.alphas[j].family_values[fid] = tuple(pieces)
            for g in (f, cut_f):
                assert verify_decomposition(tree, g, e)[0] is False
            failed += 1
    assert failed >= 12


def test_alpha_from_hedge_matches_fraction_formula():
    # alpha_j(c) = delta_j + h * inc - (f_{j+1}(c) - f_j(p)) off the exceptions
    rng = random.Random(47)
    for name, tree, f, d in _reference_cases():
        hedge = HedgeSequence()
        for nd in tree.internal_nodes():
            hedge.set(nd.time, nd.nid, rng.choice([Q(0), Q(-1, 3), Q(5, 2), Q(-4)]))
        for h in (d.hedge, hedge):
            e = decomposition_from_hedge(tree, f, d.deltas, h)
            covered = e.exception_set.covered_nodes(tree)
            for nd in tree.internal_nodes():
                j = nd.time
                for inc, child in nd.children:
                    want = Q(0) if child in covered else (
                        d.deltas[j] + h.at(j, nd.nid) * inc
                        - (f[j + 1].node_values[child] - f[j].node_values[nd.nid])
                    )
                    got = e.alphas[j].node_values[child]
                    assert type(got) is Q and got == want, (name, child)
            assert verify_decomposition(tree, f, e) == reference_verify(tree, f, e)


def test_minus_infinite_increment_fails_before_the_identities():
    tree, f, d = _generated_decomposition(5)
    nid = next(nd.nid for nd in tree.nodes_at_time(1)
               if not d.exception_set.covers_path(tree, nd.nid))
    d.alphas[0].node_values[nid] = MINUS_INF
    got = verify_decomposition(tree, f, d)
    assert got == (False, f"negative compensator increment at {nid!r}")
    assert got == reference_verify(tree, f, d)
