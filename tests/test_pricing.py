import random
from fractions import Fraction as Q

import pytest

import trajhedge.pricing as pricing
from trajhedge.analysis import EventSet, FamilyAtom, NodeAtom, NodeClass, analyze
from trajhedge.fileformat import parse_payoff, parse_tree
from trajhedge.lp import AffinePiece, min_max_affine, minimize
from trajhedge.model import MINUS_INF, PayoffSpec, TrajectoryTree, wealth, wealth_on_member
from trajhedge.oracle import i_bar_lp
from trajhedge.poly import Poly
from trajhedge.pricing import (
    StepMemo,
    _backward,
    check_integrable,
    check_supermartingale,
    i_bar,
    i_bar_backward,
    i_bar_backward_all,
    indicator_payoff,
    is_null,
    norm_j,
    one_step_superhedge,
    sigma_bar,
    sigma_bar_all,
    sigma_bar_payoff,
    tower_check,
)

import reference_family
import reference_step
from conftest import corpus_text
from gen import (
    VAL_POOL,
    random_arbitrage_free_tree,
    random_family_tree,
    random_h3_tree,
    random_no_measure_tree,
    random_payoff,
    random_supermartingale,
)
from reference_pass import _i_bar_pass as reference_i_bar_pass
from reference_pass import _sigma_pass as reference_sigma_pass


# ---------------------------------------------------------------------------
# LP building blocks


def test_min_max_two_constraints():
    # V + h >= 2 and V - h >= 0: hand-solved optimum V=1 at h=1
    res = min_max_affine(
        [AffinePiece(Q(1), Q(2), "up"), AffinePiece(Q(-1), Q(0), "dn")]
    )
    assert res.value == 1 and res.h == 1 and res.attained
    assert set(res.tight) == {"up", "dn"}


def test_min_max_unbounded_and_floor():
    res = min_max_affine([AffinePiece(Q(1), Q(5), "up")])
    assert res.value == MINUS_INF and res.drift == 1
    res = min_max_affine(
        [AffinePiece(Q(1), Q(5), "up"), AffinePiece(Q(0), Q(2), "z")]
    )
    assert res.value == 2 and res.attained


def test_simplex_small():
    # min V s.t. V - h >= 1, V + h >= 0  -> V = 1/2 at h = -1/2
    r = minimize([1, 0], [[1, -1], [1, 1]], [1, 0])
    assert r.status == "optimal" and r.value == Q(1, 2)
    assert r.x == [Q(1, 2), Q(-1, 2)]
    r = minimize([1], [[1], [-1]], [2, 1])  # V >= 2 and V <= -1
    assert r.status == "infeasible"
    r = minimize([-1], [[1]], [0])  # maximize V with V >= 0
    assert r.status == "unbounded"


def test_corpus_never_reaches_the_simplex(monkeypatch):
    # the dense simplex is a test oracle only: count it at every module
    # attribute of the package bound to it, wherever it was imported
    import sys

    from trajhedge.corpus import run_corpus

    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return minimize(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "trajhedge" or name.startswith("trajhedge."):
            for attr, val in list(vars(mod).items()):
                if val is minimize:
                    monkeypatch.setattr(mod, attr, counting)
    rows = run_corpus()
    assert all(r.ok for r in rows)
    assert calls == []


# ---------------------------------------------------------------------------
# one-step kernel


def test_one_step_flat_node():
    t = TrajectoryTree(1, 1)
    t.add_child(t.root, 0, "a")
    step = one_step_superhedge(t, t.root, {"a": Q(7)})
    assert step.value == 7 and step.attained


def test_one_step_two_children_lp():
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 1, "a")
    t.add_child(t.root, -1, "b")
    step = one_step_superhedge(t, t.root, {"a": Q(2), "b": Q(0)})
    assert step.value == 1 and step.h == 1 and step.attained


def test_one_step_drift_on_flagship_root(tree_6_2):
    f = parse_payoff(corpus_text("payoff-6-2-f.txt"), tree_6_2)
    step = one_step_superhedge(
        tree_6_2,
        "r",
        {"u": MINUS_INF},
        {"down": f.family_values["down"]},
    )
    assert step.value == 0 and not step.attained
    assert "family:down:limit" in step.active


def test_one_step_harvest_kills_family_at_type_i():
    # increments {0} u {1/n}: moving members are null, only the flat child binds
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 0, "z")
    t.add_family(t.root, Poly.parse("0,1"), 1, "f")
    f = PayoffSpec(1, {"z": Q(3)}, {"f": ((1, None, Poly.constant(Q(100))),)})
    r = sigma_bar(t, f)
    assert r.value == 3 and r.attained
    ri = i_bar(t, f)
    assert ri.value == 3


# ---------------------------------------------------------------------------
# flagship values (exact)


def test_sigma_flagship(tree_6_2, payoff_6_2_f):
    r = sigma_bar(tree_6_2, payoff_6_2_f)
    assert r.value == 0 and not r.attained
    assert r.hedge is None


def test_ibar_flagship_certificate(tree_6_2, payoff_6_2_f):
    r = i_bar(tree_6_2, payoff_6_2_f)
    assert r.value == Q(1, 2) and r.attained
    assert r.hedge.initial_capital == Q(1, 2)
    assert r.hedge.hedge.at(0, "r") == Q(-1, 2)
    # certificate soundness: wealth dominates the payoff on surviving sites
    assert wealth(tree_6_2, r.hedge, "u") == 0
    poly = wealth_on_member(tree_6_2, r.hedge, "down")
    gap = poly - Poly.parse("0,1")  # payoff t on members
    from trajhedge.poly import grid_nonneg

    ok, _ = grid_nonneg(gap, 1, None)
    assert ok
    assert "family:down:n=1" in r.active


def test_sigma_at_inner_nodes(tree_6_2, payoff_6_2_f):
    assert sigma_bar(tree_6_2, payoff_6_2_f, "u").value == MINUS_INF
    # constant payoff on a continuity node prices to itself
    c = PayoffSpec.constant(tree_6_2, 1, Q(5))
    assert sigma_bar(tree_6_2, c, "r").value == 5


def test_ibar_zero_payoff(tree_6_2):
    z = PayoffSpec.constant(tree_6_2, 1, Q(0))
    assert i_bar(tree_6_2, z).value == 0


def test_ibar_rejects_negative(tree_6_2):
    f = PayoffSpec.constant(tree_6_2, 1, Q(-1))
    with pytest.raises(Exception, match="nonnegative"):
        i_bar(tree_6_2, f)


def test_norms_remark_variant(tree_remark):
    one_z = parse_payoff("payoff maturity=1\nat z = 1\nat u = 0\nat m = 0\n", tree_remark)
    one_m = parse_payoff("payoff maturity=1\nat z = 0\nat u = 0\nat m = -1\n", tree_remark)
    assert norm_j(tree_remark, one_z).value == 1
    assert norm_j(tree_remark, one_m).value == Q(1, 2)  # |.| flips the sign


def test_is_null_cases(tree_6_2, tree_lfail):
    null, _ = is_null(tree_6_2, EventSet([NodeAtom("u")]))
    assert null
    null, res = is_null(tree_lfail, EventSet([NodeAtom("ud")]))
    assert not null and res.value >= Q(1, 6)
    null, _ = is_null(tree_6_2, EventSet([]))
    assert null
    # family-tail events
    null, _ = is_null(tree_6_2, EventSet([FamilyAtom("uptail", ((1, None),))]))
    assert null
    null, res = is_null(tree_6_2, EventSet([FamilyAtom("down", ((2, None),))]))
    assert not null and res.value == 1


def test_tower_and_integrability(tree_6_2, payoff_6_2_f):
    ok, _ = tower_check(tree_6_2, payoff_6_2_f, 0, 1)
    assert ok
    ok, _ = tower_check(tree_6_2, payoff_6_2_f, 0, 0)  # j == k identity
    assert ok
    assert check_integrable(tree_6_2, payoff_6_2_f, 0)
    # indicator of the null up-branch is integrable at 0 (both sides 0 a.e.)
    ind = indicator_payoff(tree_6_2, EventSet([NodeAtom("u")]))
    assert check_integrable(tree_6_2, ind, 0)


def test_sigma_bar_payoff_carries_minus_inf(tree_6_2, payoff_6_2_f):
    spec = sigma_bar_payoff(tree_6_2, payoff_6_2_f, 1)
    assert spec.node_values["u"] == MINUS_INF
    r = sigma_bar(tree_6_2, spec)
    assert r.value == 0
    # negating it keeps the -inf marker: both prices waive the null node u
    assert check_integrable(tree_6_2, spec, 0) and check_integrable(tree_6_2, spec, 1)


def test_constant_payoff_elementary_pricing():
    rng = random.Random(7)
    for _ in range(20):
        t = random_arbitrage_free_tree(rng)
        c = rng.choice([Q(0), Q(1), Q(5, 2)])
        spec = PayoffSpec.constant(t, t.horizon, c)
        r = sigma_bar(t, spec)
        assert r.value == c and r.attained
        assert check_integrable(t, spec, 0)


def test_sigma_certificate_dominates_on_random_trees():
    rng = random.Random(11)
    for _ in range(25):
        t = random_arbitrage_free_tree(rng)
        f = random_payoff(rng, t)
        r = sigma_bar(t, f)
        assert r.attained and isinstance(r.value, Q)
        for nd in t.nodes_at_time(t.horizon):
            assert wealth(t, r.hedge, nd.nid) >= f.node_values[nd.nid]


def test_sigma_hedge_holds_the_positions_before_maturity():
    # one position per internal node below the start and before maturity
    rng = random.Random(12)
    for _ in range(6):
        t = random_arbitrage_free_tree(rng)
        f = random_payoff(rng, t, maturity=2)
        for nid in (t.root, *(nd.nid for nd in t.nodes_at_time(1))):
            below = [t.node(sub) for sub in t.subtree(nid)]
            expect = {(nd.time, nd.nid) for nd in below if nd.time < 2 and not nd.is_leaf}
            assert {key for key, _ in sigma_bar(t, f, nid).hedge.hedge.items()} == expect


def test_supermartingale_check_rejects_increasing_constants():
    t = TrajectoryTree(0, 2)
    for a in ("u", "d"):
        t.add_child(t.root, 1 if a == "u" else -1, a)
        for b in ("u", "d"):
            t.add_child(a, 1 if b == "u" else -1, a + b)
    from trajhedge.model import ProcessSequence

    specs = [PayoffSpec.constant(t, j, Q(j)) for j in range(3)]
    ok, witness = check_supermartingale(t, ProcessSequence(t, specs))
    assert not ok and witness == t.root


@pytest.mark.parametrize("make", [random_arbitrage_free_tree, random_h3_tree,
                                  random_family_tree])
def test_supermartingale_check_at_and_just_below_the_one_step_price(make):
    # a running value equal to its one-step price passes; one 1/p below it,
    # with p a large prime and so a denominator the price does not have,
    # fails at that node, in the check and in the decomposition's violations
    from trajhedge.decomposition import _violation_nodes

    rng = random.Random(f"step-edge:{make.__name__}")
    p = 1_000_003
    checked = 0
    for _ in range(4):
        tree = make(rng)
        f = random_supermartingale(rng, tree)
        analysis, steps = analyze(tree), StepMemo(f)
        for nd in tree.internal_nodes():
            price = steps.step(nd.nid).value
            if analysis.fully_covered(nd.nid) or price == MINUS_INF:
                continue
            values = f[nd.time].node_values
            kept = values[nd.nid]
            values[nd.nid] = price
            assert check_supermartingale(tree, f) == (True, None)
            assert _violation_nodes(tree, f, StepMemo(f)) == set()
            values[nd.nid] = price - Q(1, p)
            assert values[nd.nid].denominator != price.denominator
            assert check_supermartingale(tree, f) == (False, nd.nid)
            assert _violation_nodes(tree, f, StepMemo(f)) == {nd.nid}
            values[nd.nid] = kept
            checked += 1
    assert checked >= 10


def test_a_minus_inf_step_reports_no_violation(tree_lfail, process_lfail):
    # continuity from below fails at u, which the null cover leaves uncovered:
    # its one-step value is -inf, below any running value
    from trajhedge.decomposition import _violation_nodes

    assert not analyze(tree_lfail).fully_covered("u")
    assert StepMemo(process_lfail).step("u").value == MINUS_INF
    process_lfail[1].node_values["u"] = Q(-10**12, 7)
    assert check_supermartingale(tree_lfail, process_lfail) == (True, None)
    assert "u" not in _violation_nodes(tree_lfail, process_lfail, StepMemo(process_lfail))


# ---------------------------------------------------------------------------
# bounded member ranges of 64 and 65 members (once a size boundary)


@pytest.mark.parametrize("members", [64, 65])
def test_expand_limit_boundary_at_up_down_node(members):
    # every member range is a scan group, bounded or not; V >= h on the down
    # move and V >= 1 - h/n on the members n <= K leave V = h = K/(K+1)
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, -1, "d")
    t.add_family(t.root, Poly.parse("0,1"), 1, "f")
    f = PayoffSpec(
        1,
        {"d": Q(0)},
        {"f": ((1, members, Poly.constant(1)), (members + 1, None, Poly.constant(0)))},
    )
    want = Q(members, members + 1)
    s = sigma_bar(t, f)
    assert s.value == want and s.attained
    assert s.hedge.hedge.at(0, t.root) == want
    r = i_bar(t, f)
    assert r.value == want and r.attained
    assert r.hedge.initial_capital == want
    assert r.hedge.hedge.at(0, t.root) == want
    assert i_bar_backward(t, f) == want
    assert i_bar_lp(t, f).value == want


@pytest.mark.parametrize("members", [64, 65])
def test_expand_limit_boundary_at_killed_ray_node(members):
    # increments -1 and 1/n - 1/10 (n >= 10) never go up, and member 10 does
    # not move: a type-I node where only that member constrains, whatever
    # the size of its payoff piece
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, -1, "d")
    t.add_family(t.root, Poly.parse("-1/10,1"), 10, "f")
    assert analyze(t).node_class[t.root] is NodeClass.ARBITRAGE_I
    f = PayoffSpec(
        1,
        {"d": Q(7)},
        {"f": ((10, members + 9, Poly.parse("1,1")), (members + 10, None, Poly.constant(5)))},
    )
    want = Q(11, 10)  # 1 + 1/n at n = 10
    s = sigma_bar(t, f)
    assert s.value == want and s.attained
    r = i_bar(t, f)
    assert r.value == want and r.attained
    assert r.hedge.initial_capital == want
    assert not r.hedge.hedge.items()  # no move is left to hedge
    assert i_bar_backward(t, f) == want


# every member range as a scan group, against the builder that expanded
# bounded ranges of at most 64 members into plain rows

WINDOW_SIZES = [1, 2, 4, 5, 63, 64, 65, 80]


def _windowed_payoff(rng, tree, nonneg):
    """A maturity-horizon payoff whose family pieces are windows of sizes on
    both sides of 64 members, followed by one unbounded piece."""
    pool = [Q(0), Q(1, 2), Q(1), Q(2), Q(3)] + ([] if nonneg else [Q(-1), Q(-2)])

    def line():
        base = rng.choice(pool)
        slopes = [Q(0), Q(1), Q(2)] + ([Q(-1)] if base >= 1 or not nonneg else [])
        return Poly([base, rng.choice(slopes)])

    node_values = {nd.nid: rng.choice(pool) for nd in tree.nodes_at_time(tree.horizon)}
    fam_values = {}
    for fam in tree.families_born_by(tree.horizon):
        pieces, lo = [], fam.n0
        for _ in range(rng.randrange(1, 3)):
            size = rng.choice(WINDOW_SIZES)
            pieces.append((lo, lo + size - 1, line()))
            lo += size
        pieces.append((lo, None, line()))
        fam_values[fam.fid] = tuple(pieces)
    return PayoffSpec(tree.horizon, node_values, fam_values)


def _once_expanded(f):
    """Labels of members in bounded payoff windows of at most 64 members:
    the expanded rows that the old builder could list as active."""
    out = set()
    for fid, pieces in f.family_values.items():
        for lo, hi, _ in pieces:
            if hi is not None and hi - lo + 1 <= 64:
                out.update(f"family:{fid}:n={n}" for n in range(lo, hi + 1))
    return out


def _same_result(new, old, expanded):
    assert (new.value, new.attained, new.hedge, new.note) == (
        old.value, old.attained, old.hedge, old.note)
    assert set(new.active) - expanded == set(old.active) - expanded


@pytest.mark.parametrize("seed", range(30))
def test_scan_groups_match_the_expanded_rows(seed, monkeypatch):
    rng = random.Random(seed)
    t = (random_family_tree, random_no_measure_tree)[seed % 3 == 2](rng)
    f = _windowed_payoff(rng, t, nonneg=seed % 2 == 0)
    expanded = _once_expanded(f)
    ops = [lambda: sigma_bar_all(t, f), lambda: i_bar_backward_all(t, f)]
    for nd in t.internal_nodes():
        ops += [lambda nid=nd.nid: sigma_bar(t, f, nid), lambda nid=nd.nid: i_bar(t, f, nid)]
    new = [_outcome(op) for op in ops]
    with monkeypatch.context() as m:
        m.setattr(pricing, "_family_constraints", reference_family._family_constraints)
        old = [_outcome(op) for op in ops]
    for a, b in zip(new, old):
        if isinstance(b, pricing.PriceResult):
            _same_result(a, b, expanded)
        else:
            assert a == b


# ---------------------------------------------------------------------------
# step rows derived once per tree against the per-call rule they replaced


def _mirrored(tree: TrajectoryTree) -> TrajectoryTree:
    """The tree with every increment negated: plus-ray nodes turn minus-ray."""
    out = TrajectoryTree(-tree.root_value, tree.horizon, tree.root)
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        for inc, child in nd.children:
            out.add_child(nd.nid, -inc, child)
        for fid in nd.families:
            fam = tree.family(fid)
            out.add_family(nd.nid, -fam.poly, fam.n0, fid)
    return out


def test_step_rows_match_the_per_call_rule():
    makers = (random_arbitrage_free_tree, random_h3_tree, random_family_tree,
              random_no_measure_tree)
    rng = random.Random(23)
    seen = set()
    for _ in range(8):
        for make in makers:
            tree = make(rng)
            for t in (tree, _mirrored(tree)):
                analysis = analyze(t)
                for nd in t.internal_nodes():
                    # children where continuity from below fails continue at -inf
                    values = {
                        child: MINUS_INF if analysis.l_fails(child) else rng.choice(VAL_POOL)
                        for _, child in nd.children
                    }
                    pieces = {
                        fid: ((t.family(fid).n0, None, Poly.constant(rng.choice(VAL_POOL))),)
                        for fid in nd.families
                    }
                    new = pricing._build_step_problem(t, analysis, nd.nid, values, pieces)
                    old = reference_step._build_step_problem(t, analysis, nd.nid, values, pieces)
                    assert new.fixed == old.fixed  # slope, value, label, in order
                    assert new.groups == old.groups
                    s = analysis.summaries[nd.nid]
                    for inc, child in nd.children:
                        if type(values[child]) is float:
                            seen.add("-inf")
                        if reference_step._harvested(s, inc):
                            seen.add("plus ray" if inc > 0 else "minus ray")
    assert seen == {"-inf", "plus ray", "minus ray"}


# ---------------------------------------------------------------------------
# the backward engine against the two recursive passes it replaced


def _outcome(run):
    """The call's result, or the type of the exception it raised (a level
    loop may meet a different failing node first than a depth-first pass)."""
    try:
        return run()
    except Exception as exc:
        return type(exc)


def _entries(table):
    return {nid: (e.value, e.attained, e.h) for nid, e in table.items()}


# the flagship model one period down, beside a flat branch: the root's step
# is attained, but its tight child a is not
NESTED_DRIFT = """tree s0=1 horizon=3
node r t=0
node a t=1
node b t=1
node u t=2
node b2 t=2
node b3 t=3
child r inc=1 -> a
child r inc=-1 -> b
child a inc=1 -> u
child b inc=0 -> b2
child b2 inc=0 -> b3
family a poly=0,0,-1 n0=1 id=down
family u poly=0,1 n0=1 id=uptail
"""


def test_backward_engine_matches_the_recursive_passes(tree_6_2, payoff_6_2_f,
                                                      tree_lfail, payoff_lfail_f1):
    rng = random.Random(18)
    makers = [random_arbitrage_free_tree, random_h3_tree, random_family_tree]
    nested = parse_tree(NESTED_DRIFT)
    nested_f = parse_payoff("payoff maturity=2\nat u = 0\nat b2 = 1\n"
                            "at-family down poly=0,1\n", nested)
    assert sigma_bar(nested, nested_f).attained is False
    cases = [(tree_6_2, payoff_6_2_f), (tree_lfail, payoff_lfail_f1), (nested, nested_f)]
    for k in range(18):
        t = makers[k % 3](rng)
        for maturity in range(t.horizon + 1):
            cases.append((t, random_payoff(rng, t, maturity, nonneg=rng.random() < 0.7)))
    seen = set()
    for t, f in cases:
        analysis = analyze(t)
        nodes = list(t.nodes)
        starts = [t.root] + rng.sample(nodes, min(3, len(nodes)))
        for nid in starts:
            old = _outcome(lambda: reference_sigma_pass(t, f, [nid]))
            new = _outcome(lambda: _backward(t, f, analysis, [nid], floored=False))
            if isinstance(old, tuple):
                memo, active, note = old
                assert _entries(new) == _entries(memo), (f, nid)
                assert (new[nid].active, new[nid].note) == (active, note), (f, nid)
            else:
                assert new is old, (f, nid)
            old = _outcome(lambda: reference_i_bar_pass(t, f, analysis, [nid]))
            new = _outcome(lambda: _backward(t, f, analysis, [nid], floored=True))
            if isinstance(old, tuple):
                memo, active = old
                assert _entries(new) == _entries(memo), (f, nid)
                assert new[nid].active == active, (f, nid)
            else:
                assert new is old, (f, nid)
            seen.add((isinstance(old, tuple), bool(t.families)))
        order = [nd.nid for nd in sorted(t.nodes.values(), key=lambda n: -n.time)]
        old = _outcome(lambda: reference_sigma_pass(t, f, order)[0])
        assert _outcome(lambda: sigma_bar_all(t, f)) == (
            old if isinstance(old, type) else {n: e.value for n, e in old.items()})
        old = _outcome(lambda: reference_i_bar_pass(t, f, analysis, order)[0])
        assert _outcome(lambda: i_bar_backward_all(t, f)) == (
            old if isinstance(old, type) else {n: e.value for n, e in old.items()})
    # explicit and family trees, priced and refused (a negative payoff has no
    # null-operator value)
    assert seen == {(True, False), (True, True), (False, False), (False, True)}
