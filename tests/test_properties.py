"""Structural invariants beyond the acceptance gate."""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from trajhedge.analysis import NodeClass, analyze, good_nodes_by_enumeration
from trajhedge.decomposition import doob_decompose, verify_decomposition
from trajhedge.fileformat import (
    parse_decomposition,
    parse_payoff,
    parse_process,
    parse_tree,
    render_decomposition,
    render_payoff,
    render_process,
    render_tree,
)
from trajhedge.model import (
    MINUS_INF,
    HedgeSequence,
    PayoffSpec,
    SimpleStrategy,
    StoppingTime,
    TrajectoryTree,
    stopped_process,
    wealth,
    wealth_on_member,
)
from trajhedge.pricing import check_integrable, sigma_bar, sigma_bar_all
from trajhedge.poly import Poly, grid_summary, intersect_ranges

from gen import (
    random_arbitrage_free_tree,
    random_family_tree,
    random_h3_tree,
    random_no_measure_tree,
    random_payoff,
    random_supermartingale,
)


def test_path_consistency_explicit_and_symbolic(tree_6_2):
    rng = random.Random(1)
    for tree in (tree_6_2, random_family_tree(rng), random_h3_tree(rng)):
        for nd in tree.nodes.values():
            path = tree.path_to(nd.nid)
            total = tree.root_value
            for i in range(len(path) - 1):
                total += tree.node(path[i + 1]).inc_from_parent
            assert total == nd.value
        for fid, fam in tree.families.items():
            parent = tree.node(fam.parent)
            # symbolic identity: member value = parent value + increment poly
            for n in (fam.n0, fam.n0 + 5):
                assert tree.member_value(fid, n) == parent.value + fam.increment(n)


def test_non_anticipativity_is_structural(tree_6_2):
    # one stored position per (time, node): trajectories agreeing to time i
    # share the node at i, hence the position
    h = HedgeSequence({(0, "r"): Q(3)})
    fam = tree_6_2.family("down")
    assert h.at(0, "r") == 3
    for n in (1, 2, 7):
        strat = SimpleStrategy(Q(0), h)
        poly = wealth_on_member(tree_6_2, strat, "down")
        assert poly.at_index(n) == Q(3) * fam.increment(n)


def test_stopped_process_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        tree = random_family_tree(rng)
        f = random_supermartingale(rng, tree)
        marks = frozenset(nd.nid for nd in tree.nodes.values() if rng.random() < 0.3)
        tau = StoppingTime(marks)
        once = stopped_process(f, tau)
        twice = stopped_process(once, tau)
        for j in range(tree.horizon + 1):
            assert once[j].node_values == twice[j].node_values
            for fid in once[j].family_values:
                for lo, hi, poly in once[j].family_values[fid]:
                    for n in (lo, lo + 2):
                        assert poly.at_index(n) == twice[j].value_at_member(fid, n)


def test_diagonal_closure_trivial_on_explicit_trees():
    rng = random.Random(9)
    for _ in range(10):
        tree = random_arbitrage_free_tree(rng, depth=3)
        assert tree.diagonal_closure_is_trivial()
        # brute force: every initial-segment-consistent path sequence built
        # from leaves collapses onto one of the leaves' paths
        leaves = [tree.path_to(nd.nid) for nd in tree.nodes_at_time(tree.horizon)]
        sample = leaves[: min(4, len(leaves))]
        for seq in itertools.product(sample, repeat=min(3, len(sample))):
            consistent = all(
                seq[n][: n + 1] == seq[n + 1][: n + 1]
                for n in range(len(seq) - 1)
                if n + 1 < len(seq[n])
            )
            if not consistent:
                continue
            diag = [seq[min(n, len(seq) - 1)][n] for n in range(tree.horizon + 1)]
            assert any(diag == path for path in leaves)


def test_classification_trichotomy_random():
    rng = random.Random(13)
    for i in range(40):
        tree = (random_h3_tree(rng) if i % 2 else random_family_tree(rng))
        a = analyze(tree)
        for nid in tree.nodes:
            assert a.node_class[nid] in NodeClass
        # sure-win implies continuity failure, unconditionally
        for nid, cls in a.node_class.items():
            if cls is NodeClass.ARBITRAGE_II:
                assert not a.l_holds[nid]


def test_good_nodes_equivalence_random():
    rng = random.Random(17)
    for i in range(40):
        tree = (
            random_h3_tree(rng)
            if i % 3 == 0
            else random_family_tree(rng)
            if i % 3 == 1
            else random_arbitrage_free_tree(rng)
        )
        assert analyze(tree).good == good_nodes_by_enumeration(tree)


def test_constant_on_cylinder_prices_below_constant():
    # a payoff constant on a node's cylinder prices to at most that constant,
    # with equality where continuity holds
    rng = random.Random(21)
    for _ in range(20):
        tree = random_h3_tree(rng)
        a = analyze(tree)
        c = rng.choice([Q(0), Q(1), Q(7, 3)])
        f = PayoffSpec.constant(tree, tree.horizon, c)
        vals = sigma_bar_all(tree, f)
        for nid in tree.nodes:
            if a.l_holds[nid]:
                assert vals[nid] == c
            else:
                assert vals[nid] == float("-inf")


def test_elementary_payoffs_price_to_their_capital():
    rng = random.Random(25)
    for _ in range(25):
        tree = random_arbitrage_free_tree(rng)
        hedge = HedgeSequence()
        for nd in tree.internal_nodes():
            hedge.set(nd.time, nd.nid, rng.choice([Q(-2), Q(-1), Q(0), Q(1), Q(2)]))
        v0 = rng.choice([Q(0), Q(1), Q(5, 2)])
        strat = SimpleStrategy(v0, hedge)
        payoff = PayoffSpec(
            tree.horizon,
            {nd.nid: wealth(tree, strat, nd.nid) for nd in tree.nodes_at_time(tree.horizon)},
        )
        r = sigma_bar(tree, payoff)
        assert r.value == v0 and r.attained
        # and the gains process is integrable at time 0
        assert check_integrable(tree, payoff, 0)


def test_operators_agree_on_type_i_tree():
    # attained-zero arbitrage keeps continuity, so the two operators coincide
    from trajhedge.pricing import i_bar, i_bar_backward

    t = TrajectoryTree(0, 2)
    t.add_child(t.root, 0, "z")
    t.add_child(t.root, 1, "p")
    t.add_child("z", 0, "z2")
    t.add_child("p", 1, "p2a")
    t.add_child("p", -1, "p2b")
    a = analyze(t)
    assert a.node_class[t.root] is NodeClass.ARBITRAGE_I
    assert all(a.l_holds.values())
    f = PayoffSpec(2, {"z2": Q(3), "p2a": Q(100), "p2b": Q(50)})
    vs = sigma_bar_all(t, f)
    for nid in t.nodes:
        assert vs[nid] == i_bar_backward(t, f, nid)
    # the moving branch is null: its huge values do not matter at the root
    assert vs[t.root] == 3
    assert i_bar(t, f).value == 3


def test_sigma_bar_all_matches_sigma_bar_at_every_node():
    # the all-nodes pass and the single-node pass share one recursion; compare
    # them node by node, below and beyond maturity
    rng = random.Random(61)
    for make in (random_family_tree, random_h3_tree):
        for _ in range(8):
            tree = make(rng)
            f = random_payoff(rng, tree, rng.randint(1, tree.horizon))
            vs = sigma_bar_all(tree, f)
            assert set(vs) == set(tree.nodes)
            for nid in tree.nodes:
                assert vs[nid] == sigma_bar(tree, f, nid).value, (make.__name__, nid)


def _certificate_shortfalls(tree, f, nid, res):
    """Where the i_bar certificate from nid fails the nonnegative-wealth rows.

    Wealth must stay >= 0 at every pre-maturity node reached through
    non-harvested children and dominate f at good maturity sites and on the
    members the null cover leaves uncovered."""
    a = analyze(tree)
    out = []
    stack = [nid]
    while stack:
        cur = stack.pop()
        node = tree.node(cur)
        w = wealth(tree, res.hedge, cur)
        if node.time >= f.maturity:
            if a.good[cur] and w < f.node_values[cur]:
                out.append(f"wealth below payoff at {cur}")
            continue
        if w < 0:
            out.append(f"negative wealth at {cur}")
        s = a.summaries[cur]
        stack.extend(
            child for inc, child in node.children
            if not ((s.plus_ray and inc > 0) or (s.minus_ray and inc < 0))
        )
        for fid in node.families:
            gap = wealth_on_member(tree, res.hedge, fid)
            for lo, hi in a.null_cover.uncovered_member_ranges(tree, fid):
                for p_lo, p_hi, poly in f.family_values[fid]:
                    meet = intersect_ranges((lo, hi), (p_lo, p_hi))
                    diff = gap - poly
                    if meet is not None and not diff.is_zero() and (
                        grid_summary(diff, *meet).has_neg
                    ):
                        out.append(f"wealth below payoff on {fid} {meet}")
    return out


def test_lp_i_bar_matches_backward_on_generated_trees():
    # the aggregated LP oracle and the backward pass are independent routes
    # to the null-operator value; the LP is cubic-ish, so trees stay <= 30
    # nodes.  The two may pick different optimal positions, so the backward
    # certificate is checked on its own.
    from trajhedge.oracle import i_bar_lp
    from trajhedge.pricing import i_bar

    rng = random.Random(58)
    makers = [
        (random_arbitrage_free_tree, 12),
        (random_h3_tree, 12),
        (random_family_tree, 10),
        (random_no_measure_tree, 8),
    ]
    for make, count in makers:
        done = 0
        while done < count:
            tree = make(rng)
            if len(tree.nodes) > 30:
                continue
            done += 1
            f = random_payoff(rng, tree, rng.randint(1, tree.horizon), nonneg=True)
            inner = sorted(nd.nid for nd in tree.internal_nodes() if nd.nid != tree.root)
            for nid in [tree.root, *rng.sample(inner, min(1, len(inner)))]:
                want, got = i_bar_lp(tree, f, nid), i_bar(tree, f, nid)
                where = (make.__name__, done, nid)
                assert (got.value, got.attained) == (want.value, want.attained), where
                if tree.node(nid).time <= f.maturity:
                    assert got.hedge is not None, where
                    assert _certificate_shortfalls(tree, f, nid, got) == [], where


def test_stopped_process_with_member_windows():
    from trajhedge.model import ProcessSequence

    tree = TrajectoryTree(1, 2)
    tree.add_child(tree.root, -1, "d")
    tree.add_child("d", 0, "d2")
    tree.add_family(tree.root, Poly.parse("0,1"), 1, "f")
    # synthetic process whose member values move between times 1 and 2
    specs = [
        PayoffSpec(0, {tree.root: Q(0)}),
        PayoffSpec(1, {"d": Q(0)}, {"f": ((1, None, Poly.parse("0,1")),)}),
        PayoffSpec(2, {"d2": Q(0)}, {"f": ((1, None, Poly.parse("0,2")),)}),
    ]
    f = ProcessSequence(tree, specs)
    # stop members n <= 3 at time 1; later members never stop
    tau = StoppingTime(frozenset(), (("f", 1, 1, 3),))
    g = stopped_process(f, tau)
    assert g[2].value_at_member("f", 2) == Q(1, 2)   # frozen at time-1 value
    assert g[2].value_at_member("f", 5) == Q(2, 5)   # still running
    assert g[1].value_at_member("f", 2) == Q(1, 2)


def test_exchange_tangent_hedge_path():
    # the binding constraints accumulate at the family tail: the optimum needs
    # the exact tangent position, which no finite working set reaches
    from trajhedge.pricing import sigma_bar

    t = TrajectoryTree(0, 1)
    t.add_child(t.root, -1, "blk")
    t.add_family(t.root, Poly.parse("0,1"), 1, "f")
    f = PayoffSpec(
        1,
        {"blk": Q(0)},
        {"f": ((1, None, Poly.parse("1,1,-2")),)},  # 1 + t - 2t^2 -> 1
    )
    r = sigma_bar(t, f)
    assert r.value == 1 and r.attained
    assert r.hedge.hedge.at(0, t.root) == 1  # the tangent slope


def test_running_outer_prices_form_a_supermartingale():
    # (sigma_j f)_j is a supermartingale wherever it stays real-valued
    rng = random.Random(27)
    from trajhedge.model import ProcessSequence
    from trajhedge.pricing import check_supermartingale, sigma_bar_payoff

    for _ in range(15):
        tree = random_arbitrage_free_tree(rng)
        f = random_payoff(rng, tree)
        specs = [sigma_bar_payoff(tree, f, j) for j in range(tree.horizon + 1)]
        proc = ProcessSequence(tree, specs)
        ok, witness = check_supermartingale(tree, proc)
        assert ok, witness


def test_zero_claim_prices_to_zero_exactly_where_continuity_holds():
    rng = random.Random(29)
    for _ in range(20):
        tree = random_h3_tree(rng)
        a = analyze(tree)
        z = PayoffSpec.constant(tree, tree.horizon, Q(0))
        vals = sigma_bar_all(tree, z)
        for nid in tree.nodes:
            expected = Q(0) if a.l_holds[nid] else float("-inf")
            assert vals[nid] == expected


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    make=st.sampled_from([random_arbitrage_free_tree, random_h3_tree,
                          random_family_tree, random_no_measure_tree]),
)
def test_documents_round_trip(seed, make):
    # render(parse(render(x))) == render(x) for every document kind, and a
    # parsed decomposition still verifies against the parsed model
    rng = random.Random(seed)
    tree = make(rng)
    text = render_tree(tree)
    parsed = parse_tree(text)
    assert render_tree(parsed) == text

    f = random_payoff(rng, tree, maturity=rng.randrange(tree.horizon + 1))
    for nid in f.node_values:
        if rng.random() < 0.2:
            f.node_values[nid] = MINUS_INF
    text = render_payoff(f)
    assert render_payoff(parse_payoff(text, parsed)) == text

    proc = random_supermartingale(rng, tree)
    text = render_process(proc)
    parsed_proc = parse_process(text, parsed)
    assert render_process(parsed_proc) == text

    deltas = [rng.choice([Q(1, 10), Q(1, 3), Q(2)]) for _ in range(tree.horizon)]
    text = render_decomposition(doob_decompose(tree, proc, deltas))
    d = parse_decomposition(text, parsed)
    assert render_decomposition(d) == text
    assert verify_decomposition(parsed, parsed_proc, d) == (True, "")
