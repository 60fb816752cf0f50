import random
from fractions import Fraction as Q

import pytest

from trajhedge.fileformat import (
    ParseError,
    parse_payoff,
    parse_process,
    parse_tree,
    render_payoff,
    render_process,
    render_tree,
)
from trajhedge.model import (
    MINUS_INF,
    HedgeSequence,
    ModelError,
    PayoffSpec,
    SimpleStrategy,
    StoppingTime,
    TrajectoryTree,
    abs_payoff,
    first_time_value_geq,
    stopped_process,
    stopping_indicator,
    supermartingale_transform,
    uniform_positions,
    wealth,
    wealth_on_member,
)
from trajhedge.poly import Poly, parse_rat

from conftest import corpus_text
from gen import random_family_tree


def test_parse_example_6_2(tree_6_2):
    t = tree_6_2
    assert t.root_value == 1 and t.horizon == 2
    assert t.node("u").value == 2
    assert set(t.families) == {"down", "uptail"}
    assert t.family("down").increment(2) == Q(-1, 4)
    assert t.member_value("down", 2) == Q(3, 4)
    assert t.family_birth("down") == 1 and t.family_birth("uptail") == 2


def test_tree_round_trip(tree_lfail):
    again = parse_tree(render_tree(tree_lfail))
    assert render_tree(again) == render_tree(tree_lfail)


def test_tree_lines_in_any_order_parse_alike():
    # a child or family line may come before the line that attaches its parent
    rng = random.Random(3)
    for _ in range(20):
        text = render_tree(random_family_tree(rng, depth=rng.choice((2, 3))))
        lines = text.splitlines()
        head = [ln for ln in lines if not ln.startswith(("child", "family"))]
        edges = lines[len(head):]
        shuffled = rng.sample(edges, len(edges))
        for order in (edges[::-1], shuffled):
            assert render_tree(parse_tree("\n".join(head + order) + "\n")) == text


def test_unreachable_parent_fails_at_the_first_waiting_line():
    text = ("tree s0=1 horizon=2\nnode r t=0\n"
            "child b inc=1 -> c\nchild c inc=1 -> b\n"
            "child r inc=1 -> u\nchild r inc=-1 -> d\nchild u inc=1 -> uu\n"
            "child d inc=1 -> dd\n")
    with pytest.raises(ParseError, match="unreachable parent 'b'") as exc:
        parse_tree(text)
    assert exc.value.line_no == 3


def test_parse_single_constant_trajectory():
    t = parse_tree("tree s0=5 horizon=0\nnode only t=0\n")
    assert t.horizon == 0 and t.node("only").value == 5
    assert t.node("only").is_leaf


def test_negative_horizon_is_a_parse_error_at_the_header():
    with pytest.raises(ParseError, match="horizon must be >= 0") as exc:
        parse_tree("# a comment first\ntree s0=1 horizon=-1\nnode r t=0\n")
    assert exc.value.line_no == 2


def test_nodes_at_time_follows_growth():
    t = TrajectoryTree(0, 2, "r")
    t.add_child("r", 1, "b")
    assert [nd.nid for nd in t.nodes_at_time(1)] == ["b"]
    t.nodes_at_time(1).clear()  # callers get a fresh list
    t.add_child("r", -1, "a")
    assert [nd.nid for nd in t.nodes_at_time(1)] == ["a", "b"]
    assert t.nodes_at_time(2) == []


def test_parse_then_analyze_validates_once(monkeypatch):
    # parse_tree validates; analyze finds the unchanged tree already valid
    from trajhedge.analysis import analyze

    seen = []
    check = TrajectoryTree._check_child_distinctness

    def counting(self, nd):
        seen.append(nd.nid)
        return check(self, nd)

    monkeypatch.setattr(TrajectoryTree, "_check_child_distinctness", counting)
    t = parse_tree(corpus_text("example-6-2.txt"))
    analyze(t)
    t.validate()
    assert sorted(seen) == sorted(t.nodes)


def test_growing_a_validated_tree_validates_again():
    from trajhedge.analysis import analyze

    t = parse_tree(corpus_text("example-6-2.txt"))
    analyze(t)
    t.add_child(t.root, Q(7), "early")  # a leaf at t=1 below horizon 2
    with pytest.raises(ModelError, match="'early' at time 1 has no children"):
        analyze(t)


def test_ancestor_at_matches_path():
    import random

    from gen import (
        random_arbitrage_free_tree,
        random_family_tree,
        random_h3_tree,
        random_no_measure_tree,
    )

    rng = random.Random(53)
    for make in (random_arbitrage_free_tree, random_family_tree, random_h3_tree,
                 random_no_measure_tree):
        for _ in range(5):
            t = make(rng)
            for nid, nd in t.nodes.items():
                path = t.path_to(nid)
                assert [t.ancestor_at(nid, k) for k in range(nd.time + 1)] == path
                for k in (nd.time + 1, -1):
                    with pytest.raises(ModelError, match=f"no ancestor at time {k}"):
                        t.ancestor_at(nid, k)


def test_duplicate_increment_rejected():
    doc = (
        "tree s0=0 horizon=1\nnode r t=0\nnode a t=1\nnode b t=1\n"
        "child r inc=1 -> a\nchild r inc=1 -> b\n"
    )
    with pytest.raises(ParseError, match="duplicate increment"):
        parse_tree(doc)


def test_explicit_family_collision_rejected():
    doc = (
        "tree s0=0 horizon=1\nnode r t=0\nnode a t=1\n"
        "child r inc=1/4 -> a\nfamily r poly=0,0,1 n0=1\n"  # 1/n^2 hits 1/4 at n=2
    )
    with pytest.raises(ParseError, match="collides with member n=2"):
        parse_tree(doc)


def test_direct_edits_fail_validation():
    def tree():
        t = TrajectoryTree(Q(1, 3), 1)
        t.add_child(t.root, Q(1, 2), "a")
        t.add_child(t.root, Q(-2, 5), "b")
        return t

    tree().validate()  # 1/3 + 1/2 == 5/6 and 1/3 - 2/5 == -1/15
    t = tree()
    t.node("a").value = Q(5, 7)
    with pytest.raises(ModelError, match="value inconsistency at 'a'") as err:
        t.validate()
    assert err.value.nid == "a"
    t = tree()
    t.node("b").inc_from_parent = Q(-2, 3)
    with pytest.raises(ModelError, match="value inconsistency at 'b'"):
        t.validate()
    t = tree()  # a consistent edit of both still validates
    t.node("b").value, t.node("b").inc_from_parent = Q(2, 3), Q(1, 3)
    t.validate()
    t = tree()
    t.add_child(t.root, Q(4, 8), "c")  # the increment of 'a' in other terms
    with pytest.raises(ModelError, match="duplicate increment at node 'root'") as err:
        t.validate()
    assert err.value.nid == "c"


def test_dangling_internal_node_rejected():
    doc = "tree s0=0 horizon=2\nnode r t=0\nnode a t=1\nchild r inc=1 -> a\n"
    with pytest.raises(ParseError, match="no children"):
        parse_tree(doc)


def test_constant_family_rejected():
    doc = "tree s0=0 horizon=1\nnode r t=0\nfamily r poly=2 n0=1\n"
    with pytest.raises(ParseError, match="constant increment polynomial"):
        parse_tree(doc)


def test_family_degree_cap():
    doc = "tree s0=0 horizon=1\nnode r t=0\nfamily r poly=0,1,0,0,0,1 n0=1\n"
    with pytest.raises(ParseError, match="degree"):
        parse_tree(doc)


def test_payoff_round_trip(tree_6_2, payoff_6_2_f):
    again = parse_payoff(render_payoff(payoff_6_2_f), tree_6_2)
    assert render_payoff(again) == render_payoff(payoff_6_2_f)
    assert payoff_6_2_f.value_at_member("down", 3) == Q(1, 3)
    assert payoff_6_2_f.value_at_node("u") == 0


@pytest.mark.parametrize(
    "bad", [2.0, 0.5, 2, "2", float("inf")], ids=["float", "half", "int", "str", "inf"]
)
def test_payoff_rejects_non_rational_node_values(bad):
    from trajhedge.pricing import i_bar_backward, sigma_bar

    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 1, "u")
    t.add_child(t.root, -1, "d")
    spec = PayoffSpec(1, {"u": bad, "d": Q(0)})
    with pytest.raises(ModelError, match="value at node 'u' is neither") as err:
        spec.validate(t)
    assert err.value.nid == "u"
    with pytest.raises(ModelError, match="value at node 'root' is neither"):
        PayoffSpec(1, {"u": Q(1), "d": Q(0), "root": bad}).validate(t)
    for op in (sigma_bar, i_bar_backward):
        with pytest.raises(ModelError, match="value at node 'u'"):
            op(t, spec)
    # the -inf marker stays a payoff value
    PayoffSpec(1, {"u": MINUS_INF, "d": Q(0)}).validate(t)
    assert sigma_bar(t, PayoffSpec(1, {"u": Q(2), "d": Q(0)})).value == 1


def test_each_literal_is_parsed_once_per_document(monkeypatch, tree_6_2):
    import trajhedge.fileformat as fileformat

    seen = []

    def counted(text):
        seen.append(text)
        return parse_rat(text)

    monkeypatch.setattr(fileformat, "parse_rat", counted)
    parse_tree(corpus_text("example-6-2.txt"))  # s0=1 and inc=1
    assert seen == ["1"]
    process = corpus_text("process-6-2-b.txt")  # at r = 0 and at u = 0
    parse_process(process, tree_6_2)
    parse_process(process, tree_6_2)  # another document parses its own
    assert seen == ["1", "0", "0"]


# literals outside the p/q grammar, each with the value it was once read as
OFF_GRAMMAR = [("1_0", "10"), ("\u0661", "1"), ("1/-2", "-1/2")]


@pytest.mark.parametrize("bad,good", OFF_GRAMMAR, ids=["underscore", "arabic-indic", "signed-q"])
def test_off_grammar_literals_fail_at_their_line(tree_6_2, bad, good):
    tree = "tree s0=1 horizon=1\nnode r t=0\nchild r inc=-3 -> a\nchild r inc={} -> b\n"
    process = corpus_text("process-6-2-b.txt")
    cases = [
        (lambda: parse_tree(tree.format(bad)), 4),
        (lambda: parse_tree(tree.replace("s0=1", "s0=" + bad).format(1)), 1),
        (lambda: parse_payoff(f"payoff maturity=1\nat u = {bad}\n", tree_6_2), 2),
        (lambda: parse_process(process.replace("at u = 0", f"at u = {bad}"), tree_6_2), 5),
    ]
    for parse, line in cases:
        with pytest.raises(ParseError, match="bad rational literal") as exc:
            parse()
        assert exc.value.line_no == line
    # the same value written in the grammar parses
    assert parse_tree(tree.format(good)).node("b").inc_from_parent == Q(good)


@pytest.mark.parametrize("bad,good", OFF_GRAMMAR, ids=["underscore", "arabic-indic", "signed-q"])
def test_a_repeated_bad_literal_fails_at_its_first_line(tree_6_2, bad, good):
    # a literal parsed once per document: a good one of the same value does
    # not let the bad text through, and the bad one fails where it first is
    tree = (f"tree s0=1 horizon=1\nnode r t=0\nchild r inc={good} -> a\n"
            f"child r inc=-7 -> b\nchild r inc={bad} -> c\nchild r inc={bad} -> d\n")
    with pytest.raises(ParseError) as exc:
        parse_tree(tree)
    assert exc.value.line_no == 5
    process = corpus_text("process-6-2-b.txt").replace("at r = 0", f"at r = {good}")
    process = process.replace("at u = 0", f"at u = {bad}") + f"at u = {bad}\n"
    with pytest.raises(ParseError) as exc:
        parse_process(process, tree_6_2)
    assert exc.value.line_no == 5


def test_payoff_coverage_checked(tree_6_2):
    with pytest.raises(ParseError, match="misses"):
        parse_payoff("payoff maturity=1\nat u = 0\n", tree_6_2)
    with pytest.raises(ModelError, match="gap"):
        spec = PayoffSpec(1, {"u": Q(0)}, {"down": ((3, None, Poly.parse("0,1")),)})
        spec.validate(tree_6_2)


def test_tail_indicator_pieces(tree_6_2):
    doc = (
        "payoff maturity=1\nat u = 0\n"
        "at-family down poly=0 from=1 to=4\nat-family down poly=1 from=5\n"
    )
    spec = parse_payoff(doc, tree_6_2)
    assert spec.value_at_member("down", 4) == 0
    assert spec.value_at_member("down", 5) == 1


# ---------------------------------------------------------------------------
# wealth


def test_wealth_direct_sum():
    t = TrajectoryTree(1, 2)
    a = t.add_child(t.root, 1, "a")
    b = t.add_child("a", -2, "b")
    h = HedgeSequence()
    h.set(0, t.root, 1)
    h.set(1, "a", 1)
    strat = SimpleStrategy(Q(1), h)
    assert wealth(t, strat, "b") == 0
    zero = SimpleStrategy(Q(0), HedgeSequence())
    for nid in t.nodes:
        assert wealth(t, zero, nid) == 0


def test_wealth_on_member_polynomial(tree_6_2):
    h = HedgeSequence()
    h.set(0, "r", Q(-1, 2))
    strat = SimpleStrategy(Q(1, 2), h)
    poly = wealth_on_member(tree_6_2, strat, "down")
    assert poly == Poly.parse("1/2,0,1/2")  # 1/2 + t^2/2
    assert wealth(tree_6_2, strat, "u") == 0


def test_wealth_before_start_rejected(tree_6_2):
    strat = SimpleStrategy(Q(0), HedgeSequence(), start_time=1, start_node="u")
    with pytest.raises(ModelError, match="precedes"):
        wealth(tree_6_2, strat, "r")


# ---------------------------------------------------------------------------
# stopping and transforms


def test_member_windows_sort_by_time_start_then_end():
    tau = StoppingTime(family_marks=(
        ("f", 1, 2, None), ("f", 1, 2, 5), ("g", 0, 1, 1), ("f", 0, 7, None), ("f", 1, 1, 9),
    ))
    assert tau.member_windows("f") == [(0, 7, None), (1, 1, 9), (1, 2, 5), (1, 2, None)]
    assert tau.member_windows("g") == [(0, 1, 1)]


def test_stopped_process_trivial_rules(process_6_2_b, tree_6_2):
    f = process_6_2_b
    now = StoppingTime(frozenset({"r"}))  # tau == 0
    g = stopped_process(f, now)
    for j in range(3):
        for nd in tree_6_2.nodes_at_time(j):
            assert g[j].node_values[nd.nid] == f[0].node_values["r"]
    never = StoppingTime()
    h = stopped_process(f, never)
    for j in range(3):
        assert h[j].node_values == f[j].node_values
        assert h[j].family_values == f[j].family_values


def test_stopped_freezes_up_branch(tree_6_2):
    # coordinate process, stopped at first time the price reaches 2
    coords = []
    from trajhedge.model import ProcessSequence

    for j in range(3):
        nodes = {nd.nid: nd.value for nd in tree_6_2.nodes_at_time(j)}
        fams = {}
        for fam in tree_6_2.families_born_by(j):
            parent_val = tree_6_2.node(fam.parent).value
            fams[fam.fid] = ((fam.n0, None, fam.poly.shift(parent_val)),)
        coords.append(PayoffSpec(j, nodes, fams))
    f = ProcessSequence(tree_6_2, coords)
    tau = first_time_value_geq(tree_6_2, 2)
    g = stopped_process(f, tau)
    # up members are frozen at the time-1 value 2 instead of 2 + 1/n
    assert g[2].family_values["uptail"] == ((1, None, Poly.constant(Q(2))),)
    # down members never stop
    assert g[2].family_values["down"] == f[2].family_values["down"]


def test_transform_identity_and_frozen(process_6_2_b, tree_6_2):
    f = process_6_2_b
    ones = uniform_positions(tree_6_2, 1)
    g = supermartingale_transform(f, ones)
    for j in range(3):
        assert g[j].node_values == f[j].node_values
        for fid in f[j].family_values:
            for lo, hi, poly in g[j].family_values[fid]:
                for n in (lo, lo + 1):
                    assert poly.at_index(n) == f[j].value_at_member(fid, n)
    zero = uniform_positions(tree_6_2, 0)
    z = supermartingale_transform(f, zero)
    base = f[0].node_values["r"]
    for j in range(3):
        assert all(v == base for v in z[j].node_values.values())


def test_transform_with_indicator_matches_stopped(process_6_2_b, tree_6_2):
    f = process_6_2_b
    tau = StoppingTime(frozenset({"u"}))
    d = stopping_indicator(tree_6_2, tau)
    lhs = supermartingale_transform(f, d)
    rhs = stopped_process(f, tau)
    for j in range(3):
        assert lhs[j].node_values == rhs[j].node_values
        for fid in rhs[j].family_values:
            for lo, hi, poly in rhs[j].family_values[fid]:
                for n in (lo, lo + 3):
                    assert poly.at_index(n) == lhs[j].value_at_member(fid, n)


def test_transform_rejects_negative_positions(process_6_2_b, tree_6_2):
    d = uniform_positions(tree_6_2, -1)
    with pytest.raises(ModelError, match="nonnegative"):
        supermartingale_transform(process_6_2_b, d)


def test_abs_payoff_splits_sign(tree_6_2):
    doc = "payoff maturity=1\nat u = -3\nat-family down poly=-1/7,2\n"
    spec = parse_payoff(doc, tree_6_2)
    a = abs_payoff(tree_6_2, spec)
    assert a.node_values["u"] == 3
    assert a.value_at_member("down", 1) == abs(Q(2) - Q(1, 7))
    assert a.value_at_member("down", 20) == abs(Q(2, 20) - Q(1, 7))
    for n in (1, 2, 13, 14, 15, 50):
        assert a.value_at_member("down", n) == abs(spec.value_at_member("down", n))


def test_process_parse_render(tree_lfail):
    proc = parse_process(corpus_text("process-l-failure.txt"), tree_lfail)
    again = parse_process(render_process(proc), tree_lfail)
    assert render_process(again) == render_process(proc)
