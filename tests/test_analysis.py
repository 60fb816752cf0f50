import random
from fractions import Fraction as Q

import pytest

from trajhedge.analysis import (
    EventSet,
    FamilyAtom,
    NodeAtom,
    NodeClass,
    analyze,
    assumption_l_ae,
    classify_node,
    good_nodes_by_enumeration,
    l_status,
    null_cover,
    render_report,
)
from trajhedge.fileformat import parse_tree
from trajhedge.model import TrajectoryTree
from trajhedge.poly import Poly

from gen import random_arbitrage_free_tree, random_family_tree, random_h3_tree
from reference_cover import _all_descendants_covered


def binary_tree(depth=2, up=1, down=-1):
    t = TrajectoryTree(0, depth)
    frontier = [t.root]
    for level in range(depth):
        nxt = []
        for nid in frontier:
            nxt.append(t.add_child(nid, up, f"{nid}u"))
            nxt.append(t.add_child(nid, down, f"{nid}d"))
        frontier = nxt
    return t


def test_classify_example_6_2(tree_6_2):
    assert classify_node(tree_6_2, "u") is NodeClass.ARBITRAGE_II
    assert classify_node(tree_6_2, "r") is NodeClass.UP_DOWN


def test_classify_flat_continuation(tree_remark):
    assert classify_node(tree_remark, "z") is NodeClass.FLAT
    assert classify_node(tree_remark, "m") is NodeClass.FLAT
    assert classify_node(tree_remark, "z2") is NodeClass.FLAT  # leaf


def test_classify_negative_family_only():
    # increments -1/n^2 only: supremum 0 is never attained, a sure-win short
    t = TrajectoryTree(1, 1)
    t.add_family(t.root, Poly.parse("0,0,-1"), 1)
    assert classify_node(t, t.root) is NodeClass.ARBITRAGE_II


def test_classify_type_i_with_family_zero():
    # family (1-t)(2t) style: p(t)=2t-2t^2 vanishes at n=1, positive after
    t = TrajectoryTree(0, 1)
    t.add_family(t.root, Poly.parse("0,2,-2"), 1)
    assert classify_node(t, t.root) is NodeClass.ARBITRAGE_I


def test_l_status_example_6_2(tree_6_2):
    status = l_status(tree_6_2)
    assert status == {"r": True, "u": False}
    a = analyze(tree_6_2)
    assert a.certification("u") == "sure-win-node"


def test_l_status_l_failure_example(tree_lfail):
    status = l_status(tree_lfail)
    failing = {nid for nid, ok in status.items() if not ok}
    # fails at the up-down node with value 2 and at the sure-win node above it
    assert failing == {"u", "uu"}
    assert status["r"] is True  # the constant trajectory protects the root


def test_l_status_binary_tree_holds_everywhere():
    status = l_status(binary_tree())
    assert all(status.values())


def test_null_cover_example_6_2(tree_6_2):
    cover = null_cover(tree_6_2)
    assert "u" in cover.node_atoms  # whole up branch is a shadow
    assert cover.member_ranges("uptail") == [(1, None)]
    a = analyze(tree_6_2)
    assert a.fully_covered("u")
    assert not a.fully_covered("r")
    assert a.alive_member_ranges("down") == [(1, None)]


def test_null_cover_empty_on_up_down_tree():
    assert null_cover(binary_tree()).is_empty()


def test_null_cover_whole_tree_under_type_ii_root():
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 1, "a")
    t.add_child(t.root, 2, "b")
    a = analyze(t)
    assert a.node_class[t.root] is NodeClass.ARBITRAGE_II
    assert a.fully_covered(t.root)


def test_hypotheses_example_6_2(tree_6_2):
    a = analyze(tree_6_2)
    assert a.h2.holds
    # no sibling sits strictly above the sure-win value 2, and no healthy
    # sibling sits weakly above it either
    assert not a.h3.holds
    assert not a.h1.holds
    assert a.h4.holds and a.h5.holds
    assert a.l_ae.holds


def test_hypotheses_l_failure(tree_lfail):
    a = analyze(tree_lfail)
    assert not a.h2.holds
    assert not a.h3.holds
    assert not a.h4.holds
    assert not a.l_ae.holds
    assert any("escape" in w or "not contained" in w for w in a.l_ae.witnesses)


def test_h2_fails_for_root_type_ii():
    t = TrajectoryTree(0, 1)
    t.add_child(t.root, 1, "a")
    t.add_child(t.root, 2, "b")
    a = analyze(t)
    assert not a.h2.holds
    assert "time 0" in a.h2.witnesses[0]


def test_an_attained_zero_increment_straddles():
    # the only kept move at or below 0 is z's exact 0: H2 (around the
    # sure-win m) and H4 (at the good root) both hold
    t = TrajectoryTree(0, 2, "r")
    for nid, inc, moves in (("z", 0, (1, -1)), ("p", 1, (1, -1)), ("m", -1, (1, 2))):
        t.add_child("r", inc, nid)
        for k, move in enumerate(moves):
            t.add_child(nid, move, f"{nid}{k}")
    a = analyze(t)
    assert a.node_class["m"] is NodeClass.ARBITRAGE_II and not a.good["m"]
    assert a.h2.holds and a.h4.holds


def test_a_family_limit_at_zero_straddles():
    # example 6.2 mirrored: the sure-win d is the only move down, and the
    # members' increments 1/n reach 0 only in the limit
    t = TrajectoryTree(0, 2, "r")
    t.add_child("r", -1, "d")
    t.add_child("d", -1, "d0")
    t.add_child("d", -2, "d1")
    t.add_family("r", Poly.parse("0,1"), 1)
    a = analyze(t)
    assert a.l_holds["r"] and not a.l_holds["d"]
    assert a.h2.holds


def test_h1_counterexample_explicit():
    # only sibling at-or-above the failing child is the failing child itself
    t = TrajectoryTree(0, 2)
    t.add_child(t.root, 1, "up")
    t.add_child(t.root, -1, "dn")
    t.add_child(t.root, 0, "z")
    t.add_child("up", 1, "upa")
    t.add_child("up", 2, "upb")  # 'up' is sure-win at time 1
    t.add_child("dn", 0, "dna")
    t.add_child("z", 0, "za")
    a = analyze(t)
    assert a.node_class["up"] is NodeClass.ARBITRAGE_II
    assert a.l_holds[t.root]  # the constant continuation keeps the root healthy
    assert not a.h1.holds
    assert "up" in a.h1.witnesses[0]


def test_remark_variant_analysis(tree_remark):
    a = analyze(tree_remark)
    assert a.node_class["u"] is NodeClass.ARBITRAGE_II
    assert a.l_ae.holds
    assert a.h2.holds  # the zero-increment sibling provides both sides


def test_incomplete_variant_classification(tree_incomplete):
    a = analyze(tree_incomplete)
    assert a.node_class["r"] is NodeClass.UP_DOWN
    for nid in ("a1", "a2", "a3"):
        assert a.node_class[nid] is NodeClass.ARBITRAGE_I
    for nid in ("b2", "b3", "c3"):
        assert a.node_class[nid] is NodeClass.FLAT
    assert all(a.l_holds.values())
    assert a.l_ae.holds
    # jump cylinders are null, the stay-flat continuation is not
    assert a.null_cover.covers_path(tree_incomplete, "b2")
    assert not a.null_cover.covers_path(tree_incomplete, "a4")


def test_good_nodes_match_enumeration(tree_6_2, tree_lfail, tree_remark, tree_incomplete):
    for tree in (tree_6_2, tree_lfail, tree_remark, tree_incomplete, binary_tree()):
        a = analyze(tree)
        assert a.good == good_nodes_by_enumeration(tree)


def test_good_vs_l_on_l_failure(tree_lfail):
    a = analyze(tree_lfail)
    # the value-2 node is good (its down continuation survives) yet fails
    # continuity; exactly why the good-node hypotheses cannot hold here
    assert a.good["u"] and not a.l_holds["u"]


def test_single_trajectory_l_ae():
    t = TrajectoryTree(5, 0)
    a = analyze(t)
    assert a.l_ae.holds and a.null_cover.is_empty()


def test_nested_failure_through_flat_node():
    # flat node whose only continuation runs into a sure-win node
    t = TrajectoryTree(0, 3)
    t.add_child(t.root, 1, "x")
    t.add_child(t.root, -1, "y")
    t.add_child("x", 0, "x1")
    t.add_child("x1", 1, "x2a")
    t.add_child("x1", 2, "x2b")
    t.add_child("y", 0, "y1")
    t.add_child("y1", 0, "y2")
    a = analyze(t)
    assert a.node_class["x1"] is NodeClass.ARBITRAGE_II
    assert a.node_class["x"] is NodeClass.FLAT
    assert not a.l_holds["x"]  # failure propagates through the flat step
    assert a.fully_covered("x")
    # with the up direction failing, shorting at the root is a sure win off a
    # null set: continuity fails at the root and the a.e. assumption with it
    assert not a.l_holds[t.root]
    assert not a.l_ae.holds
    # a constant sibling at the root restores both
    t2 = TrajectoryTree(0, 3)
    t2.add_child(t2.root, 1, "x")
    t2.add_child(t2.root, -1, "y")
    t2.add_child(t2.root, 0, "z")
    t2.add_child("x", 0, "x1")
    t2.add_child("x1", 1, "x2a")
    t2.add_child("x1", 2, "x2b")
    t2.add_child("y", 0, "y1")
    t2.add_child("y1", 0, "y2")
    t2.add_child("z", 0, "z1")
    t2.add_child("z1", 0, "z2")
    a2 = analyze(t2)
    assert not a2.l_holds["x"] and a2.l_holds[t2.root]
    assert a2.l_ae.holds


def test_event_set_algebra(tree_6_2):
    ev = EventSet([NodeAtom("u"), FamilyAtom("down", ((3, 5),))])
    assert ev.covers_path(tree_6_2, "u")
    assert ev.covers_member(tree_6_2, "uptail", 7)  # below the shadow node
    assert ev.covers_member(tree_6_2, "down", 4)
    assert not ev.covers_member(tree_6_2, "down", 6)
    assert ev.uncovered_member_ranges(tree_6_2, "down") == [(1, 2), (6, None)]
    ok, _ = ev.subset_of(tree_6_2, null_cover(tree_6_2))
    assert not ok  # down members are not null
    ok, _ = EventSet([NodeAtom("u")]).subset_of(tree_6_2, null_cover(tree_6_2))
    assert ok
    # the one-pass covered set agrees with covers_path node by node
    t = binary_tree(3)
    deep = EventSet([NodeAtom("rootu"), NodeAtom("rootdud")])
    covered = {nid for nid in t.nodes if deep.covers_path(t, nid)}
    assert len(covered) == 8 and deep.covered_nodes(t) == covered


def test_family_atoms_alone_fully_cover_a_family_only_node(tree_6_2):
    # u's only branches are uptail's members: covering them all covers u
    n0 = tree_6_2.family("uptail").n0
    ev = EventSet([FamilyAtom("uptail", ((n0, None),))])
    assert ev.covered_nodes(tree_6_2) == set()
    assert ev.fully_covered_nodes(tree_6_2) == {"u"}


def test_an_empty_event_set_reads_no_node(monkeypatch):
    # nothing is covered without an atom: neither walk looks a node up
    tree = random_arbitrage_free_tree(random.Random(5))
    lookups = []
    for name in ("node", "nodes_at_time", "path_to"):
        real = getattr(TrajectoryTree, name)

        def counted(self, *args, _real=real, _name=name):
            lookups.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(TrajectoryTree, name, counted)
    ev = EventSet()
    assert ev.covered_nodes(tree) == set() and ev.fully_covered_nodes(tree) == set()
    assert lookups == []
    # the count sees the walks that a node atom does need
    assert EventSet([NodeAtom(tree.root)]).covered_nodes(tree) == set(tree.nodes)
    assert lookups.count("node") == len(tree.nodes)


def test_report_renders_deterministically(tree_6_2):
    a = analyze(tree_6_2)
    r1, r2 = render_report(a), render_report(a)
    assert r1 == r2
    assert "class=arbitrage-II" in r1
    assert "assumption L-a.e.: holds" in r1


def _random_event(rng, tree):
    """Node atoms on a few nodes and member windows on some families."""
    atoms = [NodeAtom(nid) for nid in sorted(tree.nodes) if rng.random() < 0.25]
    for fid, fam in sorted(tree.families.items()):
        roll = rng.random()
        if roll < 0.3:
            atoms.append(FamilyAtom(fid, ((fam.n0, None),)))
        elif roll < 0.6:
            cut = fam.n0 + rng.randrange(3)
            atoms.append(FamilyAtom(fid, ((fam.n0, cut), (cut + rng.randrange(1, 3), None))))
    return EventSet(atoms)


@pytest.mark.parametrize("seed", range(40))
def test_fully_covered_nodes_equals_the_subtree_walk(seed):
    rng = random.Random(seed)
    make = (random_arbitrage_free_tree, random_family_tree, random_h3_tree)[seed % 3]
    tree = make(rng)
    analysis = analyze(tree)
    for ev in (analysis.null_cover, _random_event(rng, tree), _random_event(rng, tree)):
        walked = {
            nid for nid in tree.nodes
            if ev.covers_path(tree, nid) or _all_descendants_covered(tree, nid, ev)
        }
        assert ev.fully_covered_nodes(tree) == walked
        if ev is analysis.null_cover:
            assert {nid for nid in tree.nodes if analysis.fully_covered(nid)} == walked
        # a cylinder is contained exactly when its node is fully covered
        for nid in tree.nodes:
            ok, _ = EventSet([NodeAtom(nid)]).subset_of(tree, ev)
            assert ok == (nid in walked)
