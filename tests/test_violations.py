"""One walk, ``pricing.violations``, finds where a process climbs.  The
supermartingale check, the decomposition's exception set and the member test
of ``decomposition_feasible`` all read it, and each answers as the loop it
replaced (kept in ``reference_violations``) on the four generated tree kinds,
for supermartingales and for random processes."""

import random
from fractions import Fraction as Q

import pytest

import reference_violations as reference
from trajhedge.analysis import FamilyAtom, NodeAtom
from trajhedge.decomposition import _exception_set, decomposition_feasible
from trajhedge.fileformat import parse_process, parse_tree
from trajhedge.model import ProcessSequence
from trajhedge.pricing import StepMemo, check_supermartingale, member_violations, violations

from gen import (
    random_arbitrage_free_tree,
    random_family_tree,
    random_h3_tree,
    random_no_measure_tree,
    random_payoff,
    random_supermartingale,
)

MAKERS = [random_arbitrage_free_tree, random_h3_tree, random_family_tree,
          random_no_measure_tree]


def processes(make, count=8):
    rng = random.Random(f"violations:{make.__name__}")
    for _ in range(count):
        tree = make(rng)
        yield tree, random_supermartingale(rng, tree)
        specs = [random_payoff(rng, tree, j) for j in range(tree.horizon + 1)]
        yield tree, ProcessSequence(tree, specs)


@pytest.mark.parametrize("make", MAKERS)
def test_the_walk_answers_as_the_loops_it_replaced(make):
    verdicts = set()
    for tree, f in processes(make):
        got, want = check_supermartingale(tree, f), reference.check_supermartingale(tree, f)
        verdicts.add(got[0])
        assert got[0] == want[0]
        if got[1] is not None and got[1].startswith("family:"):
            # the first escaped member, where the loop named the grid maximum
            (fam, n), (ref_fam, ref_n) = got[1].split(":n="), want[1].split(":n=")
            assert fam == ref_fam and int(n) <= int(ref_n)
        else:
            assert got == want
        atoms = list(violations(f, StepMemo(f)))
        nodes = {a.node for a in atoms if isinstance(a, NodeAtom)}
        assert nodes == reference._violation_nodes(tree, f, StepMemo(f))
        assert _exception_set(f, StepMemo(f)).atoms_sorted() == \
            reference._exception_set(tree, f, StepMemo(f)).atoms_sorted()
        for slack in (Q(0), Q(1, 10)):
            deltas = [slack] * tree.horizon
            assert decomposition_feasible(tree, f, deltas) == \
                reference.decomposition_feasible(tree, f, deltas)
    assert verdicts == {True, False}


CLIMB = """\
process horizon=2
payoff maturity=0
at r = 0
payoff maturity=1
at u = 0
at-family down poly=0
payoff maturity=2
at-family uptail poly=0
at-family down poly={}
"""


def test_a_family_witness_names_the_first_escaped_member(tree_6_2):
    # f_2 - f_1 = t - 2t^2 on the down members: positive from n = 3 on, and
    # largest (1/8) at n = 4, the member the replaced loop named
    f = parse_process(CLIMB.format("0,1,-2"), tree_6_2)
    assert list(violations(f, StepMemo(f))) == [FamilyAtom("down", ((3, None),))]
    assert member_violations(f, "down", 1) == [(3, None)]
    assert member_violations(f, "down", 1, Q(1, 9)) == [(4, 5)]
    assert member_violations(f, "down", 1, Q(1, 8)) == []
    assert member_violations(f, "down", 0) == []  # not yet born at time 1
    assert check_supermartingale(tree_6_2, f) == (False, "family:down:n=3")
    assert reference.check_supermartingale(tree_6_2, f) == (False, "family:down:n=4")
    assert decomposition_feasible(tree_6_2, f, [Q(1, 10), Q(1, 9)]) == (False, "family:down")
    assert decomposition_feasible(tree_6_2, f, [Q(1, 10), Q(1, 8)]) == (True, None)
    # (t - 1/2)(t - 1/5) climbs on two windows: n = 1, and n >= 6
    f = parse_process(CLIMB.format("1/10,-7/10,1"), tree_6_2)
    assert member_violations(f, "down", 1) == [(1, 1), (6, None)]
    assert check_supermartingale(tree_6_2, f) == (False, "family:down:n=1")


HARVEST = """\
tree s0=0 horizon=2
node r t=0
child r inc=1 -> a
child a inc=1 -> a1
child a inc=-1 -> a2
family r poly=0,1,-1 n0=1 id=f
"""


@pytest.mark.parametrize(
    "poly,verdict",
    [("0,1,-1", (True, None)), ("0,1", (False, "family:f:n=1"))],
    ids=["held", "escaped"],
)
def test_the_null_cover_excuses_only_its_own_atoms(poly, verdict):
    # every increment at r is >= 0, so the null cover holds node a and the
    # members n >= 2 of f; a climb of f_2 over f_1 on those members is in the
    # walk and in the exception set, but only one at n = 1 is a violation
    tree = parse_tree(HARVEST)
    f = parse_process(
        "process horizon=2\npayoff maturity=0\nat r = 10\npayoff maturity=1\n"
        "at a = 0\nat-family f poly=0\npayoff maturity=2\nat a1 = 0\nat a2 = 0\n"
        f"at-family f poly={poly}\n",
        tree,
    )
    start = 2 if poly == "0,1,-1" else 1
    assert list(violations(f, StepMemo(f))) == [FamilyAtom("f", ((start, None),))]
    assert check_supermartingale(tree, f) == verdict
    assert check_supermartingale(tree, f) == reference.check_supermartingale(tree, f)
    assert decomposition_feasible(tree, f, [0, 0]) == (verdict[0], verdict[1] and "family:f")
    assert _exception_set(f, StepMemo(f)).atoms_sorted() == \
        ["node a", f"family f {start}-inf,2-inf"]
