"""Seeded random instance generators for the property suites."""

import random
from fractions import Fraction as Q

from trajhedge.analysis import analyze
from trajhedge.model import MINUS_INF, PayoffSpec, ProcessSequence, TrajectoryTree
from trajhedge.poly import Poly
from trajhedge.pricing import one_step_superhedge

INC_POOL = [Q(-2), Q(-1), Q(-1, 2), Q(-1, 3), Q(1, 3), Q(1, 2), Q(1), Q(2)]
VAL_POOL = [Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)]
FAMILY_POOL = [
    Poly.parse("0,1"),       # t          (positive, limit 0)
    Poly.parse("0,-1"),      # -t
    Poly.parse("0,0,1"),     # t^2
    Poly.parse("0,0,-1"),    # -t^2
    Poly.parse("0,1,-1"),    # t - t^2    (zero at n=1, then positive)
    Poly.parse("1,-2"),      # 1 - 2t     (sign change at n=2)
]


def random_arbitrage_free_tree(rng: random.Random, depth=3, branching=3,
                               with_flats=True) -> TrajectoryTree:
    """Every internal node up-down (or flat chain), no arbitrage anywhere."""
    t = TrajectoryTree(rng.choice(VAL_POOL), depth)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def grow(nid: str, time: int) -> None:
        if time == depth:
            return
        if with_flats and rng.random() < 0.15:
            child = t.add_child(nid, 0, fresh())
            grow(child, time + 1)
            return
        k = rng.randint(2, branching)
        incs = rng.sample([i for i in INC_POOL if i > 0], 1)
        incs += rng.sample([i for i in INC_POOL if i < 0], 1)
        extra = [i for i in INC_POOL + [Q(0)] if i not in incs]
        incs += rng.sample(extra, k - 2)
        for inc in incs:
            child = t.add_child(nid, inc, fresh())
            grow(child, time + 1)

    grow(t.root, 0)
    t.validate()
    return t


def random_h3_tree(rng: random.Random, depth=3) -> TrajectoryTree:
    """Plants sure-win nodes with strict straddling healthy siblings (H3)."""
    t = TrajectoryTree(Q(1), depth)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def flat_chain(nid: str, time: int) -> None:
        while time < depth:
            nid = t.add_child(nid, 0, fresh())
            time += 1

    def grow(nid: str, time: int, allow_plant: bool) -> None:
        if time == depth:
            return
        plant = allow_plant and time + 1 < depth and rng.random() < 0.5
        if plant:
            # sure-win child strictly straddled by healthy flat siblings
            mid = t.add_child(nid, Q(1, 2), fresh())
            a = t.add_child(mid, Q(1, 4), fresh())
            b = t.add_child(mid, Q(1, 8), fresh())
            flat_chain(a, time + 2)
            flat_chain(b, time + 2)
            hi = t.add_child(nid, Q(1), fresh())
            lo = t.add_child(nid, Q(-1), fresh())
            flat_chain(hi, time + 1)
            flat_chain(lo, time + 1)
            return
        for inc in (Q(1), Q(-1)):
            child = t.add_child(nid, inc, fresh())
            grow(child, time + 1, allow_plant)
        if rng.random() < 0.4:
            child = t.add_child(nid, 0, fresh())
            grow(child, time + 1, False)

    grow(t.root, 0, True)
    t.validate()
    return t


def random_family_tree(rng: random.Random, depth=2) -> TrajectoryTree:
    """Arbitrage-free tree with one or two countable families attached."""
    t = TrajectoryTree(Q(1), depth)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def grow(nid: str, time: int, budget: list) -> None:
        if time == depth:
            return
        incs = [Q(1), Q(-1)]
        for inc in incs:
            child = t.add_child(nid, inc, fresh())
            grow(child, time + 1, budget)
        if budget[0] > 0 and not t.node(nid).families and rng.random() < 0.6:
            poly = rng.choice(FAMILY_POOL)
            # n0 >= 2 keeps member increments strictly inside (-1, 1), away
            # from the explicit +-1; every pool polynomial is monotone there
            # and a node gets at most one family, so increments stay distinct
            t.add_family(nid, poly, rng.choice((2, 3)))
            budget[0] -= 1

    grow(t.root, 0, [2])
    t.validate()
    return t


def random_no_measure_tree(rng: random.Random) -> TrajectoryTree:
    """Flagship-shaped model: one sure-win branch, one-signed remainder.

    Avoiding the sure-win branch strands any candidate measure on strictly
    negative moves, so the explicit reduction has no martingale measure while
    the near-zero family keeps the full tree inside the H2 regime.
    """
    t = TrajectoryTree(rng.choice([Q(1), Q(2)]), 2)
    up = rng.choice([Q(1, 2), Q(1), Q(2)])
    u = t.add_child(t.root, up, "u")
    if rng.random() < 0.5:
        t.add_family(u, rng.choice([Poly.parse("0,1"), Poly.parse("0,1/2")]),
                     rng.choice((1, 2)), "uptail")
    else:
        a = t.add_child(u, rng.choice([Q(1, 3), Q(1, 2)]), "ua")
        b = t.add_child(u, rng.choice([Q(1), Q(2)]), "ub")
    down_poly = rng.choice(
        [Poly.parse("0,0,-1"), Poly.parse("0,-1"), Poly.parse("0,0,-1/2")]
    )
    t.add_family(t.root, down_poly, rng.choice((1, 2, 3)), "down")
    t.validate()
    return t


def random_payoff(rng: random.Random, tree: TrajectoryTree, maturity=None,
                  nonneg=False) -> PayoffSpec:
    maturity = tree.horizon if maturity is None else maturity
    pool = [v for v in VAL_POOL if v >= 0] if nonneg else VAL_POOL + [Q(-1), Q(-2)]
    node_values = {
        nd.nid: rng.choice(pool) for nd in tree.nodes_at_time(maturity)
    }
    fam_values = {}
    for fam in tree.families_born_by(maturity):
        base = rng.choice(pool)
        slope = rng.choice([Q(0), Q(1), Q(-1), Q(2)])
        if nonneg and slope < 0:
            slope = Q(0)
        fam_values[fam.fid] = ((fam.n0, None, Poly([base, slope])),)
    return PayoffSpec(maturity, node_values, fam_values)


def random_supermartingale(rng: random.Random, tree: TrajectoryTree,
                           nonneg=False) -> ProcessSequence:
    """Backward relaxation: running value = one-step price plus a slack."""
    analysis = analyze(tree)
    T = tree.horizon
    specs: list = [None] * (T + 1)
    specs[T] = random_payoff(rng, tree, T, nonneg=nonneg)
    slack_pool = [Q(0), Q(1, 4), Q(1, 2), Q(1)]
    for j in range(T - 1, -1, -1):
        node_values = {}
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf:
                node_values[nd.nid] = rng.choice(
                    [v for v in VAL_POOL if not nonneg or v >= 0]
                )
                continue
            child_values = {}
            for _, child in nd.children:
                if analysis.l_fails(child):
                    child_values[child] = MINUS_INF
                else:
                    child_values[child] = specs[j + 1].node_values[child]
            pieces = {
                fid: specs[j + 1].family_values[fid] for fid in nd.families
            }
            step = one_step_superhedge(tree, nd.nid, child_values, pieces, analysis)
            if step.value == MINUS_INF:
                base = Q(0)
            else:
                base = step.value
            if nonneg:
                base = max(base, Q(0))
            node_values[nd.nid] = base + rng.choice(slack_pool)
        fam_values = {}
        for fam in tree.families_born_by(j):
            slack = rng.choice(slack_pool)
            fam_values[fam.fid] = tuple(
                (lo, hi, poly.shift(slack))
                for lo, hi, poly in specs[j + 1].family_values[fam.fid]
            )
        specs[j] = PayoffSpec(j, node_values, fam_values)
    return ProcessSequence(tree, specs)
