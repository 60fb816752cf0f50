"""Every caller of the member-range algebra (``poly.split_ranges`` and
``model.overlay_pieces``) returns exactly the piece tuples of the loop it
replaced, boundaries included, on generated inputs: ranges that overlap,
nest, touch end to end, run unbounded or start below ``n0``, and the member
windows of ``gen.py`` families.  The loops are kept in ``reference_pieces``."""

import operator
import random
from fractions import Fraction as Q

import pytest

import reference_pieces as reference
from trajhedge.analysis import EventSet, FamilyAtom, NodeAtom, analyze
from trajhedge.decomposition import _mask_exceptions, _member_violation_ranges
from trajhedge.model import (
    PayoffSpec,
    ProcessSequence,
    add_payoffs,
    first_time_value_geq,
    member_diff,
    nonneg_windows,
    overlay_pieces,
)
from trajhedge.poly import Poly
from trajhedge.pricing import indicator_payoff

from gen import FAMILY_POOL, VAL_POOL, random_family_tree

SEEDS = range(40)
POLYS = [Poly.parse(s) for s in ("0", "1", "-1/2", "0,1", "1,-2", "0,0,-1", "2,1/2")]
# sign changes between members, zero members, and the gen.py family shapes
SIGN_POLYS = FAMILY_POOL + [Poly.parse(s) for s in ("1,-5,6", "-1,7,-12", "1/4,-1", "0")]


def random_range(rng, n0):
    lo = rng.randint(max(1, n0 - 2), n0 + 8)  # may start below n0
    return lo, None if rng.random() < 0.3 else lo + rng.randint(0, 6)


def random_cuts(rng, n0):
    """Ranges that overlap, nest, touch end to end or run unbounded."""
    cuts = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if cuts and roll < 0.25:
            lo, hi = rng.choice(cuts)
            if hi is not None:  # the next range starts where this one ends
                cuts.append((hi + 1, None if roll < 0.05 else hi + 1 + rng.randint(0, 4)))
                continue
        if cuts and roll < 0.45:  # nested in an earlier range
            lo, hi = rng.choice(cuts)
            top = lo + 10 if hi is None else hi
            a = rng.randint(lo, top)
            cuts.append((a, rng.randint(a, top)))
            continue
        cuts.append(random_range(rng, n0))
    return cuts


def family_windows(tree, fid):
    """Member windows the library derives for a family: its null-cover
    windows and the windows where its members reach each value of VAL_POOL."""
    windows = list(analyze(tree).null_cover.member_ranges(fid))
    for threshold in VAL_POOL:
        windows += [(lo, hi) for _, lo, hi in
                    first_time_value_geq(tree, threshold).member_windows(fid)]
    return windows


def sample(rng, windows, k):
    return rng.sample(windows, min(k, len(windows)))


def random_tiling(rng, n0):
    """Pieces covering n0, n0 + 1, ... without a gap, the last unbounded."""
    starts = sorted({n0, *rng.sample(range(n0 + 1, n0 + 12), rng.randint(0, 4))})
    ends = [s - 1 for s in starts[1:]] + [None]
    return tuple((lo, hi, rng.choice(POLYS)) for lo, hi in zip(starts, ends))


def random_tiled_payoff(rng, tree, j):
    return PayoffSpec(
        j,
        {nd.nid: rng.choice(VAL_POOL) for nd in tree.nodes_at_time(j)},
        {fam.fid: random_tiling(rng, fam.n0) for fam in tree.families_born_by(j)},
    )


def trees():
    for seed in SEEDS:
        rng = random.Random(seed)
        tree = random_family_tree(rng, depth=rng.choice((2, 3)))
        if tree.families:
            yield rng, tree


def test_generated_trees_have_families():
    assert len(list(trees())) >= len(SEEDS) // 2


def test_add_payoffs_matches_reference():
    for rng, tree in trees():
        f, g = (random_tiled_payoff(rng, tree, tree.horizon) for _ in range(2))
        assert add_payoffs(tree, f, g) == reference.add_payoffs(tree, f, g)


def test_member_diff_and_violation_ranges_match_reference():
    for rng, tree in trees():
        f = ProcessSequence(
            tree, [random_tiled_payoff(rng, tree, j) for j in range(tree.horizon + 1)]
        )
        for fam in tree.families.values():
            windows = [(fam.n0, None), *random_cuts(rng, fam.n0), *family_windows(tree, fam.fid)]
            for j in range(tree.horizon):
                for lo, hi in windows:
                    got = member_diff(f, fam.fid, j, lo, hi)
                    assert got == reference.member_diff(f, fam.fid, j, lo, hi)
                if tree.family_birth(fam.fid) <= j:
                    assert _member_violation_ranges(tree, f, fam.fid, j) == \
                        reference._member_violation_ranges(tree, f, fam.fid, j)


@pytest.mark.parametrize("n0", [1, 2, 3, 5])
def test_nonneg_windows_match_reference(n0):
    for poly in SIGN_POLYS:
        for shift in (Q(0), Q(-1, 3), Q(1, 2), Q(-1)):
            p = poly.shift(shift)
            assert nonneg_windows(p, n0, None) == reference._nonneg_windows(p, n0)


def test_compensator_sum_matches_reference():
    rng = random.Random(7)
    for _ in range(200):
        n0 = rng.randint(1, 4)
        acc, inc = random_tiling(rng, n0), random_tiling(rng, n0)
        assert sorted(overlay_pieces(acc, inc, operator.add)) == \
            reference._add_increments(acc, inc)


def test_mask_exceptions_matches_reference():
    for rng, tree in trees():
        for fam in tree.families.values():
            cuts = random_cuts(rng, fam.n0) + sample(rng, family_windows(tree, fam.fid), 2)
            ev = EventSet([FamilyAtom(fam.fid, tuple(cuts))])
            for covered in (set(), {fam.parent}):
                for lo, hi, poly in random_tiling(rng, fam.n0):
                    args = (tree, ev, covered, fam.fid, lo, hi, poly)
                    assert _mask_exceptions(*args) == reference._mask_exceptions(*args)


def test_indicator_payoff_matches_reference():
    compared = tied = 0
    for rng, tree in trees():
        atoms = [NodeAtom(rng.choice(sorted(tree.nodes)))] if rng.random() < 0.3 else []
        for fam in tree.families.values():
            cuts = random_cuts(rng, fam.n0) + sample(rng, family_windows(tree, fam.fid), 1)
            atoms.append(FamilyAtom(fam.fid, tuple(cuts)))
        ev = EventSet(atoms)
        got = indicator_payoff(tree, ev)
        try:
            expected = reference.indicator_payoff(tree, ev)
        except TypeError:
            # the reference sorts the windows again, and fails on two with one
            # start of which one is unbounded; check the indicator member by member
            tied += 1
            for fam in tree.families.values():
                for n in range(fam.n0, fam.n0 + 30):
                    covered = ev.covers_member(tree, fam.fid, n)
                    assert got.value_at_member(fam.fid, n) == int(covered)
            continue
        compared += 1
        assert got == expected
    assert compared >= 10 and tied >= 1
