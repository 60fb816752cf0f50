"""Trajectory trees, payoffs, hedges, stopping times and simple strategies.

A trajectory set is stored as a finite rooted tree with a common horizon T:
every explicit path has exactly T edges and is constant afterwards.  A node
may additionally carry *family* children, each denoting the countable branch
set with increments ``p(1/n)`` for integer ``n >= n0`` followed by constant
continuation up to the horizon.  All arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .poly import (
    Poly,
    grid_summary,
    rat,
    rat_str,
    root_integer_neighbors,
)

MINUS_INF = float("-inf")
PLUS_INF = float("inf")

Value = Union[Fraction, float]  # float only ever holds +-inf markers
NRange = tuple[int, Optional[int]]


class ModelError(ValueError):
    """Invariant violation in a tree, payoff or process description."""


# ---------------------------------------------------------------------------
# tree structure


@dataclass(frozen=True)
class Family:
    """Countable branch bundle: increments p(1/n), n >= n0, then constant."""

    fid: str
    parent: str
    poly: Poly
    n0: int

    def increment(self, n: int) -> Fraction:
        return self.poly.at_index(n)


@dataclass
class Node:
    nid: str
    time: int
    value: Fraction
    parent: Optional[str] = None
    inc_from_parent: Fraction = Fraction(0)
    children: list[tuple[Fraction, str]] = field(default_factory=list)
    families: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children and not self.families


class TrajectoryTree:
    """Validated trajectory set with explicit nodes and family bundles."""

    def __init__(self, root_value, horizon: int, root_id: str = "root"):
        if horizon < 0:
            raise ModelError("horizon must be >= 0")
        self.root_value = rat(root_value)
        self.horizon = int(horizon)
        self.root = root_id
        self.nodes: dict[str, Node] = {
            root_id: Node(root_id, 0, self.root_value)
        }
        self.families: dict[str, Family] = {}
        self._analysis_cache = None

    # -- construction -------------------------------------------------------
    def add_child(self, parent: str, inc, child_id: str) -> str:
        self._touch()
        p = self._node(parent)
        inc = rat(inc)
        if child_id in self.nodes:
            raise ModelError(f"duplicate node id {child_id!r}")
        if p.time >= self.horizon:
            raise ModelError(f"node {parent!r} at the horizon cannot branch")
        self.nodes[child_id] = Node(
            child_id, p.time + 1, p.value + inc, parent=parent, inc_from_parent=inc
        )
        p.children.append((inc, child_id))
        return child_id

    def add_family(self, parent: str, poly: Poly, n0: int, fid: Optional[str] = None) -> str:
        self._touch()
        p = self._node(parent)
        if p.time >= self.horizon:
            raise ModelError(f"node {parent!r} at the horizon cannot branch")
        if n0 < 1:
            raise ModelError("family start index must be >= 1")
        if poly.degree > 4:
            raise ModelError("family polynomial degree exceeds 4")
        if poly.is_constant():
            raise ModelError(
                f"family at {parent!r} has a constant increment polynomial; "
                "its members would coincide"
            )
        fid = fid or f"{parent}.f{len(p.families)}"
        if fid in self.families:
            raise ModelError(f"duplicate family id {fid!r}")
        self.families[fid] = Family(fid, parent, poly, n0)
        p.families.append(fid)
        return fid

    def _touch(self):
        self._analysis_cache = None

    # -- lookups -------------------------------------------------------------
    def _node(self, nid: str) -> Node:
        try:
            return self.nodes[nid]
        except KeyError:
            raise ModelError(f"unknown node id {nid!r}") from None

    def node(self, nid: str) -> Node:
        return self._node(nid)

    def family(self, fid: str) -> Family:
        try:
            return self.families[fid]
        except KeyError:
            raise ModelError(f"unknown family id {fid!r}") from None

    def family_birth(self, fid: str) -> int:
        return self._node(self.family(fid).parent).time + 1

    def member_value(self, fid: str, n: int) -> Fraction:
        fam = self.family(fid)
        return self._node(fam.parent).value + fam.increment(n)

    def nodes_at_time(self, t: int) -> list[Node]:
        return sorted(
            (nd for nd in self.nodes.values() if nd.time == t), key=lambda nd: nd.nid
        )

    def internal_nodes(self) -> list[Node]:
        return sorted(
            (nd for nd in self.nodes.values() if not nd.is_leaf),
            key=lambda nd: (nd.time, nd.nid),
        )

    def families_born_by(self, t: int) -> list[Family]:
        return sorted(
            (f for f in self.families.values() if self.family_birth(f.fid) <= t),
            key=lambda f: f.fid,
        )

    def path_to(self, nid: str) -> list[str]:
        """Node ids from root to nid inclusive."""
        path = []
        cur: Optional[str] = nid
        while cur is not None:
            path.append(cur)
            cur = self._node(cur).parent
        return list(reversed(path))

    def ancestor_at(self, nid: str, t: int) -> str:
        path = self.path_to(nid)
        if t >= len(path):
            raise ModelError(f"node {nid!r} has no ancestor at time {t}")
        return path[t]

    def subtree(self, nid: str) -> list[str]:
        out, stack = [], [nid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(c for _, c in self._node(cur).children)
        return sorted(out, key=lambda i: (self.nodes[i].time, i))

    def terminal_classes(self) -> list[Union[str, tuple[str, None]]]:
        """Explicit leaves plus one marker per family (whole member range)."""
        leaves = [nd.nid for nd in self.nodes.values() if nd.is_leaf]
        fams = [(fid, None) for fid in self.families]
        return sorted(leaves) + sorted(fams)

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise ModelError on violation."""
        for nd in self.nodes.values():
            if nd.is_leaf and nd.time != self.horizon:
                raise ModelError(
                    f"node {nd.nid!r} at time {nd.time} has no children but the "
                    f"horizon is {self.horizon}"
                )
            self._check_child_distinctness(nd)
        # path consistency: value = root + sum of increments
        for nd in self.nodes.values():
            if nd.parent is not None:
                p = self._node(nd.parent)
                if nd.value != p.value + nd.inc_from_parent:
                    raise ModelError(f"value inconsistency at {nd.nid!r}")
                if nd.time != p.time + 1:
                    raise ModelError(f"time inconsistency at {nd.nid!r}")

    def _check_child_distinctness(self, nd: Node) -> None:
        incs = [inc for inc, _ in nd.children]
        if len(set(incs)) != len(incs):
            raise ModelError(f"duplicate increment at node {nd.nid!r}")
        fam_objs = [self.families[f] for f in nd.families]
        for e in incs:
            for fam in fam_objs:
                diff = fam.poly.shift(-e)
                hits = [
                    n
                    for n in root_integer_neighbors(diff.reversed_in_n(), fam.n0, None)
                    if fam.increment(n) == e
                ]
                if hits:
                    raise ModelError(
                        f"duplicate increment at node {nd.nid!r}: explicit {rat_str(e)} "
                        f"collides with member n={hits[0]} of family {fam.fid!r}"
                    )
        for fam in fam_objs:
            self._check_family_injective(nd, fam)
        for i, fa in enumerate(fam_objs):
            for fb in fam_objs[i + 1 :]:
                self._check_family_pair(nd, fa, fb)

    def _check_family_injective(self, nd: Node, fam: Family) -> None:
        s = grid_summary(fam.poly, fam.n0, None)
        probe = sorted({s.max_arg, s.min_arg, fam.n0, *s.zeros})
        for n in probe:
            v = fam.increment(n)
            diff = fam.poly.shift(-v)
            hits = [
                m
                for m in root_integer_neighbors(diff.reversed_in_n(), fam.n0, None)
                if fam.increment(m) == v
            ]
            if len(hits) > 1:
                raise ModelError(
                    f"family {fam.fid!r} at node {nd.nid!r} repeats increment "
                    f"{rat_str(v)} at members n={hits[0]} and n={hits[1]}"
                )

    def _check_family_pair(self, nd: Node, fa: Family, fb: Family) -> None:
        # bounded collision probe; exotic overlapping families are rejected lazily
        for n in range(fa.n0, fa.n0 + 24):
            v = fa.increment(n)
            diff = fb.poly.shift(-v)
            if diff.is_zero():
                raise ModelError(f"families {fa.fid!r} and {fb.fid!r} overlap")
            hits = [
                m
                for m in root_integer_neighbors(diff.reversed_in_n(), fb.n0, None)
                if fb.increment(m) == v
            ]
            if hits:
                raise ModelError(
                    f"duplicate increment at node {nd.nid!r}: families {fa.fid!r} "
                    f"(n={n}) and {fb.fid!r} (n={hits[0]}) share {rat_str(v)}"
                )

    # -- misc -----------------------------------------------------------------
    def diagonal_closure_is_trivial(self) -> bool:
        """Eventual constancy makes diagonal limits collapse onto existing paths.

        Any initial-segment-consistent sequence of explicit paths is eventually
        a single path because branching stops at the horizon; the check just
        confirms the structural precondition (common horizon, validated tree).
        """
        self.validate()
        return all(
            nd.time <= self.horizon for nd in self.nodes.values()
        )


# ---------------------------------------------------------------------------
# payoffs and processes


Piece = tuple[int, Optional[int], Poly]


@dataclass
class PayoffSpec:
    """Finite-maturity claim: values per maturity-time node / family member."""

    maturity: int
    node_values: dict[str, Value]
    family_values: dict[str, tuple[Piece, ...]] = field(default_factory=dict)

    def value_at_node(self, nid: str) -> Value:
        return self.node_values[nid]

    def pieces(self, fid: str) -> tuple[Piece, ...]:
        return self.family_values[fid]

    def value_at_member(self, fid: str, n: int) -> Fraction:
        for lo, hi, poly in self.family_values[fid]:
            if n >= lo and (hi is None or n <= hi):
                return poly.at_index(n)
        raise ModelError(f"member n={n} of family {fid!r} not covered by payoff")

    def validate(self, tree: TrajectoryTree) -> None:
        if not 0 <= self.maturity <= tree.horizon:
            raise ModelError("payoff maturity outside [0, horizon]")
        for nd in tree.nodes_at_time(self.maturity):
            if nd.nid not in self.node_values:
                raise ModelError(f"payoff misses node {nd.nid!r} at maturity")
        for fam in tree.families_born_by(self.maturity):
            pieces = self.family_values.get(fam.fid)
            if not pieces:
                raise ModelError(f"payoff misses family {fam.fid!r}")
            cursor = fam.n0
            for lo, hi, _ in sorted(pieces):
                if lo != cursor:
                    raise ModelError(
                        f"payoff pieces for family {fam.fid!r} leave a gap at n={cursor}"
                    )
                if hi is None:
                    cursor = None
                    break
                cursor = hi + 1
            if cursor is not None:
                raise ModelError(f"payoff pieces for family {fam.fid!r} do not cover the tail")

    def is_finite(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.node_values.values())

    def is_nonnegative(self, tree: TrajectoryTree) -> bool:
        for v in self.node_values.values():
            if v == MINUS_INF or (isinstance(v, Fraction) and v < 0):
                return False
        for fid, pieces in self.family_values.items():
            for lo, hi, poly in pieces:
                if grid_summary(poly, lo, hi).has_neg:
                    return False
        return True

    def map_values(self, fn) -> "PayoffSpec":
        return PayoffSpec(
            self.maturity,
            {k: fn(v) for k, v in self.node_values.items()},
            {
                fid: tuple((lo, hi, fn(poly)) for lo, hi, poly in pieces)
                for fid, pieces in self.family_values.items()
            },
        )

    @staticmethod
    def constant(tree: TrajectoryTree, maturity: int, value) -> "PayoffSpec":
        value = rat(value)
        spec = PayoffSpec(
            maturity,
            {nd.nid: value for nd in tree.nodes_at_time(maturity)},
            {
                fam.fid: ((fam.n0, None, Poly.constant(value)),)
                for fam in tree.families_born_by(maturity)
            },
        )
        return spec


def add_payoffs(tree: TrajectoryTree, f: PayoffSpec, g: PayoffSpec) -> PayoffSpec:
    """f + g for equal maturities (family pieces refined to a common grid)."""
    if f.maturity != g.maturity:
        raise ModelError("payoff addition needs equal maturities")
    node_values: dict[str, Value] = {}
    for k in f.node_values:
        a, b = f.node_values[k], g.node_values[k]
        if a == MINUS_INF or b == MINUS_INF:
            node_values[k] = MINUS_INF
        else:
            node_values[k] = a + b
    fam_values: dict[str, tuple[Piece, ...]] = {}
    for fid in f.family_values:
        pieces: list[Piece] = []
        for lo_a, hi_a, pa in f.family_values[fid]:
            for lo_b, hi_b, pb in g.family_values[fid]:
                lo = max(lo_a, lo_b)
                hi = hi_a if hi_b is None else (hi_b if hi_a is None else min(hi_a, hi_b))
                if hi is not None and lo > hi:
                    continue
                pieces.append((lo, hi, pa + pb))
        fam_values[fid] = tuple(sorted(pieces))
    out = PayoffSpec(f.maturity, node_values, fam_values)
    out.validate(tree)
    return out


def scale_payoff(f: PayoffSpec, k) -> PayoffSpec:
    """k * f for a rational scalar k >= 0 (infinities scale by convention 0*inf=0)."""
    k = rat(k)

    def fn(v):
        if isinstance(v, Poly):
            return v.scale(k)
        if v == MINUS_INF:
            return Fraction(0) if k == 0 else MINUS_INF
        return k * v

    return f.map_values(fn)


def abs_payoff(tree: TrajectoryTree, f: PayoffSpec) -> PayoffSpec:
    """|f|, splitting family pieces at exact sign changes of the value grid."""
    node_values: dict[str, Value] = {}
    for k, v in f.node_values.items():
        if not isinstance(v, Fraction):
            raise ModelError("cannot take |f| of an infinite payoff")
        node_values[k] = abs(v)
    fam_values: dict[str, tuple[Piece, ...]] = {}
    for fid, pieces in f.family_values.items():
        out: list[Piece] = []
        for lo, hi, poly in pieces:
            for s_lo, s_hi, nonneg in _sign_segments(poly, lo, hi):
                out.append((s_lo, s_hi, poly if nonneg else -poly))
        fam_values[fid] = tuple(sorted(out))
    g = PayoffSpec(f.maturity, node_values, fam_values)
    g.validate(tree)
    return g


def _sign_segments(poly: Poly, lo: int, hi: Optional[int]):
    """Maximal runs of the grid where poly keeps a weak sign (>=0 or <=0)."""
    if poly.is_zero():
        return [(lo, hi, True)]
    marks = root_integer_neighbors(poly.reversed_in_n(), lo, hi)
    cut = sorted(set(marks) | {lo})
    segs = []
    for i, start in enumerate(cut):
        end = cut[i + 1] - 1 if i + 1 < len(cut) else hi
        if end is not None and end < start:
            continue
        s = grid_summary(poly, start, end)
        if not s.has_neg:
            segs.append((start, end, True))
        elif not s.has_pos:
            segs.append((start, end, False))
        else:
            # a candidate window still mixes signs: split pointwise
            if end is None:
                raise ModelError("unbounded tail cannot mix signs beyond candidates")
            for n in range(start, end + 1):
                segs.append((n, n, poly.at_index(n) >= 0))
    return _merge_segments(segs)


def _merge_segments(segs):
    merged = []
    for seg in segs:
        if merged and merged[-1][2] == seg[2] and merged[-1][1] is not None \
                and seg[0] == merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], seg[1], seg[2])
        else:
            merged.append(list(seg))
    return [tuple(s) for s in merged]


class ProcessSequence:
    """Non-anticipative sequence (f_j), one finite PayoffSpec per time j."""

    def __init__(self, tree: TrajectoryTree, specs: Sequence[PayoffSpec]):
        if len(specs) != tree.horizon + 1:
            raise ModelError("process needs one payoff per time 0..horizon")
        for j, spec in enumerate(specs):
            if spec.maturity != j:
                raise ModelError(f"process entry {j} has maturity {spec.maturity}")
            if not spec.is_finite():
                raise ModelError("process entries must be real-valued")
            spec.validate(tree)
        self.tree = tree
        self.specs = list(specs)

    def __getitem__(self, j: int) -> PayoffSpec:
        return self.specs[j]

    def __len__(self) -> int:
        return len(self.specs)

    def value_at_node(self, j: int, nid: str) -> Fraction:
        node = self.tree.node(nid)
        site = self.tree.ancestor_at(nid, j) if node.time >= j else None
        if site is None:
            raise ModelError("process value requested before the node exists")
        return self.specs[j].node_values[site]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# hedges, strategies, wealth


class HedgeSequence:
    """Non-anticipative positions: one rational per (time, explicit node).

    Positions inside family continuations multiply zero increments on this
    model class, so they never enter any wealth and are not stored.
    """

    def __init__(self, entries: Optional[dict[tuple[int, str], Fraction]] = None):
        self.entries: dict[tuple[int, str], Fraction] = {}
        for (t, nid), v in (entries or {}).items():
            self.entries[(t, nid)] = rat(v)

    def set(self, t: int, nid: str, value) -> None:
        self.entries[(t, nid)] = rat(value)

    def at(self, t: int, nid: str) -> Fraction:
        return self.entries.get((t, nid), Fraction(0))

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        return isinstance(other, HedgeSequence) and self.entries == other.entries


@dataclass
class SimpleStrategy:
    """Buy-and-hold combination: capital V plus hedge gains from start_time."""

    initial_capital: Fraction
    hedge: HedgeSequence
    start_time: int = 0
    start_node: Optional[str] = None  # default: the tree root

    def __post_init__(self):
        self.initial_capital = rat(self.initial_capital)


def wealth(tree: TrajectoryTree, strategy: SimpleStrategy, nid: str) -> Fraction:
    """Strategy wealth at an explicit node (exact)."""
    node = tree.node(nid)
    if node.time < strategy.start_time:
        raise ModelError(
            f"node {nid!r} at time {node.time} precedes strategy start "
            f"{strategy.start_time}"
        )
    path = tree.path_to(nid)
    start = strategy.start_node if strategy.start_node is not None else tree.root
    if start not in path:
        raise ModelError(f"node {nid!r} is not below strategy start node")
    acc = strategy.initial_capital
    for i in range(strategy.start_time, node.time):
        step = tree.node(path[i + 1])
        acc += strategy.hedge.at(i, path[i]) * step.inc_from_parent
    return acc


def wealth_on_member(
    tree: TrajectoryTree, strategy: SimpleStrategy, fid: str, upto_time: Optional[int] = None
) -> Poly:
    """Strategy wealth on family members as a polynomial in t = 1/n.

    Constant continuation makes the wealth constant from the member's birth
    on, so ``upto_time`` only needs to be >= birth (default: horizon).
    """
    fam = tree.family(fid)
    birth = tree.family_birth(fid)
    if upto_time is None:
        upto_time = tree.horizon
    base = wealth(tree, strategy, fam.parent)
    if upto_time < birth:
        return Poly.constant(base)
    h = strategy.hedge.at(birth - 1, fam.parent)
    return fam.poly.scale(h).shift(base)


# ---------------------------------------------------------------------------
# stopping times


@dataclass
class StoppingTime:
    """First-hit rule: stop at marked explicit nodes / family member windows."""

    node_marks: frozenset[str] = frozenset()
    family_marks: tuple[tuple[str, int, int, Optional[int]], ...] = ()
    # family mark = (fid, time, n_lo, n_hi); applies to members n in range

    def tau_at_node(self, tree: TrajectoryTree, nid: str) -> Optional[int]:
        """Stopping value along the explicit path to nid (None = not yet/never)."""
        for t, anc in enumerate(tree.path_to(nid)):
            if anc in self.node_marks:
                return t
        return None

    def tau_at_member(self, tree: TrajectoryTree, fid: str, n: int) -> Optional[int]:
        fam = tree.family(fid)
        t_par = self.tau_at_node(tree, fam.parent)
        candidates = [
            time
            for (f, time, lo, hi) in self.family_marks
            if f == fid and lo <= n and (hi is None or n <= hi)
        ]
        vals = [v for v in (t_par, min(candidates) if candidates else None) if v is not None]
        return min(vals) if vals else None

    def member_windows(self, fid: str):
        return sorted((t, lo, hi) for (f, t, lo, hi) in self.family_marks if f == fid)


def first_time_value_geq(tree: TrajectoryTree, threshold) -> StoppingTime:
    """tau = first time the price is >= threshold (a node-marked rule)."""
    threshold = rat(threshold)
    node_marks = {nd.nid for nd in tree.nodes.values() if nd.value >= threshold}
    fam_marks = []
    for fam in tree.families.values():
        birth = tree.family_birth(fam.fid)
        parent_val = tree.node(fam.parent).value
        # members with value >= threshold: exact integer windows
        shifted = fam.poly.shift(parent_val - threshold)
        for lo, hi in _nonneg_windows(shifted, fam.n0):
            fam_marks.append((fam.fid, birth, lo, hi))
    return StoppingTime(frozenset(node_marks), tuple(fam_marks))


def _nonneg_windows(poly: Poly, n0: int) -> list[NRange]:
    segs = _sign_segments(poly, n0, None)
    return [(lo, hi) for lo, hi, nonneg in segs if nonneg]


# ---------------------------------------------------------------------------
# process operations


def stopped_process(f: ProcessSequence, tau: StoppingTime) -> ProcessSequence:
    """(f_{tau ^ j}): freeze the sequence once the stopping rule fires."""
    tree = f.tree
    out: list[PayoffSpec] = []
    for j in range(tree.horizon + 1):
        node_values: dict[str, Value] = {}
        for nd in tree.nodes_at_time(j):
            t = tau.tau_at_node(tree, nd.nid)
            k = j if t is None else min(t, j)
            node_values[nd.nid] = f[k].node_values[tree.ancestor_at(nd.nid, k)]
        fam_values: dict[str, tuple[Piece, ...]] = {}
        for fam in tree.families_born_by(j):
            fid = fam.fid
            birth = tree.family_birth(fid)
            t_par = tau.tau_at_node(tree, fam.parent)
            if t_par is not None and t_par < birth:
                k = min(t_par, j)
                anc = tree.ancestor_at(fam.parent, k)
                fam_values[fid] = (
                    (fam.n0, None, Poly.constant(f[k].node_values[anc])),
                )
                continue
            fam_values[fid] = tuple(_stopped_member_pieces(f, tau, fid, j))
        out.append(PayoffSpec(j, node_values, fam_values))
    return ProcessSequence(tree, out)


def _stopped_member_pieces(
    f: ProcessSequence, tau: StoppingTime, fid: str, j: int
) -> list[Piece]:
    tree = f.tree
    fam = tree.family(fid)
    windows = tau.member_windows(fid)
    # stop time per member: piecewise over n-ranges
    ranges: list[tuple[int, Optional[int], Optional[int]]] = [(fam.n0, None, None)]
    for t, lo, hi in windows:
        updated: list[tuple[int, Optional[int], Optional[int]]] = []
        for r_lo, r_hi, r_t in ranges:
            inter_lo = max(r_lo, lo)
            inter_hi = r_hi if hi is None else (hi if r_hi is None else min(r_hi, hi))
            if inter_hi is not None and inter_lo > inter_hi:
                updated.append((r_lo, r_hi, r_t))
                continue
            if r_lo < inter_lo:
                updated.append((r_lo, inter_lo - 1, r_t))
            updated.append((inter_lo, inter_hi, t if r_t is None else min(r_t, t)))
            if inter_hi is not None and (r_hi is None or inter_hi < r_hi):
                updated.append((inter_hi + 1, r_hi, r_t))
        ranges = sorted(updated)
    pieces: list[Piece] = []
    for lo, hi, t in ranges:
        k = j if t is None else min(t, j)
        pieces.append(_member_piece_at(f, fid, k, lo, hi))
    return pieces


def _member_piece_at(f: ProcessSequence, fid: str, k: int, lo: int, hi: Optional[int]) -> Piece:
    tree = f.tree
    birth = tree.family_birth(fid)
    if k < birth:
        anc = tree.ancestor_at(tree.family(fid).parent, k)
        return (lo, hi, Poly.constant(f[k].node_values[anc]))
    poly = _restrict_piece(f[k].family_values[fid], lo, hi)
    return (lo, hi, poly)


def _restrict_piece(pieces: tuple[Piece, ...], lo: int, hi: Optional[int]) -> Poly:
    covering = [
        p for p in pieces if p[0] <= lo and (p[1] is None or (hi is not None and hi <= p[1]))
    ]
    if not covering:
        raise ModelError("stopped process needs a payoff piece split at member windows")
    return covering[0][2]


def supermartingale_transform(
    f: ProcessSequence, d: HedgeSequence
) -> ProcessSequence:
    """g_j = f_0 + sum_{i<j} D_i (f_{i+1} - f_i) for nonnegative positions D."""
    tree = f.tree
    for (_, _), v in d.items():
        if v < 0:
            raise ModelError("transform positions must be nonnegative")
    base = f[0].node_values[tree.root]
    out: list[PayoffSpec] = []
    for j in range(tree.horizon + 1):
        node_values: dict[str, Value] = {}
        for nd in tree.nodes_at_time(j):
            path = tree.path_to(nd.nid)
            acc = base
            for i in range(j):
                di = d.at(i, path[i])
                acc += di * (
                    f[i + 1].node_values[path[i + 1]] - f[i].node_values[path[i]]
                )
            node_values[nd.nid] = acc
        fam_values: dict[str, tuple[Piece, ...]] = {}
        for fam in tree.families_born_by(j):
            fid = fam.fid
            birth = tree.family_birth(fid)
            parent_path = tree.path_to(fam.parent)
            acc_const = base
            for i in range(birth - 1):
                di = d.at(i, parent_path[i])
                acc_const += di * (
                    f[i + 1].node_values[parent_path[i + 1]]
                    - f[i].node_values[parent_path[i]]
                )
            pieces: list[Piece] = []
            for lo, hi in _piece_grid(f, fid, j, birth):
                poly = Poly.constant(acc_const)
                d_birth = d.at(birth - 1, fam.parent)
                prev = Poly.constant(f[birth - 1].node_values[fam.parent])
                for i in range(birth - 1, j):
                    cur = _piece_poly(f, fid, i + 1, lo, hi) if i + 1 >= birth else prev
                    di = d_birth if i == birth - 1 else _member_d(d, fid, i)
                    poly = poly + (cur - prev).scale(di)
                    prev = cur
                pieces.append((lo, hi, poly))
            fam_values[fid] = tuple(pieces)
        out.append(PayoffSpec(j, node_values, fam_values))
    return ProcessSequence(tree, out)


def _member_d(d: HedgeSequence, fid: str, time: int) -> Fraction:
    # positions inside a constant continuation multiply zero price increments,
    # but they do scale the transform; member-level D entries default to 0
    return d.entries.get((time, fid), Fraction(0))


def _piece_grid(f: ProcessSequence, fid: str, j: int, birth: int) -> list[NRange]:
    """Common refinement of the member ranges used by f_{birth..j} for fid."""
    cuts: set[int] = set()
    fam = f.tree.family(fid)
    tops: list[Optional[int]] = []
    for k in range(birth, j + 1):
        for lo, hi, _ in f[k].family_values[fid]:
            cuts.add(lo)
            if hi is not None:
                cuts.add(hi + 1)
    cuts.add(fam.n0)
    marks = sorted(cuts)
    out: list[NRange] = []
    for i, lo in enumerate(marks):
        hi = marks[i + 1] - 1 if i + 1 < len(marks) else None
        if hi is not None and hi < lo:
            continue
        out.append((lo, hi))
    return out


def _piece_poly(f: ProcessSequence, fid: str, k: int, lo: int, hi: Optional[int]) -> Poly:
    return _restrict_piece(f[k].family_values[fid], lo, hi)


def uniform_positions(tree: TrajectoryTree, value) -> HedgeSequence:
    """Constant positions at every explicit node and family continuation."""
    d = HedgeSequence()
    for nd in tree.nodes.values():
        if not nd.is_leaf:
            d.set(nd.time, nd.nid, value)
    for fid in tree.families:
        for t in range(tree.family_birth(fid), tree.horizon):
            d.set(t, fid, value)
    return d


def stopping_indicator(tree: TrajectoryTree, tau: StoppingTime) -> HedgeSequence:
    """D_i = 1 while tau > i, 0 afterwards (node-marked rules only)."""
    if tau.family_marks:
        raise ModelError(
            "member-window stopping rules need member-dependent positions, "
            "which HedgeSequence does not represent"
        )
    d = HedgeSequence()
    for nd in tree.nodes.values():
        if nd.is_leaf:
            continue
        t = tau.tau_at_node(tree, nd.nid)
        d.set(nd.time, nd.nid, 1 if (t is None or t > nd.time) else 0)
    for fid in tree.families:
        fam = tree.family(fid)
        t_par = tau.tau_at_node(tree, fam.parent)
        for t in range(tree.family_birth(fid), tree.horizon):
            d.set(t, fid, 1 if (t_par is None or t_par > t) else 0)
    return d
