"""Trajectory trees, payoffs, hedges, stopping times and simple strategies.

A trajectory set is stored as a finite rooted tree with a common horizon T:
every explicit path has exactly T edges and is constant afterwards.  A node
may additionally carry *family* children, each denoting the countable branch
set with increments ``p(1/n)`` for integer ``n >= n0`` followed by constant
continuation up to the horizon.  All arithmetic is exact rational.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Union

from .poly import (
    Poly,
    grid_summary,
    intersect_ranges,
    rat,
    rat_str,
    root_integer_neighbors,
    split_ranges,
)

MINUS_INF = float("-inf")
ZERO = Fraction(0)  # shared: a Fraction is immutable

Value = Union[Fraction, float]  # float only ever holds the -inf marker
NRange = tuple[int, Optional[int]]


def exceeds(v: Value, w: Fraction) -> bool:
    """v > w for a rational w and a rational or -inf v, by integers: the
    marker is tested by type, then the two fractions cross-multiplied."""
    return type(v) is not float and v.numerator * w.denominator > w.numerator * v.denominator


class QueryError(ValueError):
    """A query the library refuses: malformed or inconsistent input, an
    unverified hypothesis, or an exchange that did not close.  The CLI
    reports every subclass with exit status 2."""


class ModelError(QueryError):
    """Invariant violation in a tree, payoff or process description.

    ``fid`` names the family at fault (its declaration, or its member
    pieces), ``nid`` the node and ``entry`` the process entry, where the
    fault lies in one."""

    def __init__(self, message: str, *, fid: Optional[str] = None, nid: Optional[str] = None):
        super().__init__(message)
        self.fid = fid
        self.nid = nid
        self.entry: Optional[int] = None


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
        self._memo: dict[str, Any] = {}
        self._validated = False

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

    def memo(self, key: str, build: Callable[["TrajectoryTree"], Any]) -> Any:
        """``build(self)``, computed on the first call for ``key`` and kept
        until the tree next grows."""
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]

    def _touch(self):
        self._memo = {}
        self._validated = False

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
        return list(self.memo("levels", _levels).get(t, ()))

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
        nd = self._node(nid)
        if not 0 <= t <= nd.time:
            raise ModelError(f"node {nid!r} has no ancestor at time {t}")
        for _ in range(nd.time - t):
            nd = self._node(nd.parent)
        return nd.nid

    def subtree(self, nid: str) -> list[str]:
        out, stack = [], [nid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(c for _, c in self._node(cur).children)
        return sorted(out, key=lambda i: (self.nodes[i].time, i))

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise ModelError on violation.
        A pass holds, and is not repeated, until the tree next grows."""
        if self._validated:
            return
        for nd in self.nodes.values():
            if nd.is_leaf and nd.time != self.horizon:
                raise ModelError(
                    f"node {nd.nid!r} at time {nd.time} has no children but the "
                    f"horizon is {self.horizon}",
                    nid=nd.nid,
                )
            self._check_child_distinctness(nd)
        # path consistency: value = root + sum of increments, checked as
        # a/b == c/d + e/f over positive denominators: a*d*f == b*(c*f + e*d)
        for nd in self.nodes.values():
            if nd.parent is not None:
                p = self._node(nd.parent)
                a, b = nd.value.numerator, nd.value.denominator
                c, d = p.value.numerator, p.value.denominator
                e, f = nd.inc_from_parent.numerator, nd.inc_from_parent.denominator
                if a * d * f != b * (c * f + e * d):
                    raise ModelError(f"value inconsistency at {nd.nid!r}", nid=nd.nid)
                if nd.time != p.time + 1:
                    raise ModelError(f"time inconsistency at {nd.nid!r}", nid=nd.nid)
        self._validated = True

    def _check_child_distinctness(self, nd: Node) -> None:
        # keyed by lowest terms, so that no Fraction is hashed
        incs: set[tuple[int, int]] = set()
        for inc, child in nd.children:  # a repeat is reported at the later child
            key = (inc.numerator, inc.denominator)
            if key in incs:
                raise ModelError(f"duplicate increment at node {nd.nid!r}", nid=child)
            incs.add(key)
        fam_objs = [self.families[f] for f in nd.families]
        for e, _ in nd.children:
            for fam in fam_objs:
                hits = _members_at(fam, e)
                if hits:
                    raise ModelError(
                        f"duplicate increment at node {nd.nid!r}: explicit {rat_str(e)} "
                        f"collides with member n={hits[0]} of family {fam.fid!r}",
                        fid=fam.fid,
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
            hits = _members_at(fam, v)
            if len(hits) > 1:
                raise ModelError(
                    f"family {fam.fid!r} at node {nd.nid!r} repeats increment "
                    f"{rat_str(v)} at members n={hits[0]} and n={hits[1]}",
                    fid=fam.fid,
                )

    def _check_family_pair(self, nd: Node, fa: Family, fb: Family) -> None:
        # bounded collision probe of each family's first members against the
        # other; exotic overlapping families are rejected lazily.  add_family
        # rejects constant polynomials, so no shift of one is identically zero
        for probe, other in ((fa, fb), (fb, fa)):
            for n in range(probe.n0, probe.n0 + 24):
                v = probe.increment(n)
                hits = _members_at(other, v)
                if hits:
                    raise ModelError(
                        f"duplicate increment at node {nd.nid!r}: families "
                        f"{probe.fid!r} (n={n}) and {other.fid!r} (n={hits[0]}) "
                        f"share {rat_str(v)}",
                        fid=fb.fid,
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


def _levels(tree: TrajectoryTree) -> dict[int, list[Node]]:
    levels: dict[int, list[Node]] = {}
    for nd in sorted(tree.nodes.values(), key=lambda nd: nd.nid):
        levels.setdefault(nd.time, []).append(nd)
    return levels


def _members_at(fam: Family, v: Fraction) -> list[int]:
    """The members of fam whose increment is exactly v, in increasing order."""
    diff = fam.poly.shift(-v)
    return [
        n
        for n in root_integer_neighbors(diff.reversed_in_n(), fam.n0, None)
        if fam.increment(n) == v
    ]


# ---------------------------------------------------------------------------
# payoffs and processes


Piece = tuple[int, Optional[int], Poly]


def overlay_pieces(
    a: Sequence[tuple], b: Sequence[tuple], op: Callable[[Any, Any], Poly]
) -> list[Piece]:
    """``(lo, hi, op(x, y))`` on every nonempty meet of a piece ``(.., x)`` of
    ``a`` with a piece ``(.., y)`` of ``b``, in ``a``-then-``b`` order.

    The one place member pieces are combined: with ``b = [(lo, hi, None)]``
    and ``op = lambda x, _: x`` it clips ``a`` to the window ``[lo, hi]``."""
    out: list[Piece] = []
    for a_lo, a_hi, x in a:
        for b_lo, b_hi, y in b:
            meet = intersect_ranges((a_lo, a_hi), (b_lo, b_hi))
            if meet is not None:
                out.append((*meet, op(x, y)))
    return out


def member_cover_gap(fam: Family, pieces: Sequence[Piece]) -> str:
    """Where member pieces fail to cover n0, n0 + 1, ... in order, or ''.

    The pieces must tile the members of ``fam`` gap-free from ``n0`` to an
    unbounded last piece; the answer ends "leave a gap at n=..." or "do not
    cover the tail"."""
    cursor = fam.n0
    for lo, hi, _ in sorted(pieces, key=lambda p: p[0]):
        if lo != cursor:
            return f"leave a gap at n={cursor}"
        if hi is None:
            return ""
        cursor = hi + 1
    return "do not cover the tail"


@dataclass
class PayoffSpec:
    """Finite-maturity claim: values per maturity-time node / family member."""

    maturity: int
    node_values: dict[str, Value]
    family_values: dict[str, tuple[Piece, ...]] = field(default_factory=dict)

    def value_at_node(self, nid: str) -> Value:
        return self.node_values[nid]

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
        for nid, v in self.node_values.items():
            if not (isinstance(v, Fraction) or (type(v) is float and v == MINUS_INF)):
                raise ModelError(
                    f"payoff value at node {nid!r} is neither an exact rational nor -inf",
                    nid=nid,
                )
        for fam in tree.families_born_by(self.maturity):
            pieces = self.family_values.get(fam.fid)
            if not pieces:
                raise ModelError(f"payoff misses family {fam.fid!r}")
            gap = member_cover_gap(fam, pieces)
            if gap:
                raise ModelError(
                    f"payoff pieces for family {fam.fid!r} {gap}", fid=fam.fid
                )

    def is_finite(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.node_values.values())

    def is_nonnegative(self, tree: TrajectoryTree) -> bool:
        for v in self.node_values.values():
            # a float value is only ever the -inf marker (see validate)
            if type(v) is float or v.numerator < 0:
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
    fam_values = {
        fid: tuple(sorted(overlay_pieces(pieces, g.family_values[fid], operator.add)))
        for fid, pieces in f.family_values.items()
    }
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
            for s_lo, s_hi, nonneg in sign_segments(poly, lo, hi):
                out.append((s_lo, s_hi, poly if nonneg else -poly))
        fam_values[fid] = tuple(sorted(out))
    g = PayoffSpec(f.maturity, node_values, fam_values)
    g.validate(tree)
    return g


def sign_segments(poly: Poly, lo: int, hi: Optional[int]):
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


def nonneg_windows(poly: Poly, lo: int, hi: Optional[int]) -> list[NRange]:
    """The maximal runs of sign_segments where poly is >= 0 on the grid."""
    return [(s_lo, s_hi) for s_lo, s_hi, nonneg in sign_segments(poly, lo, hi) if nonneg]


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
            try:
                if spec.maturity != j:
                    raise ModelError(f"process entry {j} has maturity {spec.maturity}")
                if not spec.is_finite():
                    raise ModelError("process entries must be real-valued")
                spec.validate(tree)
            except ModelError as exc:
                exc.entry = j
                raise
        self.tree = tree
        self.specs = list(specs)

    def __getitem__(self, j: int) -> PayoffSpec:
        return self.specs[j]

    def __len__(self) -> int:
        return len(self.specs)


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
        return self.entries.get((t, nid), ZERO)

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

    def member_windows(self, fid: str):
        """The ``(time, lo, hi)`` marks of ``fid``, by time, then start, then
        end, an unbounded end last."""
        return sorted(
            ((t, lo, hi) for (f, t, lo, hi) in self.family_marks if f == fid),
            key=lambda w: (w[0], w[1], w[2] is None, w[2] or 0),
        )


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
        for lo, hi in nonneg_windows(shifted, fam.n0, None):
            fam_marks.append((fam.fid, birth, lo, hi))
    return StoppingTime(frozenset(node_marks), tuple(fam_marks))


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
    """f_{min(tau, j)} on the members of ``fid``.  The windows come by time,
    so the first window that takes a member sets its stop time."""
    tree = f.tree
    fam = tree.family(fid)
    birth = tree.family_birth(fid)
    running: list[NRange] = [(fam.n0, None)]
    stops: list[tuple[int, NRange]] = []
    for t, lo, hi in tau.member_windows(fid):
        taken, running = split_ranges(running, [(lo, hi)])
        stops.extend((t, r) for r in taken)
    pieces: list[Piece] = []
    for t, (lo, hi) in stops + [(j, r) for r in running]:
        k = min(t, j)
        if k < birth:
            anc = tree.ancestor_at(fam.parent, k)
            pieces.append((lo, hi, Poly.constant(f[k].node_values[anc])))
        else:
            clip = [(lo, hi, None)]
            pieces += overlay_pieces(f[k].family_values[fid], clip, lambda p, _: p)
    return sorted(pieces, key=lambda p: p[0])


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
            pieces = [(fam.n0, None, Poly.constant(acc_const))]
            for i in range(birth - 1, j):
                di = d.at(i, fam.parent) if i == birth - 1 else _member_d(d, fid, i)
                pieces = overlay_pieces(
                    pieces, member_diff(f, fid, i, fam.n0, None),
                    lambda acc, diff: acc + diff.scale(di),
                )
            pieces.sort(key=lambda p: p[0])
            fam_values[fid] = tuple(pieces)
        out.append(PayoffSpec(j, node_values, fam_values))
    return ProcessSequence(tree, out)


def _member_d(d: HedgeSequence, fid: str, time: int) -> Fraction:
    # positions inside a constant continuation multiply zero price increments,
    # but they do scale the transform; member-level D entries default to 0
    return d.entries.get((time, fid), ZERO)


def member_diff(f: ProcessSequence, fid: str, j: int, lo: int, hi: Optional[int]):
    """(f_{j+1} - f_j) on members of fid in [lo, hi], as refined pieces, or
    None while the family is not yet born at j + 1."""
    tree = f.tree
    birth = tree.family_birth(fid)
    if j + 1 <= tree.horizon and j + 1 < birth:
        return None
    window = [(lo, hi, None)]
    if j < birth:
        # previous value is the parent's node value at time j
        prev_const = f[j].node_values[tree.ancestor_at(tree.family(fid).parent, j)]
        return overlay_pieces(
            f[j + 1].family_values[fid], window, lambda p, _: p.shift(-prev_const)
        )
    nxt = overlay_pieces(f[j + 1].family_values[fid], window, lambda p, _: p)
    return overlay_pieces(nxt, f[j].family_values[fid], operator.sub)


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
