"""Node classification, null covers, continuity-from-below, hypotheses.

The continuity-from-below status of a node (property "L" in the library's
reports) is decided constructively: it is equivalent to the zero claim having
conditional superhedging price 0, and on common-horizon trees that price
obeys an exact backward recursion.  One step of the recursion:

* a sure-win node (all increments on one strict side of 0) fails - countably
  many cheap long/short positions harvest unbounded gains there;
* children that themselves fail impose no constraint (anything can be
  superhedged from them at arbitrarily negative cost);
* with harvesting blocked, the node holds iff the closure of the surviving
  child increments still straddles 0 (an attained 0 increment always
  suffices, even when harvesting is open).

Theorem-style sufficient conditions (trajectorial completeness plus the
hypothesis bundle H.2/H.3, or good-node reachability plus H.4/H.5) are
checked separately and recorded as certifications / cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .model import Node, TrajectoryTree
from .poly import grid_summary, ranges_excluding, rat_str, subtract_ranges

NRange = tuple[int, Optional[int]]
StepRow = tuple[Fraction, str, str]  # (increment, child id, "node:<child id>")


class NodeClass(Enum):
    UP_DOWN = "up-down"
    FLAT = "flat"
    ARBITRAGE_I = "arbitrage-I"
    ARBITRAGE_II = "arbitrage-II"


# ---------------------------------------------------------------------------
# event sets (unions of node cylinders and family member sets)


@dataclass(frozen=True)
class NodeAtom:
    node: str

    def render(self) -> str:
        return f"node {self.node}"


@dataclass(frozen=True)
class FamilyAtom:
    family: str
    ranges: tuple[NRange, ...]

    def covers(self, n: int) -> bool:
        return any(lo <= n and (hi is None or n <= hi) for lo, hi in self.ranges)

    def render(self) -> str:
        parts = [f"{lo}-{hi if hi is not None else 'inf'}" for lo, hi in self.ranges]
        return f"family {self.family} {','.join(parts)}"


Atom = Union[NodeAtom, FamilyAtom]


class EventSet:
    """Finite union of node cylinders and family member windows."""

    def __init__(self, atoms: Sequence[Atom] = ()):
        self.node_atoms: set[str] = set()
        self.family_atoms: dict[str, list[NRange]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> None:
        if isinstance(atom, NodeAtom):
            self.node_atoms.add(atom.node)
        else:
            self.family_atoms.setdefault(atom.family, []).extend(atom.ranges)

    def is_empty(self) -> bool:
        return not self.node_atoms and not self.family_atoms

    def copy(self) -> "EventSet":
        out = EventSet()
        out.node_atoms = set(self.node_atoms)
        out.family_atoms = {fid: list(r) for fid, r in self.family_atoms.items()}
        return out

    def covers_path(self, tree: TrajectoryTree, nid: str) -> bool:
        """Does the cylinder of some atom contain every trajectory through nid?

        True when an ancestor-or-self of nid is a listed node atom."""
        return any(a in self.node_atoms for a in tree.path_to(nid))

    def covered_nodes(self, tree: TrajectoryTree) -> set[str]:
        """Every explicit node whose path the node atoms cover, in one pass.

        Equals ``{nid for nid in tree.nodes if self.covers_path(tree, nid)}``:
        coverage is carried from parent to child instead of re-walking each
        path from the root; with no node atom there is nothing to carry."""
        out: set[str] = set()
        if not self.node_atoms:
            return out
        stack = [(tree.root, False)]
        while stack:
            nid, above = stack.pop()
            hit = above or nid in self.node_atoms
            if hit:
                out.add(nid)
            stack.extend((child, hit) for _, child in tree.node(nid).children)
        return out

    def fully_covered_nodes(self, tree: TrajectoryTree) -> set[str]:
        """Every explicit node whose path is covered, or below which every
        path meets a node atom and every family on the way has all its
        members covered; decided bottom-up in one pass over the levels.  Family
        atoms alone can fully cover a node, so only an empty set skips it."""
        out = self.covered_nodes(tree)
        if self.is_empty():
            return out
        for t in range(tree.horizon - 1, -1, -1):
            for nd in tree.nodes_at_time(t):
                if nd.nid in out or nd.is_leaf:
                    continue
                if all(child in out for _, child in nd.children) and not any(
                    subtract_ranges([(tree.family(fid).n0, None)], self.member_ranges(fid))
                    for fid in nd.families
                ):
                    out.add(nd.nid)
        return out

    def covers_member(self, tree: TrajectoryTree, fid: str, n: int) -> bool:
        fam = tree.family(fid)
        if self.covers_path(tree, fam.parent):
            return True
        return any(
            lo <= n and (hi is None or n <= hi)
            for lo, hi in self.family_atoms.get(fid, [])
        )

    def member_ranges(self, fid: str) -> list[NRange]:
        """The member windows of ``fid``, by start and then by end, an
        unbounded end last."""
        return sorted(
            self.family_atoms.get(fid, []), key=lambda r: (r[0], r[1] is None, r[1] or 0)
        )

    def uncovered_member_ranges(self, tree: TrajectoryTree, fid: str) -> list[NRange]:
        fam = tree.family(fid)
        if self.covers_path(tree, fam.parent):
            return []
        return subtract_ranges([(fam.n0, None)], self.member_ranges(fid))

    def atoms_sorted(self) -> list[str]:
        out = [NodeAtom(n).render() for n in sorted(self.node_atoms)]
        for fid in sorted(self.family_atoms):
            out.append(FamilyAtom(fid, tuple(self.member_ranges(fid))).render())
        return out

    def subset_of(self, tree: TrajectoryTree, other: "EventSet") -> tuple[bool, str]:
        """Atom-wise containment check (sufficient, exact on this model class)."""
        full: Optional[set[str]] = None  # built only when a path is not covered
        for nid in self.node_atoms:
            if not other.covers_path(tree, nid):
                if full is None:
                    full = other.fully_covered_nodes(tree)
                if nid not in full:
                    return False, f"node cylinder {nid!r} escapes the target set"
        for fid, ranges in self.family_atoms.items():
            fam = tree.family(fid)
            if other.covers_path(tree, fam.parent):
                continue
            covered = other.member_ranges(fid)
            for lo, hi in ranges:
                rem = subtract_ranges([(lo, hi)], covered)
                if rem:
                    return False, f"members {rem[0]} of family {fid!r} escape"
        return True, ""


# ---------------------------------------------------------------------------
# per-node increment summaries and classification


@dataclass(frozen=True)
class IncrementSummary:
    """Exact sign facts about all one-step increments at a node, and the
    increments that are zero."""

    has_pos: bool
    has_neg: bool
    zero_children: tuple[str, ...]  # explicit children with increment 0
    zero_members: tuple[tuple[str, int], ...]  # (fid, n) attaining increment 0

    @property
    def zero_attained(self) -> bool:
        return bool(self.zero_children or self.zero_members)

    @property
    def plus_ray(self) -> bool:
        """All increments >= 0: cheap long positions win on every move."""
        return not self.has_neg

    @property
    def minus_ray(self) -> bool:
        return not self.has_pos


# every leaf's summary: it has no increments (a frozen value, so one serves all)
_LEAF_SUMMARY = IncrementSummary(False, False, (), ())


def _increment_summary(tree: TrajectoryTree, node: Node) -> IncrementSummary:
    if node.is_leaf:
        return _LEAF_SUMMARY
    has_pos = has_neg = False
    zero_children: list[str] = []
    zero_members: list[tuple[str, int]] = []
    for inc, child in node.children:
        # a Fraction's denominator is positive: its numerator carries the sign
        if inc.numerator > 0:
            has_pos = True
        elif inc.numerator < 0:
            has_neg = True
        else:
            zero_children.append(child)
    for fid in node.families:
        fam = tree.family(fid)
        s = grid_summary(fam.poly, fam.n0, None)
        has_pos = has_pos or s.has_pos
        has_neg = has_neg or s.has_neg
        zero_members.extend((fid, n) for n in s.zeros)
    return IncrementSummary(
        has_pos, has_neg, tuple(sorted(zero_children)), tuple(sorted(zero_members))
    )


def _step_rows(node: Node, s: IncrementSummary) -> tuple[StepRow, ...]:
    """The explicit children that enter the node's one-step problem, by id,
    each with its constraint label.  Where every increment at the node has
    one weak sign, a strict move with that sign is a harvested cylinder
    (cheap one-sided positions win on it) and is dropped."""
    return tuple(
        (inc, child, f"node:{child}")
        for inc, child in sorted(node.children, key=lambda c: c[1])
        if not (s.plus_ray and inc.numerator > 0 or s.minus_ray and inc.numerator < 0)
    )


def _classify(summary: IncrementSummary, is_leaf: bool) -> NodeClass:
    if is_leaf:
        return NodeClass.FLAT  # constant continuation after the horizon
    if summary.has_pos and summary.has_neg:
        return NodeClass.UP_DOWN
    if not summary.has_pos and not summary.has_neg:
        return NodeClass.FLAT
    return NodeClass.ARBITRAGE_I if summary.zero_attained else NodeClass.ARBITRAGE_II


# ---------------------------------------------------------------------------
# hypothesis verdicts


@dataclass
class Verdict:
    holds: bool
    witnesses: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class Analysis:
    """Everything the classification/continuity layer knows about a tree."""

    tree: TrajectoryTree
    summaries: dict[str, IncrementSummary]
    # each node's explicit children that enter its one-step problem
    step_children: dict[str, tuple[StepRow, ...]]
    node_class: dict[str, NodeClass]
    l_holds: dict[str, bool]
    good: dict[str, bool]
    null_cover: EventSet
    _fully_covered: set[str]  # the null cover's fully_covered_nodes
    h1: Verdict
    h2: Verdict
    h3: Verdict
    h4: Verdict
    h5: Verdict
    l_ae: Verdict

    # -- conveniences --------------------------------------------------------
    def l_fails(self, nid: str) -> bool:
        return not self.l_holds[nid]

    def certification(self, nid: str) -> str:
        """Which sufficient condition backs the continuity verdict here."""
        if self.node_class[nid] is NodeClass.ARBITRAGE_II and not self.l_holds[nid]:
            return "sure-win-node"
        if self.h2.holds:
            return "complete+H2"
        if self.h4.holds and self.h5.holds:
            return "good-node+H4+H5"
        return "direct-computation"

    def fully_covered(self, nid: str) -> bool:
        return nid in self._fully_covered

    def alive_member_ranges(self, fid: str) -> list[NRange]:
        return self.null_cover.uncovered_member_ranges(self.tree, fid)


def analyze(tree: TrajectoryTree) -> Analysis:
    """Classify every node and decide continuity-from-below exactly.  The
    answer is kept on the tree until the tree next grows."""
    return tree.memo("analysis", _analyze)


def _analyze(tree: TrajectoryTree) -> Analysis:
    tree.validate()
    summaries: dict[str, IncrementSummary] = {}
    step_children: dict[str, tuple[StepRow, ...]] = {}
    node_class: dict[str, NodeClass] = {}
    for nd in tree.nodes.values():
        s = _increment_summary(tree, nd)
        summaries[nd.nid] = s
        step_children[nd.nid] = _step_rows(nd, s)
        node_class[nd.nid] = _classify(s, nd.is_leaf)

    l_holds = _continuity_status(tree, summaries, node_class)
    good = _good_nodes(tree, node_class, summaries)
    cover = _null_cover(tree, node_class, summaries)

    analysis = Analysis(
        tree, summaries, step_children, node_class, l_holds, good, cover,
        cover.fully_covered_nodes(tree),
        h1=Verdict(True), h2=Verdict(True), h3=Verdict(True),
        h4=Verdict(True), h5=Verdict(True), l_ae=Verdict(True),
    )
    analysis.h2 = _check_h2(analysis)
    analysis.h3 = _check_h3(analysis)
    analysis.h4 = _check_h4(analysis)
    analysis.h5 = Verdict(
        True,
        ["common horizon: diagonal limit sequences are eventually one fixed path"],
    )
    analysis.h1 = _check_h1(analysis)
    analysis.l_ae = _assumption_l_ae(analysis)
    _assert_theorem_consistency(analysis)
    return analysis


def classify_node(tree: TrajectoryTree, nid: str) -> NodeClass:
    return analyze(tree).node_class[nid]


def l_status(tree: TrajectoryTree) -> dict[str, bool]:
    """Map node -> continuity-from-below holds? (exactly decided)."""
    return dict(analyze(tree).l_holds)


def null_cover(tree: TrajectoryTree) -> EventSet:
    return analyze(tree).null_cover


def assumption_l_ae(tree: TrajectoryTree) -> Verdict:
    return analyze(tree).l_ae


# ---------------------------------------------------------------------------
# internals


def _continuity_status(tree, summaries, node_class) -> dict[str, bool]:
    holds: dict[str, bool] = {}
    for nd in sorted(tree.nodes.values(), key=lambda n: -n.time):
        if nd.is_leaf:
            holds[nd.nid] = True
            continue
        s = summaries[nd.nid]
        if node_class[nd.nid] is NodeClass.ARBITRAGE_II:
            holds[nd.nid] = False
            continue
        # surviving one-step alternatives: children that do not fail
        surviving_zero = bool(s.zero_members) or any(
            holds[c] for c in s.zero_children
        )
        if surviving_zero:
            holds[nd.nid] = True
            continue
        if not (s.has_pos and s.has_neg):
            # no attained zero and no two-sided movement: sure-win structure
            holds[nd.nid] = False
            continue
        holds[nd.nid] = _straddles(tree, nd, holds.__getitem__)
    return holds


def _good_nodes(tree, node_class, summaries) -> dict[str, bool]:
    """A node is good when some continuation never moves at an arbitrage step."""
    good: dict[str, bool] = {}
    for nd in sorted(tree.nodes.values(), key=lambda n: -n.time):
        if nd.is_leaf:
            good[nd.nid] = True
            continue
        cls = node_class[nd.nid]
        s = summaries[nd.nid]
        if cls in (NodeClass.UP_DOWN, NodeClass.FLAT):
            good[nd.nid] = bool(nd.families) or any(good[c] for _, c in nd.children)
        elif cls is NodeClass.ARBITRAGE_I:
            good[nd.nid] = bool(s.zero_members) or any(
                good[c] for c in s.zero_children
            )
        else:
            good[nd.nid] = False
    return good


def good_nodes_by_enumeration(tree: TrajectoryTree) -> dict[str, bool]:
    """Goodness by enumerating whole trajectories, for cross-checking.

    Walks every explicit leaf path and every family continuation and marks a
    node good as soon as one trajectory through it takes no nonzero move out
    of an arbitrage node from that time onward.
    """
    cls = {nid: classify_node(tree, nid) for nid in tree.nodes}
    arb = {
        nid
        for nid, c in cls.items()
        if c in (NodeClass.ARBITRAGE_I, NodeClass.ARBITRAGE_II)
    }
    good = {nid: False for nid in tree.nodes}

    def mark_along(path: list[str], member_of: Optional[tuple[str, bool]]) -> None:
        # ok_suffix[j]: the trajectory's steps from time j on avoid arbitrage moves
        steps_ok = []
        for j in range(len(path) - 1):
            inc = tree.node(path[j + 1]).inc_from_parent
            steps_ok.append(not (path[j] in arb and inc != 0))
        tail_ok = True
        if member_of is not None:
            fid, member_step_ok = member_of
            tail_ok = member_step_ok
        suffix_ok = tail_ok
        marks = []
        for j in range(len(path) - 1, -1, -1):
            if j < len(path) - 1:
                suffix_ok = suffix_ok and steps_ok[j]
            marks.append((path[j], suffix_ok))
        for nid, ok in marks:
            if ok:
                good[nid] = True

    for nd in tree.nodes.values():
        if nd.is_leaf:
            mark_along(tree.path_to(nd.nid), None)
    for fid, fam in tree.families.items():
        parent_path = tree.path_to(fam.parent)
        fs = grid_summary(fam.poly, fam.n0, None)
        # a member avoids the family step iff the parent is arbitrage-free or
        # the member's own increment is zero
        step_ok = fam.parent not in arb or bool(fs.zeros)
        mark_along(parent_path, (fid, step_ok))
    return good


def _null_cover(tree, node_class, summaries) -> EventSet:
    ev = EventSet()
    for nd in tree.nodes.values():
        cls = node_class[nd.nid]
        if cls is NodeClass.ARBITRAGE_II:
            ev.add(NodeAtom(nd.nid))
        if cls in (NodeClass.ARBITRAGE_I, NodeClass.ARBITRAGE_II):
            for inc, child in nd.children:
                if inc.numerator != 0:
                    ev.add(NodeAtom(child))
            for fid in nd.families:
                fam = tree.family(fid)
                zeros = grid_summary(fam.poly, fam.n0, None).zeros
                ranges = ranges_excluding(fam.n0, None, list(zeros))
                if ranges:
                    ev.add(FamilyAtom(fid, tuple(ranges)))
    return ev


def _type_ii_nodes(analysis: Analysis) -> list[Node]:
    return [
        analysis.tree.node(nid)
        for nid, cls in sorted(analysis.node_class.items())
        if cls is NodeClass.ARBITRAGE_II
    ]


def _straddles(tree: TrajectoryTree, node: Node, keep: Callable[[str], bool]) -> bool:
    """Do the increments to the children ``keep`` admits, with the closure
    bounds of every family at ``node``, reach 0 weakly from both sides?"""
    below = above = False
    for inc, child in node.children:
        if keep(child):
            below = below or inc.numerator <= 0
            above = above or inc.numerator >= 0
    for fid in node.families:
        fam = tree.family(fid)
        s = grid_summary(fam.poly, fam.n0, None)
        below = below or s.inf_cl.numerator <= 0
        above = above or s.sup_cl.numerator >= 0
    return below and above


def _check_h2(analysis: Analysis) -> Verdict:
    """Sure-win nodes must sit under up-down parents with near-zero siblings."""
    tree = analysis.tree
    for nd in _type_ii_nodes(analysis):
        if nd.parent is None:
            return Verdict(False, [f"sure-win node {nd.nid!r} at time 0"])
        parent = tree.node(nd.parent)
        if analysis.node_class[parent.nid] is not NodeClass.UP_DOWN:
            return Verdict(
                False, [f"parent of {nd.nid!r} is {analysis.node_class[parent.nid].value}"]
            )
        if not _straddles(
            tree, parent,
            lambda c: c != nd.nid and analysis.node_class[c] is not NodeClass.ARBITRAGE_II,
        ):
            return Verdict(
                False,
                [f"no near-zero non-sure-win siblings around {nd.nid!r}"],
            )
    wit = [f"checked {len(_type_ii_nodes(analysis))} sure-win node(s)"]
    return Verdict(True, wit)


def _check_h3(analysis: Analysis) -> Verdict:
    """Strict value-straddling siblings around each sure-win node."""
    tree = analysis.tree
    for nd in _type_ii_nodes(analysis):
        if nd.parent is None:
            return Verdict(False, [f"sure-win node {nd.nid!r} at time 0"])
        parent = tree.node(nd.parent)
        if analysis.node_class[parent.nid] is not NodeClass.UP_DOWN:
            return Verdict(False, [f"parent of {nd.nid!r} not up-down"])
        above = below = False
        for inc, child in parent.children:
            if child == nd.nid:
                continue
            if analysis.node_class[child] is NodeClass.ARBITRAGE_II:
                continue
            value = parent.value + inc
            above = above or value > nd.value
            below = below or value < nd.value
        for fid in parent.families:
            fam = tree.family(fid)
            shifted = fam.poly.shift(parent.value - nd.value)
            s = grid_summary(shifted, fam.n0, None)
            above = above or s.has_pos
            below = below or s.has_neg
        if not (above and below):
            side = "above" if not above else "below"
            return Verdict(False, [f"no sibling strictly {side} {nd.nid!r}"])
    return Verdict(True, [f"checked {len(_type_ii_nodes(analysis))} sure-win node(s)"])


def _check_h4(analysis: Analysis) -> Verdict:
    """Good up-down nodes must have good children arbitrarily close to flat."""
    tree = analysis.tree
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        if analysis.node_class[nd.nid] is not NodeClass.UP_DOWN:
            continue
        if not analysis.good[nd.nid]:
            continue
        if not _straddles(tree, nd, analysis.good.__getitem__):
            return Verdict(
                False, [f"good children of {nd.nid!r} stay away from zero increments"]
            )
    return Verdict(True)


def _check_h1(analysis: Analysis) -> Verdict:
    """Failing children of healthy up-down nodes need healthy value-straddles."""
    tree = analysis.tree
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        if analysis.node_class[nd.nid] is not NodeClass.UP_DOWN:
            continue
        if not analysis.l_holds[nd.nid]:
            continue
        failing_values: list[tuple[Fraction, str]] = []
        for inc, child in nd.children:
            if not analysis.l_holds[child]:
                failing_values.append((nd.value + inc, child))
        # family members always satisfy continuity (constant continuation)
        for value, child in failing_values:
            above = below = False
            for inc2, sib in nd.children:
                if analysis.l_holds[sib] and nd.value + inc2 >= value:
                    above = True
                if analysis.l_holds[sib] and nd.value + inc2 <= value:
                    below = True
            for fid in nd.families:
                fam = tree.family(fid)
                shifted = fam.poly.shift(nd.value - value)
                s = grid_summary(shifted, fam.n0, None)
                above = above or s.max_val >= 0 or s.has_pos
                below = below or s.min_val <= 0 or s.has_neg
            if not (above and below):
                side = "at-or-above" if not above else "at-or-below"
                return Verdict(
                    False,
                    [
                        f"no healthy sibling {side} failing child {child!r} "
                        f"of {nd.nid!r}"
                    ],
                )
    return Verdict(True)


def _assumption_l_ae(analysis: Analysis) -> Verdict:
    tree = analysis.tree
    if not analysis.l_holds[tree.root]:
        return Verdict(False, ["continuity from below fails at the root"])
    for nid, ok in sorted(analysis.l_holds.items()):
        if ok:
            continue
        if not analysis.fully_covered(nid):
            return Verdict(
                False,
                [
                    f"failure cylinder at node {nid!r} is not contained in the "
                    "null cover"
                ],
            )
    return Verdict(True, ["all failure cylinders lie inside the null cover"])


class ConsistencyError(RuntimeError):
    """A proven implication between verdicts failed: engine bug."""


def _assert_theorem_consistency(analysis: Analysis) -> None:
    """Proven implications between verdicts must hold on every tree."""

    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise ConsistencyError(msg)

    for nid, cls in analysis.node_class.items():
        if cls is NodeClass.ARBITRAGE_II:
            check(not analysis.l_holds[nid], f"sure-win node {nid!r} marked L-holds")
            check(not analysis.good[nid], f"sure-win node {nid!r} marked good")
    if analysis.h2.holds:
        for nid, cls in analysis.node_class.items():
            check(
                analysis.l_holds[nid] == (cls is not NodeClass.ARBITRAGE_II),
                f"H2 characterization violated at {nid!r}",
            )
    if analysis.h4.holds:
        for nid in analysis.tree.nodes:
            check(
                analysis.l_holds[nid] == analysis.good[nid],
                f"good-node characterization violated at {nid!r}",
            )
    if analysis.h3.holds:
        check(analysis.h2.holds, "H3 held without H2")
        check(analysis.h1.holds, "H3 held without H1")
    for nid, g in analysis.good.items():
        if not g:
            check(not analysis.l_holds[nid], f"bad node {nid!r} marked L-holds")


# ---------------------------------------------------------------------------
# report rendering


def render_report(analysis: Analysis, full: bool = True) -> str:
    tree = analysis.tree
    lines = []
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        cls = analysis.node_class[nd.nid]
        lines.append(
            f"node {nd.nid} t={nd.time} value={rat_str(nd.value)} "
            f"class={cls.value} L={'holds' if analysis.l_holds[nd.nid] else 'fails'} "
            f"good={'yes' if analysis.good[nd.nid] else 'no'}"
        )
    if not full:
        return "\n".join(lines) + "\n"
    lines.append("")
    for name in ("h1", "h2", "h3", "h4", "h5"):
        v: Verdict = getattr(analysis, name)
        lines.append(f"hypothesis {name.upper()}: {'holds' if v.holds else 'fails'}")
        for w in v.witnesses:
            lines.append(f"  - {w}")
    lines.append(
        "assumption L-a.e.: " + ("holds" if analysis.l_ae.holds else "fails")
    )
    for w in analysis.l_ae.witnesses:
        lines.append(f"  - {w}")
    lines.append("")
    lines.append("null cover:")
    atoms = analysis.null_cover.atoms_sorted()
    if atoms:
        lines.extend(f"  {a}" for a in atoms)
    else:
        lines.append("  (empty)")
    return "\n".join(lines) + "\n"


def report_json(analysis: Analysis) -> dict:
    tree = analysis.tree
    return {
        "nodes": [
            {
                "id": nd.nid,
                "time": nd.time,
                "value": rat_str(nd.value),
                "class": analysis.node_class[nd.nid].value,
                "L": "holds" if analysis.l_holds[nd.nid] else "fails",
                "good": analysis.good[nd.nid],
                "certified_by": analysis.certification(nd.nid),
            }
            for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid))
        ],
        "hypotheses": {
            name.upper(): {
                "holds": getattr(analysis, name).holds,
                "witnesses": getattr(analysis, name).witnesses,
            }
            for name in ("h1", "h2", "h3", "h4", "h5")
        },
        "l_ae": {"holds": analysis.l_ae.holds, "witnesses": analysis.l_ae.witnesses},
        "null_cover": analysis.null_cover.atoms_sorted(),
    }
