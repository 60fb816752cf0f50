"""Independent cross-checks for the pricing engine.

A gridded backward search bounds the superhedging price from above, and
classical one-step martingale measures (probability weights with zero mean
increment) give the dual price by backward maximization over local vertex
measures; both avoid the LP machinery and run on explicit trees.  The null
operator's aggregated program, solved as one exact LP over the whole tree,
is the reference for the backward ``i_bar`` on small trees, with families
or without; member windows of a few dozen bounded members can make it run
for minutes (ROADMAP item 4).
Agreement with the pricing module is asserted by the test suite; any
mismatch is an engine bug, not a modeling discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .analysis import NodeClass, analyze
from .lp import AffinePiece, minimize
from .model import (
    MINUS_INF,
    HedgeSequence,
    PayoffSpec,
    QueryError,
    SimpleStrategy,
    TrajectoryTree,
)
from .poly import grid_member_above, rat
from .pricing import (
    MAX_ROUNDS,
    Interval,
    PriceResult,
    PricingError,
    ScanGroup,
    UnconvergedError,
    scan_groups,
)


class OracleError(QueryError):
    pass


def _require_explicit(tree: TrajectoryTree) -> None:
    if tree.families:
        raise OracleError("oracles run on explicit trees only")


# ---------------------------------------------------------------------------
# gridded superhedging search


def grid_superhedge(
    tree: TrajectoryTree,
    f: PayoffSpec,
    bound: Fraction,
    step: Fraction,
    nid: Optional[str] = None,
) -> tuple[Fraction, dict[str, Fraction]]:
    """Upper bound on the superhedging price from positions on a grid.

    Searches h in {-bound, ..., -step, 0, step, ..., bound} at every node,
    level by level from the deepest up; refines towards the exact price as the
    step shrinks (Lipschitz in h with constant max |increment|).
    """
    _require_explicit(tree)
    nid = nid if nid is not None else tree.root
    bound, step = rat(bound), rat(step)
    if step <= 0 or bound <= 0:
        raise OracleError("grid bound and step must be positive")
    analysis = analyze(tree)
    f.validate(tree)
    ticks = []
    k = -bound
    while k <= bound:
        ticks.append(k)
        k += step
    best_h: dict[str, Fraction] = {}
    value: dict[str, Fraction] = {}
    order = [nid]
    for cur in order:  # grows as it is read, each node after its parent
        if not analysis.l_fails(cur) and tree.node(cur).time < f.maturity:
            order.extend(child for _, child in tree.node(cur).children)
    for cur in reversed(order):
        node = tree.node(cur)
        if analysis.l_fails(cur):
            value[cur] = MINUS_INF
            continue
        if node.time >= f.maturity:
            value[cur] = f.node_values[tree.ancestor_at(cur, f.maturity)]
            continue
        live = [(inc, value[c]) for inc, c in node.children if value[c] != MINUS_INF]
        if not live:
            value[cur] = MINUS_INF
            continue

        def worst(h: Fraction) -> Fraction:
            return max(v - h * inc for inc, v in live)

        best_h[cur] = min(ticks, key=worst)
        value[cur] = worst(best_h[cur])
    return value[nid], best_h


# ---------------------------------------------------------------------------
# martingale measures


@dataclass(frozen=True)
class LocalVertex:
    """Extreme one-step measure at a node: support of at most two children."""

    weights: tuple[tuple[str, Fraction], ...]

    def items(self):
        return self.weights


@dataclass
class MeasureSet:
    feasible: bool
    local_vertices: dict[str, list[LocalVertex]]
    measures: list[dict[str, Fraction]]  # leaf -> probability, per global vertex
    truncated: bool = False

    @property
    def unique(self) -> bool:
        return self.feasible and len(self.measures) == 1 and not self.truncated


def _local_vertices(tree: TrajectoryTree, nid: str, feasible_children: set[str]):
    node = tree.node(nid)
    out: list[LocalVertex] = []
    kids = [(inc, c) for inc, c in sorted(node.children, key=lambda c: c[1])
            if c in feasible_children]
    for inc, c in kids:
        if inc == 0:
            out.append(LocalVertex(((c, Fraction(1)),)))
    for i, (inc_a, a) in enumerate(kids):
        for inc_b, b in kids[i + 1 :]:
            if inc_a > 0 > inc_b or inc_b > 0 > inc_a:
                pa = -inc_b / (inc_a - inc_b)
                pb = inc_a / (inc_a - inc_b)
                if pa > 0 and pb > 0:
                    out.append(LocalVertex(((a, pa), (b, pb))))
    return out


def martingale_measures(
    tree: TrajectoryTree, max_measures: int = 512
) -> MeasureSet:
    """All extreme martingale measures (vertex description), exactly.

    A measure exists iff every reachable node supports a zero-mean one-step
    distribution on children that themselves admit continuations; nodes with
    one-sided moves (arbitrage nodes with no zero increment) are infeasible.
    """
    _require_explicit(tree)
    feasible: set[str] = set()
    for nd in sorted(tree.nodes.values(), key=lambda n: -n.time):
        if nd.is_leaf:
            feasible.add(nd.nid)
            continue
        kids = [(inc, c) for inc, c in nd.children if c in feasible]
        has_zero = any(inc == 0 for inc, _ in kids)
        has_pos = any(inc > 0 for inc, _ in kids)
        has_neg = any(inc < 0 for inc, _ in kids)
        if has_zero or (has_pos and has_neg):
            feasible.add(nd.nid)

    if tree.root not in feasible:
        return MeasureSet(False, {}, [])

    local = {
        nd.nid: _local_vertices(tree, nd.nid, feasible)
        for nd in tree.internal_nodes()
        if nd.nid in feasible
    }

    measures: list[dict[str, Fraction]] = []
    truncated = False

    def expand(frontier: dict[str, Fraction]) -> list[dict[str, Fraction]]:
        # frontier: node -> prob mass sitting at that (non-leaf) node
        outs = [dict()]  # partial leaf measures
        for nid2, mass in sorted(frontier.items()):
            node = tree.node(nid2)
            if node.is_leaf:
                for o in outs:
                    o[nid2] = o.get(nid2, Fraction(0)) + mass
                continue
            branched = []
            for o in outs:
                for vert in local[nid2]:
                    sub = {c: mass * p for c, p in vert.items()}
                    child_leaves = expand(sub)
                    for extra in child_leaves:
                        merged = dict(o)
                        for leaf, p in extra.items():
                            merged[leaf] = merged.get(leaf, Fraction(0)) + p
                        branched.append(merged)
            outs = branched
            if len(outs) > max_measures:
                return outs[:max_measures]
        return outs

    measures = expand({tree.root: Fraction(1)})
    uniq: list[dict[str, Fraction]] = []
    seen = set()
    for m in measures:
        key = tuple(sorted((k, v) for k, v in m.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(m)
    if len(uniq) > max_measures:
        uniq, truncated = uniq[:max_measures], True
    return MeasureSet(True, local, uniq, truncated)


def dual_price(
    tree: TrajectoryTree, f: PayoffSpec, nid: Optional[str] = None
) -> Fraction:
    """Best expected payoff over one-step measure vertices, by backward max.

    The maximum over all martingale measures of the expectation decomposes
    node by node, so no global enumeration is needed.
    """
    _require_explicit(tree)
    nid = nid if nid is not None else tree.root
    analysis = analyze(tree)
    f.validate(tree)
    for cls in analysis.node_class.values():
        if cls is NodeClass.ARBITRAGE_II:
            raise OracleError("no martingale measure: sure-win node present")
    if not all(analysis.l_holds.values()):
        raise OracleError("dual pricing requires continuity at every node")

    value: dict[str, Fraction] = {}
    order = [nid]
    for cur in order:  # grows as it is read, each node after its parent
        if tree.node(cur).time < f.maturity:
            order.extend(child for _, child in tree.node(cur).children)
    for cur in reversed(order):
        node = tree.node(cur)
        if node.time >= f.maturity:
            value[cur] = f.node_values[tree.ancestor_at(cur, f.maturity)]
            continue
        verts = _local_vertices(tree, cur, {c for _, c in node.children})
        if not verts:
            raise OracleError(f"no one-step measure at {cur!r}")
        value[cur] = max(
            sum(p * value[child] for child, p in vert.items()) for vert in verts
        )
    return value[nid]


# ---------------------------------------------------------------------------
# aggregated nonnegative-wealth program


def i_bar_lp(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
) -> PriceResult:
    """Null-operator value as one aggregated nonnegative-wealth LP.

    Every surviving node's wealth is the start capital plus the positions
    times the increments on its path; the rows ask for nonnegative wealth at
    each node and wealth above the claim at good maturity sites and members.
    The exact simplex solves the whole tree at once, so this is the reference
    that ``pricing.i_bar``'s backward pass is tested against on small trees.
    """
    nid = nid if nid is not None else tree.root
    analysis = analyze(tree)
    f.validate(tree)
    if not f.is_nonnegative(tree):
        raise PricingError("the null operator applies to nonnegative payoffs")
    start = tree.node(nid)
    if start.time > f.maturity:
        # the claim is a constant here; it is harvested for free from bad nodes
        if not analysis.good[nid]:
            return PriceResult(Fraction(0), True, None, [], "bad node: free harvest")
        site = tree.ancestor_at(nid, f.maturity)
        v = f.node_values[site]
        return PriceResult(v, True, None, [f"payoff:{site}"])

    # ---- rows of every surviving node's step, on its owner's wealth ---------
    var_of: dict[str, int] = {}
    wealth: dict[str, dict[int, Fraction]] = {nid: {0: Fraction(1)}}
    rows: list[tuple[dict[int, Fraction], Fraction, str]] = []
    groups: list[tuple[str, ScanGroup]] = []  # (owner node, group)

    def row(owner: str, p: AffinePiece):
        """Wealth of the owner plus the piece's slope times the owner's position."""
        w = dict(wealth[owner])
        hv = var_of.get(owner)
        if hv is not None and p.slope != 0:
            w[hv] = w.get(hv, Fraction(0)) + p.slope
        return (w, p.value, p.label)

    stack = [nid]
    while stack:
        cur = stack.pop()
        node = tree.node(cur)
        rows.append((dict(wealth[cur]), Fraction(0), f"floor:{cur}"))
        if node.time >= f.maturity:
            # a bad site's whole future is harvestable: its claim is waived
            if analysis.good[cur]:
                rows.append((dict(wealth[cur]), f.node_values[cur], f"payoff:{cur}"))
            continue
        # the oracle's own member rule: at a one-sided node every move is a
        # harvested cylinder, so only zero increments constrain, as rows;
        # elsewhere each family payoff piece is a scan group
        s = analysis.summaries[cur]
        one_sided = s.plus_ray or s.minus_ray
        alive = [
            (inc, child)
            for inc, child in sorted(node.children, key=lambda c: c[1])
            if not (one_sided and inc != 0)
        ]
        members: list[AffinePiece] = []
        fam_groups: list[ScanGroup] = []
        for fid in sorted(node.families):
            scans = scan_groups(tree.family(fid), f.family_values[fid])
            if not one_sided:
                fam_groups.extend(scans)
                continue
            zeros = [n for z_fid, n in s.zero_members if z_fid == fid]
            members.extend(
                g.piece_at(n)
                for g in scans
                for n in zeros
                if n >= g.n_lo and (g.n_hi is None or n <= g.n_hi)
            )
        if fam_groups or any(inc != 0 for inc, _ in alive):
            var_of[cur] = len(var_of) + 1
        for inc, child in alive:
            wealth[child] = row(cur, AffinePiece(inc, Fraction(0), f"node:{child}"))[0]
        rows.extend(row(cur, p) for p in members)
        groups.extend((cur, g) for g in fam_groups)
        stack.extend(child for _, child in reversed(alive))

    # seed rows for scan groups: limit + first members
    work_rows = list(rows)
    for owner, g in groups:
        work_rows.extend(row(owner, p) for p in g.seed_pieces())
    seen = {label for _, _, label in work_rows}

    nvars = len(var_of) + 1
    cost = [Fraction(0)] * nvars
    cost[0] = Fraction(1)

    def densify(w: dict[int, Fraction]) -> list[Fraction]:
        return [w.get(i, Fraction(0)) for i in range(nvars)]

    result = None
    for _ in range(MAX_ROUNDS):
        mat = [densify(w) for w, _, _ in work_rows]
        rhs = [v for _, v, _ in work_rows]
        sol = minimize(cost, mat, rhs)
        if sol.status != "optimal":  # pragma: no cover - program is feasible
            raise PricingError(f"nonnegative-wealth program {sol.status}")
        violations = []
        for owner, g in groups:
            w_here = sum(coef * sol.x[i] for i, coef in wealth[owner].items())
            hv = var_of.get(owner)
            h_here = sol.x[hv] if hv is not None else Fraction(0)
            psi = (g.vpoly - g.dpoly.scale(h_here)).shift(-w_here)
            n = grid_member_above(psi, Fraction(0), g.n_lo, g.n_hi)
            if n is not None:
                violations.append((psi.at_index(n), owner, g, n))
        if not violations:
            result = (sol, work_rows)
            break
        for viol, owner, g, n in sorted(violations, key=lambda t: -t[0]):
            p = g.piece_at(n)
            if p.label not in seen:
                seen.add(p.label)
                work_rows.append(row(owner, p))
    if result is None:
        worst = max(v for v, *_ in violations)
        raise UnconvergedError(Interval(sol.value, sol.value + worst))

    sol, final_rows = result
    hedge = HedgeSequence()
    for owner, idx in var_of.items():
        hedge.set(tree.node(owner).time, owner, sol.x[idx])
    strategy = SimpleStrategy(
        sol.value, hedge, start_time=start.time, start_node=nid
    )
    active = sorted(final_rows[i][2] for i in sol.tight)
    note = "model value (aggregated nonnegative-strategy program)"
    return PriceResult(sol.value, True, strategy, active, note)


def expectation(
    tree: TrajectoryTree, measure: dict[str, Fraction], f: PayoffSpec
) -> Fraction:
    """Expected payoff of a leaf measure (exact)."""
    total = Fraction(0)
    for leaf, p in measure.items():
        total += p * f.node_values[tree.ancestor_at(leaf, f.maturity)]
    return total


def explicit_reduction(tree: TrajectoryTree, members: int = 1) -> TrajectoryTree:
    """Replace each family by its first members as explicit branches."""
    out = TrajectoryTree(tree.root_value, tree.horizon, root_id=tree.root)

    def kids(nid: str):
        return iter(sorted(tree.node(nid).children, key=lambda c: c[1]))

    # depth first: a child's whole subtree goes in before its next sibling,
    # and a node's member branches after all of its children's
    stack = [(tree.root, kids(tree.root))]
    while stack:
        nid, rest = stack[-1]
        nxt = next(rest, None)
        if nxt is not None:
            inc, child = nxt
            out.add_child(nid, inc, child)
            stack.append((child, kids(child)))
            continue
        stack.pop()
        for fid in sorted(tree.node(nid).families):
            fam = tree.family(fid)
            for n in range(fam.n0, fam.n0 + members):
                mid = f"{fid}.m{n}"
                out.add_child(nid, fam.increment(n), mid)
                cur = mid
                for t in range(tree.node(nid).time + 2, tree.horizon + 1):
                    nxt_id = f"{mid}.c{t}"
                    out.add_child(cur, 0, nxt_id)
                    cur = nxt_id

    out.validate()
    return out
