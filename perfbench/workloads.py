"""Seeded inputs, queries and answer checks for the benchmark workloads.

Every generated input is built here from a seed, through the public model API
only (``TrajectoryTree.add_child``, ``add_family``, ``validate`` and the
``render_*`` functions), so that changes to the test generators cannot move
the workloads.  A model that ``validate`` rejects is rebuilt from the next
draws of the same generator.

A *query* is one user-level request: it starts from the rendered text, parses
it, and ends with an exact answer.  ``Query.run`` is the timed part;
``Query.canon`` turns the answer into a canonical string of exact values, and
``Query.check`` runs the slower cross-checks that decide whether the answer is
right.  Neither of the last two runs inside a timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Optional

import trajhedge as th
from trajhedge import (
    MINUS_INF,
    Interval,
    ModelError,
    PayoffSpec,
    ProcessSequence,
    TrajectoryTree,
    render_payoff,
    render_process,
    render_tree,
)
from trajhedge.poly import Poly, grid_summary, rat_str

INC_POS = [Q(1, 3), Q(1, 2), Q(1), Q(2)]
INC_NEG = [Q(-2), Q(-1), Q(-1, 2), Q(-1, 3)]
VALUES = [Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)]
SLACKS = [Q(0), Q(1, 4), Q(1, 2), Q(1)]
FAMILY_POLYS = [
    Poly.parse("0,1"),     # t
    Poly.parse("0,-1"),    # -t
    Poly.parse("0,0,1"),   # t^2
    Poly.parse("0,0,-1"),  # -t^2
    Poly.parse("0,1,-1"),  # t - t^2, zero at n=1
    Poly.parse("1,-2"),    # 1 - 2t, zero at n=2
]
DELTA = Q(1, 10)  # decomposition slack per period
HEDGE_UNITS = [Q(1), Q(0), Q(-1), Q(1, 2)]  # martingale part of the k-th process


def fmt(v) -> str:
    """Canonical text of an exact value; intervals are marked as failures."""
    if isinstance(v, Interval):
        return f"INTERVAL[{rat_str(v.lo)},{rat_str(v.hi)}]"
    if v == MINUS_INF:
        return "-inf"
    return rat_str(v)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# generators


def build_valid(rng: random.Random, make: Callable[[random.Random], TrajectoryTree]):
    """Draw trees from ``make`` until one passes ``validate``."""
    for _ in range(100):
        tree = make(rng)
        try:
            tree.validate()
        except ModelError:
            continue
        return tree
    raise RuntimeError("generator produced no valid tree in 100 draws")


def level_sizes(depth: int, nodes: int) -> list[int]:
    """Nodes per level of a tree with about ``nodes`` nodes and branching <= 3.

    Depends on (depth, nodes) only, so every seed gets the same level sizes.
    """
    lo, hi = 1.0, 3.0
    for _ in range(60):
        g = (lo + hi) / 2
        if sum(g ** t for t in range(depth + 1)) < nodes:
            lo = g
        else:
            hi = g
    sizes = [1]
    for t in range(1, depth + 1):
        prev = sizes[-1]
        sizes.append(max(prev, min(3 * prev, round(lo ** t))))
    return sizes


def explicit_tree(rng: random.Random, depth: int, nodes: int) -> TrajectoryTree:
    """Arbitrage-free explicit tree: every node up-down or a flat step.

    The number of nodes with one (flat), two and three children on each level
    depends on (depth, nodes) only; the seed picks which nodes they are, the
    increments and the root value.  Fixed shape statistics keep the work of a
    tree of a given size close across seeds.
    """
    sizes = level_sizes(depth, nodes)

    def make(rng: random.Random) -> TrajectoryTree:
        tree = TrajectoryTree(rng.choice(VALUES[1:]), depth)
        ids = (f"n{k}" for k in itertools.count(1))
        level = [tree.root]
        for t in range(depth):
            counts = branching(len(level), sizes[t + 1])
            rng.shuffle(counts)
            nxt = []
            for nid, k in zip(level, counts):
                if k == 1:
                    incs = [Q(0)]
                else:
                    incs = [rng.choice(INC_POS), rng.choice(INC_NEG)]
                    if k == 3:
                        incs.append(rng.choice([i for i in INC_POS + INC_NEG + [Q(0)]
                                                if i not in incs]))
                for inc in incs:
                    nxt.append(tree.add_child(nid, inc, next(ids)))
            level = nxt
        return tree

    return build_valid(rng, make)


def branching(parents: int, children: int) -> list[int]:
    """Children per parent: about 15% flat steps, the rest two or three."""
    flats = round(0.15 * parents)
    threes = children - flats - 2 * (parents - flats)
    if threes < 0:
        flats, threes = 2 * parents - children, 0
    threes = min(threes, parents - flats)
    return [1] * flats + [3] * threes + [2] * (parents - flats - threes)


def family_tree(rng: random.Random, depth: int = 3) -> TrajectoryTree:
    """Binary +-1 tree with countable families at two internal nodes."""

    def make(rng: random.Random) -> TrajectoryTree:
        tree = TrajectoryTree(Q(1), depth)
        ids = (f"n{k}" for k in itertools.count(1))
        level, internal = [tree.root], []
        for _ in range(depth):
            internal += level
            level = [tree.add_child(nid, inc, next(ids)) for nid in level for inc in (Q(1), Q(-1))]
        for nid in sorted(rng.sample(internal, 2)):
            # n0 >= 2 keeps member increments strictly inside (-1, 1)
            tree.add_family(nid, rng.choice(FAMILY_POLYS), rng.choice((2, 3)))
        return tree

    return build_valid(rng, make)


def flagship_tree(rng: random.Random, up_family: bool, quadratic: bool) -> TrajectoryTree:
    """Two-branch shape: a sure-win up branch and a near-zero down family.

    The up node continues either with a family of positive increments or with
    two explicit up moves.  ``quadratic`` restricts the down family to
    increments -c/n^2; otherwise they may also be -1/n.
    """

    def make(rng: random.Random) -> TrajectoryTree:
        tree = TrajectoryTree(rng.choice([Q(1), Q(2)]), 2)
        u = tree.add_child(tree.root, rng.choice([Q(1, 2), Q(1), Q(2)]), "u")
        if up_family:
            tree.add_family(u, rng.choice([Poly.parse("0,1"), Poly.parse("0,1/2")]),
                            rng.choice((1, 2)), "uptail")
        else:
            tree.add_child(u, rng.choice([Q(1, 3), Q(1, 2)]), "ua")
            tree.add_child(u, rng.choice([Q(1), Q(2)]), "ub")
        downs = [Poly.parse("0,0,-1"), Poly.parse("0,0,-1/2")]
        down = rng.choice(downs if quadratic else downs + [Poly.parse("0,-1")])
        tree.add_family(tree.root, down, rng.choice((1, 2, 3)), "down")
        return tree

    return build_valid(rng, make)


def payoff(rng: random.Random, tree: TrajectoryTree, maturity: int,
           nonneg: bool, slopes: Optional[dict] = None) -> PayoffSpec:
    """Random values at maturity; family members get base + slope * t.

    ``slopes`` narrows the slope choices of the named families.
    """
    pool = VALUES if nonneg else VALUES + [Q(-1), Q(-2)]
    nodes = {nd.nid: rng.choice(pool) for nd in tree.nodes_at_time(maturity)}
    fams = {}
    for fam in tree.families_born_by(maturity):
        default = [Q(0), Q(1), Q(2)] if nonneg else [Q(0), Q(1), Q(-1), Q(2)]
        slope = rng.choice((slopes or {}).get(fam.fid, default))
        fams[fam.fid] = ((fam.n0, None, Poly([rng.choice(pool), slope])),)
    return PayoffSpec(maturity, nodes, fams)


def supermartingale(rng: random.Random, tree: TrajectoryTree, a: Q,
                    slopes: Optional[dict] = None) -> ProcessSequence:
    """f_j = a * S_j + c_j with c dominating the maximum of its successors.

    Holding ``a`` units hedges the ``a * S`` part exactly and the position
    zero covers ``c``, so every one-step price of f_{j+1} is at most f_j
    whatever the kernel waives.  Family members carry ``a * S`` plus an affine
    term in t = 1/n and stay constant after birth, so they never climb;
    ``slopes`` narrows the choices of that term's slope for the named families.
    """
    T = tree.horizon
    extra: dict[str, Poly] = {}  # member offset c as a polynomial in t
    for fid in tree.families:
        slope = rng.choice((slopes or {}).get(fid, [Q(0), Q(1), Q(-1)]))
        extra[fid] = Poly([rng.choice(VALUES), slope])
    c: dict[str, Q] = {}
    for t in range(T, -1, -1):
        for nd in tree.nodes_at_time(t):
            if nd.is_leaf:
                c[nd.nid] = rng.choice(VALUES)
                continue
            succ = [c[child] for _, child in nd.children]
            for fid in nd.families:
                fam, off = tree.family(fid), extra[fid]
                # sup over n >= n0 of off(1/n) for an affine off
                succ.append(off.constant_term + max(Q(0), off.at_index(fam.n0) - off.constant_term))
            c[nd.nid] = max(succ) + rng.choice(SLACKS)
    specs = []
    for j in range(T + 1):
        nodes = {nd.nid: a * nd.value + c[nd.nid] for nd in tree.nodes_at_time(j)}
        fams = {}
        for fam in tree.families_born_by(j):
            s_parent = tree.node(fam.parent).value
            member = fam.poly.scale(a).shift(a * s_parent) + extra[fam.fid]
            fams[fam.fid] = ((fam.n0, None, member),)
        specs.append(PayoffSpec(j, nodes, fams))
    return ProcessSequence(tree, specs)


# ---------------------------------------------------------------------------
# queries
#
# Query bodies call the library through the ``th`` module attributes so that
# the traced run, which rebinds those attributes, sees every call.


@dataclass
class Query:
    name: str
    texts: tuple  # rendered inputs, parsed inside ``run``
    run: Callable[[], dict]
    canon: Callable[[dict], str]
    check: Callable[[dict], list]
    nodes: int = 0  # explicit nodes of the query's tree


def certificate_failures(tree, f: PayoffSpec, res) -> list:
    """Where the i_bar certificate's wealth falls below f off the null cover."""
    if res.hedge is None:
        return ["no certificate"]
    cover = th.analyze(tree).null_cover
    out = []
    for nd in tree.nodes_at_time(f.maturity):
        if cover.covers_path(tree, nd.nid):
            continue
        if th.wealth(tree, res.hedge, nd.nid) < f.node_values[nd.nid]:
            out.append(f"wealth below payoff at {nd.nid}")
    for fam in tree.families_born_by(f.maturity):
        w = th.wealth_on_member(tree, res.hedge, fam.fid)
        for lo, hi in cover.uncovered_member_ranges(tree, fam.fid):
            for p_lo, p_hi, poly in f.family_values[fam.fid]:
                s_lo = max(lo, p_lo)
                s_hi = p_hi if hi is None else (hi if p_hi is None else min(hi, p_hi))
                if s_hi is not None and s_lo > s_hi:
                    continue
                diff = w - poly
                if not diff.is_zero() and grid_summary(diff, s_lo, s_hi).has_neg:
                    out.append(f"wealth below payoff on {fam.fid} n>={s_lo}")
    return out


def price_canon(ans: dict) -> str:
    r = ans["result"]
    return f"value={fmt(r.value)} attained={r.attained}"


# -- explicit-scale ----------------------------------------------------------

# (depth, approximate nodes) of the trees of one pass.  About 170 nodes on
# average keeps the mean query near 80 ms, so that a run pools well over 100
# latency samples; one tree of 1000 nodes keeps the scale.
EXPLICIT_SIZES = [(5, 100)] * 10 + [(5, 120)] * 4 + [(6, 150)] * 2 + [
    (6, 200), (7, 300), (7, 1000)]


def explicit_scale(seed: int) -> list[Query]:
    rng = random.Random(f"explicit-scale:{seed}")
    queries = []
    for k, (depth, nodes) in enumerate(EXPLICIT_SIZES):
        tree = explicit_tree(rng, depth, nodes)
        texts = (
            render_tree(tree),
            render_payoff(payoff(rng, tree, depth, nonneg=False)),
            render_payoff(payoff(rng, tree, depth, nonneg=True)),
            render_process(supermartingale(rng, tree, HEDGE_UNITS[k % len(HEDGE_UNITS)])),
        )
        queries.append(Query(f"explicit-{k}", texts, _explicit_run(*texts),
                             _explicit_canon, _explicit_check, len(tree.nodes)))
    return queries


def _explicit_run(tree_txt, f_txt, g_txt, proc_txt):
    def run() -> dict:
        tree = th.parse_tree(tree_txt)
        f = th.parse_payoff(f_txt, tree)
        g = th.parse_payoff(g_txt, tree)
        proc = th.parse_process(proc_txt, tree)
        a = th.analyze(tree)
        sb = th.sigma_bar(tree, f)
        sall = th.sigma_bar_all(tree, f)
        ib = th.i_bar_backward(tree, g)
        sm = th.check_supermartingale(tree, proc)
        d = th.doob_decompose(tree, proc, [DELTA] * tree.horizon)
        verified = th.verify_decomposition(tree, proc, d)
        return {"tree": tree, "f": f, "analysis": a, "sigma": sb, "sigma_all": sall,
                "ibar_backward": ib, "supermartingale": sm, "verified": verified}
    return run


def _explicit_canon(ans: dict) -> str:
    a = ans["analysis"]
    return "|".join([
        "classes=" + ",".join(a.node_class[n].value for n in sorted(a.node_class)),
        f"sigma={fmt(ans['sigma'].value)} attained={ans['sigma'].attained}",
        "sigma_all=" + ",".join(f"{n}:{fmt(v)}" for n, v in sorted(ans["sigma_all"].items())),
        f"ibar_backward={fmt(ans['ibar_backward'])}",
        f"supermartingale={ans['supermartingale'][0]}",
        f"verified={ans['verified'][0]}",
    ])


def _explicit_check(ans: dict) -> list:
    out = []
    tree, sb = ans["tree"], ans["sigma"]
    if sb.value != th.dual_price(tree, ans["f"]):
        out.append("sigma_bar differs from dual_price")
    if ans["sigma_all"][tree.root] != sb.value:
        out.append("sigma_bar_all differs from sigma_bar at the root")
    if not ans["supermartingale"][0]:
        out.append("generated process is not a supermartingale")
    if not ans["verified"][0]:
        out.append("decomposition fails verification: " + ans["verified"][1])
    return out


# -- ibar-lp -----------------------------------------------------------------

# (depth, approximate nodes) of the trees of one pass: a ladder of sizes on
# which the simplex cost climbs steeply, several trees per size because the
# cost of one tree varies by about 20% with its values
IBAR_SIZES = [(3, 15)] * 4 + [(3, 20)] * 4 + [(4, 30)] * 3 + [(4, 40)] * 2 + [(5, 50), (5, 60)]


def ibar_lp(seed: int) -> list[Query]:
    rng = random.Random(f"ibar-lp:{seed}")
    queries = []
    for k, (depth, nodes) in enumerate(IBAR_SIZES):
        tree = explicit_tree(rng, depth, nodes)
        texts = (render_tree(tree), render_payoff(payoff(rng, tree, depth, nonneg=True)))
        queries.append(Query(f"ibar-{k}", texts, _ibar_run(*texts), price_canon,
                             _ibar_check, len(tree.nodes)))
    return queries


def _ibar_run(tree_txt, f_txt):
    def run() -> dict:
        tree = th.parse_tree(tree_txt)
        f = th.parse_payoff(f_txt, tree)
        return {"tree": tree, "f": f, "result": th.i_bar(tree, f)}
    return run


def _ibar_check(ans: dict) -> list:
    tree, f, r = ans["tree"], ans["f"], ans["result"]
    out = certificate_failures(tree, f, r)
    if r.value != th.i_bar_backward(tree, f):
        out.append("i_bar LP differs from i_bar_backward")
    return out


# -- family-drift ------------------------------------------------------------

# Two of every three models are flagship-shaped, the third a depth-3 family
# tree.  Its i_bar program is the slowest query; at one model in three those
# queries stay below the top tenth of latencies, so p90 lands among the
# drifting solves rather than on the edge between two groups.
FAMILY_MODELS = 12


def family_drift(seed: int) -> list[Query]:
    rng = random.Random(f"family-drift:{seed}")
    queries = []
    for k in range(FAMILY_MODELS):
        a = HEDGE_UNITS[k % len(HEDGE_UNITS)]
        if k % 3 != 2:
            # The eight flagship variants (drifting or not, up family or two
            # explicit up moves, maturity 1 or 2) recur in a fixed order, so
            # every seed has the same mix.  A claim and a process that rise in
            # t = 1/n on a down family of increments -c/n^2 make the one-step
            # infimum drift to h -> -inf through many exchange rounds.
            j = k - k // 3
            drift = j % 2 == 0
            tree = flagship_tree(rng, up_family=j // 2 % 2 == 0, quadratic=drift)
            maturity = 1 + j // 4 % 2
            pay_slopes = {"down": [Q(1), Q(2)] if drift else [Q(0)]}
            proc_slopes = {"down": [Q(1)] if drift else [Q(0), Q(-1)]}
        else:
            tree = family_tree(rng)
            maturity = tree.horizon
            pay_slopes = proc_slopes = None
        tree_txt = render_tree(tree)
        f_txt = render_payoff(payoff(rng, tree, maturity, nonneg=True, slopes=pay_slopes))
        proc_txt = render_process(supermartingale(rng, tree, a, proc_slopes))
        n = len(tree.nodes)
        queries += [
            Query(f"model-{k}:sigma", (tree_txt, f_txt), _op_run(tree_txt, f_txt, "sigma_bar"),
                  price_canon, _no_check, n),
            Query(f"model-{k}:ibar-backward", (tree_txt, f_txt),
                  _op_run(tree_txt, f_txt, "i_bar_backward"), _value_canon, _no_check, n),
            Query(f"model-{k}:ibar", (tree_txt, f_txt), _ibar_run(tree_txt, f_txt),
                  price_canon, _ibar_check, n),
            Query(f"model-{k}:null-cover", (tree_txt,), _null_run(tree_txt), _null_canon,
                  _null_check, n),
            Query(f"model-{k}:decompose", (tree_txt, proc_txt),
                  _decompose_run(tree_txt, proc_txt), _decompose_canon, _decompose_check, n),
        ]
    return queries


def _op_run(tree_txt, f_txt, op: str):
    def run() -> dict:
        tree = th.parse_tree(tree_txt)
        f = th.parse_payoff(f_txt, tree)
        return {"tree": tree, "f": f, "result": getattr(th, op)(tree, f)}
    return run


def _value_canon(ans: dict) -> str:
    return f"value={fmt(ans['result'])}"


def _no_check(ans: dict) -> list:
    return []


def _null_run(tree_txt):
    def run() -> dict:
        tree = th.parse_tree(tree_txt)
        return {"tree": tree, "result": th.is_null(tree, th.null_cover(tree))}
    return run


def _null_canon(ans: dict) -> str:
    null, res = ans["result"]
    return f"null={null} value={fmt(res.value)}"


def _null_check(ans: dict) -> list:
    return [] if ans["result"][0] else ["the null cover is not null"]


def _decompose_run(tree_txt, proc_txt):
    def run() -> dict:
        tree = th.parse_tree(tree_txt)
        proc = th.parse_process(proc_txt, tree)
        d = th.doob_decompose(tree, proc, [DELTA] * tree.horizon)
        return {"tree": tree, "verified": th.verify_decomposition(tree, proc, d)}
    return run


def _decompose_canon(ans: dict) -> str:
    return f"verified={ans['verified'][0]}"


def _decompose_check(ans: dict) -> list:
    ok, why = ans["verified"]
    return [] if ok else ["decomposition fails verification: " + why]


# -- corpus ------------------------------------------------------------------

CORPUS_ENTRIES = 27


def corpus(seed: int) -> list[Query]:
    """``trajhedge corpus`` through ``cli.main``; the bundled entries take no seed."""
    return [Query("corpus", (), _corpus_run, _corpus_canon, _corpus_check)]


def _corpus_run() -> dict:
    from trajhedge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus"])
    return {"code": code, "output": out.getvalue()}


def _corpus_canon(ans: dict) -> str:
    return f"code={ans['code']} output_sha256={sha256(ans['output'])}"


def _corpus_check(ans: dict) -> list:
    lines = ans["output"].splitlines()
    out = [line for line in lines[:-1] if not line.startswith("PASS")]
    want = f"{CORPUS_ENTRIES}/{CORPUS_ENTRIES} corpus entries passed"
    if ans["code"] != 0 or not lines or lines[-1] != want:
        out.append("corpus did not pass: " + (lines[-1] if lines else "no output"))
    return out


WORKLOADS = {
    "corpus": corpus,
    "explicit-scale": explicit_scale,
    "family-drift": family_drift,
    "ibar-lp": ibar_lp,
}
