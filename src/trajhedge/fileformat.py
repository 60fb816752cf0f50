"""Line-oriented text formats for trees, payoffs, processes, decompositions.

Tree documents::

    tree s0=<rational> horizon=<int>
    node <id> t=<int>
    child <parent-id> inc=<rational> -> <child-id>
    family <parent-id> poly=<c0>,<c1>,...,<c4> n0=<int> [id=<name>] [const]

Payoff documents::

    payoff maturity=<int>
    at <node-id> = <rational>
    at-family <family-id> poly=<c0>,... [from=<int>] [to=<int>]

Process documents are a ``process horizon=<int>`` header followed by one
payoff block per time.  Decomposition documents mirror the payoff format with
``hedge``/``alpha``/``exception`` lines.  Rationals are written ``p`` or
``p/q``: ``p`` an optionally signed run of ASCII digits, ``q`` an unsigned,
nonzero one; any other literal is a ParseError at its line.
``#`` starts a comment.  Family ids default to ``<parent>.f<k>``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import (
    HedgeSequence,
    MINUS_INF,
    ModelError,
    PayoffSpec,
    Piece,
    ProcessSequence,
    QueryError,
    TrajectoryTree,
)
from .poly import Poly, intersect_ranges, parse_rat, rat_str


class ParseError(QueryError):
    """Malformed input at ``line_no`` of a document; line 0 stands for input
    outside any document (an unreadable file, a command-line argument)."""

    def __init__(self, message: str, line_no: int, column: int = 1):
        super().__init__(f"line {line_no}, col {column}: {message}" if line_no else message)
        self.line_no = line_no
        self.column = column


def _tokenize(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _kv(tokens, key, line_no, required=True) -> Optional[str]:
    prefix = key + "="
    for tok in tokens:
        if tok.startswith(prefix):
            return tok[len(prefix):]
    if required:
        raise ParseError(f"missing {key}=", line_no)
    return None


def _after(tokens, key, line_no, message) -> str:
    """The token that follows ``key``; ParseError(message) when there is none."""
    if key not in tokens[:-1]:
        raise ParseError(message, line_no)
    return tokens[tokens.index(key) + 1]


def _family(tree: TrajectoryTree, fid: str, line_no: int):
    try:
        return tree.family(fid)
    except ModelError as exc:
        raise ParseError(str(exc), line_no) from exc


def _known_node(tree: TrajectoryTree, nid: str, line_no: int):
    node = tree.nodes.get(nid)
    if node is None:
        raise ParseError(f"unknown node id {nid!r}", line_no)
    return node


def _member_window(toks, fam, windows: list, line_no: int, what: str) -> None:
    """Append the ``(lo, hi, poly)`` piece of an at-family line to the pieces
    already read for its family.  A window that is empty, starts below
    ``n0`` or overlaps an earlier one is a ParseError at this line."""
    poly = _parse_poly(_kv(toks, "poly", line_no), line_no)
    frm = _kv(toks, "from", line_no, required=False)
    to = _kv(toks, "to", line_no, required=False)
    lo = _parse_int(frm, line_no) if frm else fam.n0
    hi = _parse_int(to, line_no) if to else None
    if lo < fam.n0 or (hi is not None and hi < lo):
        raise ParseError(f"empty {what} window or one below n0={fam.n0}", line_no)
    if any(intersect_ranges((lo, hi), w[:2]) for w in windows):
        raise ParseError(f"{what} windows of {fam.fid!r} overlap", line_no)
    windows.append((lo, hi, poly))


# ---------------------------------------------------------------------------
# trees


def parse_tree(text: str) -> TrajectoryTree:
    """Parse and fully validate a trajectory-set document.  A validation
    fault is reported at the line that introduced its node or family."""
    header: Optional[tuple[Fraction, int]] = None  # (s0, horizon)
    declared: dict[str, int] = {}
    node_lines: dict[str, int] = {}
    fam_lines: dict[str, int] = {}
    root_id: Optional[str] = None
    pending: list[tuple[int, list[str]]] = []
    known: dict[str, Fraction] = {}  # each literal of the document, parsed once
    for line_no, toks in _tokenize(text):
        kind = toks[0]
        if kind == "tree":
            if header is not None:
                raise ParseError("duplicate tree header", line_no)
            s0 = _parse_rat(_kv(toks[1:], "s0", line_no), line_no, known)
            horizon = _parse_int(_kv(toks[1:], "horizon", line_no), line_no)
            if horizon < 0:
                raise ParseError("horizon must be >= 0", line_no)
            header = s0, horizon
        elif kind == "node":
            if len(toks) < 3:
                raise ParseError("node line needs an id and t=", line_no)
            nid = toks[1]
            t = _parse_int(_kv(toks[2:], "t", line_no), line_no)
            if nid in declared:
                raise ParseError(f"duplicate node declaration {nid!r}", line_no)
            declared[nid], node_lines[nid] = t, line_no
            if t == 0:
                if root_id is not None:
                    raise ParseError("two nodes declared at t=0", line_no)
                root_id = nid
        elif kind in ("child", "family"):
            if len(toks) < 2:
                raise ParseError(f"{kind} line needs a parent id", line_no)
            pending.append((line_no, toks))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)
    if header is None:
        raise ParseError("missing tree header", 1)
    if root_id is None:
        raise ParseError("no node declared at t=0", 1)
    tree = TrajectoryTree(*header, root_id=root_id)

    seen_edges: set[str] = set()
    # a line waits, under its parent's id, until that parent is attached;
    # attaching a node releases its waiting lines in document order
    waiting: dict[str, list[tuple[int, list[str]]]] = {}
    ready = pending[::-1]  # a stack: the next line is on top
    while ready:
        line_no, toks = ready.pop()
        parent = toks[1]
        if parent not in tree.nodes:
            waiting.setdefault(parent, []).append((line_no, toks))
            continue
        try:
            if toks[0] == "child":
                child = _after(toks, "->", line_no, "child line needs '->' target")
                inc = _parse_rat(_kv(toks[2:], "inc", line_no), line_no, known)
                if child in seen_edges:
                    raise ParseError(f"node {child!r} has two parents", line_no)
                seen_edges.add(child)
                if child in declared and declared[child] != tree.nodes[parent].time + 1:
                    raise ParseError(
                        f"node {child!r} declared at t={declared[child]} but "
                        f"attached at t={tree.nodes[parent].time + 1}",
                        line_no,
                    )
                tree.add_child(parent, inc, child)
                node_lines[child] = line_no
                if child in waiting:
                    ready.extend(reversed(waiting.pop(child)))
            else:
                poly = _parse_poly(_kv(toks[2:], "poly", line_no), line_no)
                n0 = _parse_int(_kv(toks[2:], "n0", line_no), line_no)
                fid = _kv(toks[2:], "id", line_no, required=False)
                fam_lines[tree.add_family(parent, poly, n0, fid)] = line_no
        except ModelError as exc:
            raise ParseError(str(exc), line_no) from exc
    if waiting:
        line_no, toks = min(w for lines in waiting.values() for w in lines)
        raise ParseError(f"unreachable parent {toks[1]!r}", line_no)

    for nid, t in declared.items():
        if nid not in tree.nodes:
            raise ParseError(f"declared node {nid!r} never attached", node_lines[nid])
        if tree.nodes[nid].time != t:
            raise ParseError(f"node {nid!r} time mismatch", node_lines[nid])
    try:
        tree.validate()
    except ModelError as exc:
        line = fam_lines.get(exc.fid) or node_lines.get(exc.nid, 1)
        raise ParseError(str(exc), line) from exc
    return tree


def render_tree(tree: TrajectoryTree) -> str:
    lines = [f"tree s0={rat_str(tree.root_value)} horizon={tree.horizon}"]
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        lines.append(f"node {nd.nid} t={nd.time}")
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        for inc, child in sorted(nd.children, key=lambda c: c[1]):
            lines.append(f"child {nd.nid} inc={rat_str(inc)} -> {child}")
        for fid in sorted(nd.families):
            fam = tree.families[fid]
            lines.append(
                f"family {nd.nid} poly={fam.poly.format_coeffs()} n0={fam.n0} id={fid} const"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# payoffs


def parse_payoff(text: str, tree: TrajectoryTree) -> PayoffSpec:
    lines = list(_tokenize(text))
    spec, header, fam_lines = _parse_payoff_block(lines, tree, {})
    try:
        spec.validate(tree)
    except ModelError as exc:
        raise ParseError(str(exc), fam_lines.get(exc.fid, header)) from exc
    _check_at_lines(spec, lines, tree)
    return spec


def _check_at_lines(spec: PayoffSpec, lines, tree: TrajectoryTree) -> None:
    """A validated payoff has a value at every node at its maturity, so it
    holds more values exactly when some at line of its block names an
    unknown node or one at another time: a ParseError at that line."""
    if len(spec.node_values) == len(tree.nodes_at_time(spec.maturity)):
        return
    for line_no, toks in lines:
        if toks[0] == "at" and _known_node(tree, toks[1], line_no).time != spec.maturity:
            raise ParseError(f"at {toks[1]!r}: node not at time {spec.maturity}", line_no)


def _parse_payoff_block(
    lines, tree: TrajectoryTree, known: dict[str, Fraction]
) -> tuple[PayoffSpec, int, dict[str, int]]:
    """The payoff of a block, unvalidated, with the line of its header and
    the first at-family line of each family: a family's cover fault is
    reported at the latter, any other fault at the header.  ``known`` holds
    the literals its document has parsed."""
    maturity: Optional[int] = None
    header = 1
    node_values: dict[str, object] = {}
    fam_pieces: dict[str, list[Piece]] = {}
    fam_lines: dict[str, int] = {}
    for line_no, toks in lines:
        kind = toks[0]
        if kind == "payoff":
            if maturity is not None:
                raise ParseError("duplicate payoff header", line_no)
            maturity = _parse_int(_kv(toks[1:], "maturity", line_no), line_no)
            header = line_no
        elif kind == "at":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError("expected: at <node-id> = <rational>", line_no)
            if toks[1] in node_values:
                raise ParseError(f"second at line for node {toks[1]!r}", line_no)
            val = MINUS_INF if toks[3] == "-inf" else _parse_rat(toks[3], line_no, known)
            node_values[toks[1]] = val
        elif kind == "at-family":
            if len(toks) < 2:
                raise ParseError("at-family line needs a family id", line_no)
            fam = _family(tree, toks[1], line_no)
            fam_lines.setdefault(fam.fid, line_no)
            windows = fam_pieces.setdefault(fam.fid, [])
            _member_window(toks[2:], fam, windows, line_no, "payoff")
        else:
            raise ParseError(f"unknown payoff directive {kind!r}", line_no)
    if maturity is None:
        raise ParseError("missing payoff header", 1)
    pieces = {f: tuple(sorted(p)) for f, p in fam_pieces.items()}
    return PayoffSpec(maturity, node_values, pieces), header, fam_lines


def render_payoff(spec: PayoffSpec) -> str:
    lines = [f"payoff maturity={spec.maturity}"]
    for nid, val in sorted(spec.node_values.items()):
        sval = "-inf" if val == MINUS_INF else rat_str(val)  # type: ignore[arg-type]
        lines.append(f"at {nid} = {sval}")
    for fid, pieces in sorted(spec.family_values.items()):
        for lo, hi, poly in pieces:
            parts = [f"at-family {fid} poly={poly.format_coeffs()}", f"from={lo}"]
            if hi is not None:
                parts.append(f"to={hi}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# processes


def parse_process(text: str, tree: TrajectoryTree) -> ProcessSequence:
    lines = list(_tokenize(text))
    if not lines or lines[0][1][0] != "process":
        raise ParseError("missing process header", lines[0][0] if lines else 1)
    horizon = _parse_int(_kv(lines[0][1][1:], "horizon", lines[0][0]), lines[0][0])
    if horizon != tree.horizon:
        raise ParseError("process horizon differs from tree horizon", lines[0][0])
    blocks: list[list] = []
    for line_no, toks in lines[1:]:
        if toks[0] == "payoff":
            blocks.append([])
        if not blocks:
            raise ParseError("content before first payoff block", line_no)
        blocks[-1].append((line_no, toks))
    known: dict[str, Fraction] = {}
    parsed = [_parse_payoff_block(block, tree, known) for block in blocks]
    try:
        proc = ProcessSequence(tree, [spec for spec, _, _ in parsed])
    except ModelError as exc:
        if exc.entry is None:  # the number of entries
            raise ParseError(str(exc), lines[0][0]) from exc
        _, header, fam_lines = parsed[exc.entry]
        raise ParseError(str(exc), fam_lines.get(exc.fid, header)) from exc
    for spec, block in zip(proc.specs, blocks):
        _check_at_lines(spec, block, tree)
    return proc


def render_process(proc: ProcessSequence) -> str:
    head = f"process horizon={proc.tree.horizon}\n"
    return head + "".join(render_payoff(spec) for spec in proc.specs)


# ---------------------------------------------------------------------------
# decompositions (document form; the dataclass lives in decomposition.py)


def render_decomposition(d) -> str:
    lines = [
        "decomposition base=" + rat_str(d.base),
        "deltas " + ",".join(rat_str(x) for x in d.deltas),
    ]
    for (t, nid), h in d.hedge.items():
        lines.append(f"hedge t={t} at {nid} = {rat_str(h)}")
    for j, alpha in enumerate(d.alphas):
        # the at and at-family lines of render_payoff, after its header
        lines.extend(f"alpha t={j} {line}" for line in render_payoff(alpha).splitlines()[1:])
    for atom in d.exception_set.atoms_sorted():
        lines.append("exception " + atom)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, tree: TrajectoryTree):
    from .analysis import EventSet, FamilyAtom, NodeAtom
    from .decomposition import Decomposition

    base = None
    known: dict[str, Fraction] = {}
    deltas: list[Fraction] = []
    hedge = HedgeSequence()
    alphas: dict[int, dict] = {}
    atoms = []
    for line_no, toks in _tokenize(text):
        kind = toks[0]
        if kind == "decomposition":
            base = _parse_rat(_kv(toks[1:], "base", line_no), line_no, known)
        elif kind == "deltas":
            if len(toks) < 2:
                raise ParseError("deltas line needs comma-separated slacks", line_no)
            deltas = [_parse_rat(p, line_no, known) for p in toks[1].split(",")]
        elif kind == "hedge":
            t = _parse_int(_kv(toks[1:], "t", line_no), line_no)
            nid = _after(
                toks, "at", line_no, "expected: hedge t=<int> at <node-id> = <rational>"
            )
            if _known_node(tree, nid, line_no).time != t:
                raise ParseError(f"hedge t={t} at {nid!r}: node not at time {t}", line_no)
            if (t, nid) in hedge.entries:
                raise ParseError(f"second hedge t={t} at {nid!r}", line_no)
            hedge.set(t, nid, _parse_rat(toks[-1], line_no, known))
        elif kind == "alpha":
            t = _parse_int(_kv(toks[1:], "t", line_no), line_no)
            slot = alphas.setdefault(t, {"nodes": {}, "fams": {}})
            if "at-family" in toks:
                fid = _after(toks, "at-family", line_no, "at-family needs a family id")
                fam = _family(tree, fid, line_no)
                windows = slot["fams"].setdefault(fid, [])
                _member_window(toks, fam, windows, line_no, "alpha")
            else:
                nid = _after(
                    toks, "at", line_no, "expected: alpha t=<int> at <node-id> = <rational>"
                )
                if _known_node(tree, nid, line_no).time != t + 1:
                    raise ParseError(f"alpha t={t} at {nid!r}: node not at time {t + 1}", line_no)
                if nid in slot["nodes"]:
                    raise ParseError(f"second alpha t={t} at {nid!r}", line_no)
                slot["nodes"][nid] = _parse_rat(toks[-1], line_no, known)
        elif kind == "exception":
            if len(toks) >= 3 and toks[1] == "node":
                atoms.append(NodeAtom(_known_node(tree, toks[2], line_no).nid))
            elif len(toks) >= 4 and toks[1] == "family":
                fid = _family(tree, toks[2], line_no).fid
                ranges = []
                for part in toks[3].split(","):
                    lo_txt, _, hi_txt = part.partition("-")
                    lo = _parse_int(lo_txt, line_no)
                    hi = None if hi_txt in ("", "inf") else _parse_int(hi_txt, line_no)
                    if hi is not None and hi < lo:
                        raise ParseError(f"empty exception range {part!r}", line_no)
                    ranges.append((lo, hi))
                atoms.append(FamilyAtom(fid, tuple(ranges)))
            else:
                raise ParseError(
                    "expected: exception node <id> | exception family <id> <ranges>",
                    line_no,
                )
        else:
            raise ParseError(f"unknown decomposition directive {kind!r}", line_no)
    if base is None:
        raise ParseError("missing decomposition header", 1)
    alpha_specs = []
    for j in range(tree.horizon):
        slot = alphas.get(j, {"nodes": {}, "fams": {}})
        alpha_specs.append(
            PayoffSpec(
                j + 1,
                slot["nodes"],
                {f: tuple(sorted(p)) for f, p in slot["fams"].items()},
            )
        )
    return Decomposition(base, hedge, alpha_specs, deltas, EventSet(atoms))


# ---------------------------------------------------------------------------
# scalar helpers


def _parse_rat(text: Optional[str], line_no: int, known: dict[str, Fraction]) -> Fraction:
    """A rational literal; ``known`` maps the literals already parsed in the
    same document to their values, so each is parsed once."""
    text = text or ""
    q = known.get(text)
    if q is None:
        try:
            q = known[text] = parse_rat(text)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return q


def _parse_int(text: Optional[str], line_no: int) -> int:
    try:
        return int(text or "")
    except ValueError as exc:
        raise ParseError(f"bad integer {text!r}", line_no) from exc


def _parse_poly(text: Optional[str], line_no: int) -> Poly:
    try:
        return Poly.parse(text or "")
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from exc
