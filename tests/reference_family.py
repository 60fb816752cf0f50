"""``pricing._family_constraints`` as it stood while a size knob split bounded
member ranges between plain pieces and scan groups.

A verbatim copy, with its constant ``EXPAND_LIMIT``: at a harvest node only
zero-increment members constrain; elsewhere a member range of at most
``EXPAND_LIMIT`` members becomes plain pieces and the rest stay scan groups.
``test_pricing.py`` runs the operators with it in place of today's builder,
which makes every such range a scan group.
"""

from typing import Sequence

from trajhedge.analysis import IncrementSummary
from trajhedge.lp import AffinePiece
from trajhedge.model import Node, Piece, TrajectoryTree
from trajhedge.poly import grid_summary
from trajhedge.pricing import PricingError, ScanGroup

EXPAND_LIMIT = 64  # bounded member ranges up to this size become plain rows


def _family_constraints(
    tree: TrajectoryTree,
    s: IncrementSummary,
    node: Node,
    family_pieces: dict[str, Sequence[Piece]],
) -> tuple[list[AffinePiece], list[ScanGroup]]:
    """Member constraints of a node's families, as plain pieces and scan groups.

    At a harvest node every moving member is a harvested cylinder, so only
    the zero-increment members constrain; elsewhere member ranges of at most
    EXPAND_LIMIT become plain pieces and the rest stay scan groups."""
    fixed: list[AffinePiece] = []
    groups: list[ScanGroup] = []
    for fid in sorted(node.families):
        fam = tree.family(fid)
        if fid not in family_pieces:
            raise PricingError(f"no continuation values for family {fid!r}")
        scans = [
            ScanGroup(fid, fam.poly, vpoly, lo, hi)
            for lo, hi, vpoly in family_pieces[fid]
        ]
        if s.plus_ray or s.minus_ray:
            zeros = grid_summary(fam.poly, fam.n0, None).zeros
            for g in scans:
                fixed.extend(
                    g.piece_at(n)
                    for n in zeros
                    if n >= g.n_lo and (g.n_hi is None or n <= g.n_hi)
                )
            continue
        for g in scans:
            if g.n_hi is not None and g.n_hi - g.n_lo + 1 <= EXPAND_LIMIT:
                fixed.extend(g.piece_at(n) for n in range(g.n_lo, g.n_hi + 1))
            else:
                groups.append(g)
    return fixed, groups
