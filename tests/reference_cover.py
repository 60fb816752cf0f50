"""``analysis._all_descendants_covered`` as it stood while
``Analysis.fully_covered`` and ``EventSet.subset_of`` walked a node's subtree
on every call.

A verbatim copy.  ``test_analysis.py`` compares ``EventSet.fully_covered_nodes``,
which decides every node in one bottom-up pass, against it.
"""

from trajhedge.analysis import EventSet
from trajhedge.poly import subtract_ranges
from trajhedge.model import TrajectoryTree


def _all_descendants_covered(tree: TrajectoryTree, nid: str, ev: "EventSet") -> bool:
    """Does every path strictly below nid meet a node atom of ev, and every
    family on the way have all its members covered?"""
    stack = [nid]
    while stack:
        node = tree.node(stack.pop())
        if node.is_leaf:
            return False
        for fid in node.families:
            if subtract_ranges([(tree.family(fid).n0, None)], ev.member_ranges(fid)):
                return False
        stack.extend(child for _, child in node.children if child not in ev.node_atoms)
    return True
