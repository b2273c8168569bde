"""Certification of trees and runs against the paper's claims."""

from .certification import Judgement, certify_run, judge
from .local_optimality import forest_has_no_crossing_edges
from .tree_checks import assert_degree_not_worse, assert_spanning_tree

__all__ = [
    "assert_spanning_tree",
    "assert_degree_not_worse",
    "forest_has_no_crossing_edges",
    "Judgement",
    "judge",
    "certify_run",
]
