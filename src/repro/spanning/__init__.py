"""Distributed and reference spanning-tree construction (startup phase)."""

from .base import SpanningTreeOutcome, extract_tree
from .dfs_token import DfsTreeProcess, make_dfs_factory
from .extinction import ExtinctionProcess
from .flood_bfs import EchoTreeProcess, make_echo_factory
from .ghs import GhsProcess, make_ghs_factory
from .preconstructed import (
    bfs_tree,
    dfs_tree,
    greedy_hub_tree,
    kruskal_mst,
    random_spanning_tree,
)
from .provider import INITIAL_METHODS, build_spanning_tree

__all__ = [
    "SpanningTreeOutcome",
    "extract_tree",
    "build_spanning_tree",
    "INITIAL_METHODS",
    "EchoTreeProcess",
    "make_echo_factory",
    "ExtinctionProcess",
    "DfsTreeProcess",
    "make_dfs_factory",
    "GhsProcess",
    "make_ghs_factory",
    "bfs_tree",
    "dfs_tree",
    "greedy_hub_tree",
    "random_spanning_tree",
    "kruskal_mst",
]
