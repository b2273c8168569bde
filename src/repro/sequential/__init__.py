"""Sequential baselines and reference bounds."""

from .bounds import (
    degree_lower_bound,
    fr_quality_guarantee,
    kmz_lower_bound,
    paper_round_count,
    paper_round_message_budget,
    paper_total_message_budget,
    paper_total_time_budget,
    rounds_within_claim,
)
from .exact import (
    exact_minimum_degree_spanning_tree,
    optimal_degree,
    spanning_tree_with_max_degree,
)
from .fuerer_raghavachari import FRStats, find_fr_improvement, fuerer_raghavachari
from .local_search import find_simple_improvement, local_search_mdst

__all__ = [
    "fuerer_raghavachari",
    "find_fr_improvement",
    "FRStats",
    "local_search_mdst",
    "find_simple_improvement",
    "exact_minimum_degree_spanning_tree",
    "spanning_tree_with_max_degree",
    "optimal_degree",
    "kmz_lower_bound",
    "fr_quality_guarantee",
    "degree_lower_bound",
    "paper_round_count",
    "paper_round_message_budget",
    "paper_total_message_budget",
    "paper_total_time_budget",
    "rounds_within_claim",
]
