"""Reference bounds quoted by the paper.

* Korach–Moran–Zaks (SIAM J. Comput. 16, 1987): any distributed algorithm
  constructing a degree-≤k spanning tree on a **complete** network of n
  processors exchanges Ω(n²/k) messages in the worst case — the paper's
  near-optimality yardstick (§1 and Conclusion).
* Fürer–Raghavachari: polynomial algorithms can guarantee Δ* + 1 but not
  Δ* (unless P = NP), so +1 is the right quality target.
* Paper's own budgets (§4.2): per-round and total message/time bounds,
  exposed as functions so benchmarks print claim-vs-measured side by side.
"""

from __future__ import annotations

__all__ = [
    "kmz_lower_bound",
    "fr_quality_guarantee",
    "paper_round_message_budget",
    "paper_total_message_budget",
    "paper_total_time_budget",
    "paper_round_count",
    "rounds_within_claim",
]


def kmz_lower_bound(n: int, k: int) -> float:
    """Ω(n²/k) message lower bound on complete graphs (KMZ 1987)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1, k >= 1")
    return n * n / k


def fr_quality_guarantee(optimal_degree: int) -> int:
    """Best polynomial-time quality: Δ* + 1."""
    if optimal_degree < 0:
        raise ValueError("degree must be non-negative")
    return optimal_degree + 1


def paper_round_message_budget(n: int, m: int) -> int:
    """§4.2 per-round budget: SearchDegree (n−1) + MoveRoot (n−1) +
    Cut/BFS (2m) + Choose (n−1) = 2m + 3(n−1) messages."""
    return 2 * m + 3 * (n - 1)


def paper_round_count(k: int, k_star: int) -> int:
    """§4.2: the algorithm performs k − k* + 1 rounds."""
    if k < k_star:
        raise ValueError("initial degree below final degree")
    return k - k_star + 1


def rounds_within_claim(rounds: int, k: int, k_star: int) -> bool:
    """The round-count check of ``certify`` and table T4: at most
    2·(k − k* + 1) + 2 rounds, slack for discovery and polish rounds."""
    return rounds <= 2 * paper_round_count(k, k_star) + 2


def paper_total_message_budget(n: int, m: int, k: int, k_star: int) -> int:
    """O((k − k*) m): round budget × round count."""
    return paper_round_count(k, k_star) * paper_round_message_budget(n, m)


def paper_total_time_budget(n: int, k: int, k_star: int) -> int:
    """O((k − k*) n) time units (unit message delays)."""
    return paper_round_count(k, k_star) * 4 * n
