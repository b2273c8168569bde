#!/usr/bin/env python3
"""Quickstart: build a network, run the distributed MDegST protocol,
inspect the result.

The pipeline mirrors the paper exactly:

1. a connected asynchronous network (here: a random geometric graph —
   the radio-network setting that motivates low-degree broadcast trees);
2. a startup spanning tree (§3.1; here the distributed echo construction);
3. the Blin–Butelle protocol, which repeatedly finds the maximum-degree
   node, cuts its children into fragments, BFS-floods the fragments for
   outgoing edges, and exchanges one edge to lower that node's degree;
4. certification against the paper's claims.

Run:  python examples/quickstart.py
"""

from repro.graphs import random_geometric
from repro.mdst import MDSTConfig, run_mdst
from repro.spanning import build_spanning_tree
from repro.verify import certify_run
from repro.viz import render_degree_histogram, render_tree

# 1. the network -----------------------------------------------------------
graph = random_geometric(n=40, radius=0.3, seed=7)
print(f"network: n={graph.n} nodes, m={graph.m} links")

# 2. startup spanning tree (distributed echo/PIF construction) -------------
startup = build_spanning_tree(graph, method="echo", seed=7)
print(
    f"startup tree: degree k={startup.degree} "
    f"({startup.report.total_messages} messages to build)"
)

# 3. the paper's protocol ---------------------------------------------------
result = run_mdst(graph, startup.tree, config=MDSTConfig(mode="concurrent"), seed=7)
print()
print(result.summary())

# 4. what did we gain? ------------------------------------------------------
print()
print("degree histogram before:")
print(render_degree_histogram(result.initial_tree))
print()
print("degree histogram after:")
print(render_degree_histogram(result.final_tree))

print()
print("final tree (top levels):")
print(render_tree(result.final_tree, max_depth=3))

# 5. certification ----------------------------------------------------------
print()
print("certification against the paper's claims:")
print(certify_run(result))
