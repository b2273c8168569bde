"""Graph families used as experiment workloads.

Each generator is deterministic in ``(parameters, seed)`` via the
:mod:`repro.rng` substream discipline and returns a *connected*
:class:`~repro.graphs.graph.Graph` (the paper's algorithm is defined on
connected networks). Families are chosen to exercise the paper's claims:

* ``gnp_connected`` / ``random_geometric`` — "general graphs" sweeps (T2/T3);
* ``complete`` — the Korach–Moran–Zaks lower-bound comparison (T5);
* ``hamiltonian_padded`` — known Δ* = 2, so the +1 quality bound is
  checkable at sizes far beyond the exact solver (T1);
* ``star``, ``spider``, ``caterpillar_graph`` — high-degree initial trees
  (T4, T6 worst cases);
* ``ring``/``grid``/``torus``/``hypercube``/``random_regular``/
  ``preferential_attachment``/``wheel``/``lollipop`` — structured topologies
  common in distributed-systems evaluations.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import GraphError, lookup
from ..rng import substream
from .graph import Graph, canonical_edge
from .traversal import connected_components, is_connected

__all__ = [
    "complete",
    "ring",
    "path_graph",
    "star",
    "wheel",
    "grid",
    "torus",
    "hypercube",
    "gnp_connected",
    "random_geometric",
    "random_regular",
    "preferential_attachment",
    "hamiltonian_padded",
    "caterpillar_graph",
    "spider",
    "lollipop",
    "complete_bipartite",
    "barbell",
    "circulant",
    "random_tree",
    "FAMILIES",
    "make_family",
]


def _ids(n: int) -> list[int]:
    if n < 1:
        raise GraphError(f"need n >= 1 nodes, got {n}")
    return list(range(n))


# -- deterministic families -------------------------------------------------


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    ids = _ids(n)
    return Graph(nodes=ids, edges=itertools.combinations(ids, 2))


def ring(n: int) -> Graph:
    """Cycle C_n (n >= 3)."""
    if n < 3:
        raise GraphError("ring needs n >= 3")
    ids = _ids(n)
    return Graph(nodes=ids, edges=[(i, (i + 1) % n) for i in ids])


def path_graph(n: int) -> Graph:
    """Path P_n."""
    ids = _ids(n)
    return Graph(nodes=ids, edges=[(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star S_n: node 0 is the hub of n−1 leaves. Δ* = n−1 (forced)."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Graph(nodes=_ids(n), edges=[(0, i) for i in range(1, n)])


def wheel(n: int) -> Graph:
    """Wheel W_n: hub 0 plus a ring of n−1 nodes, n >= 4."""
    if n < 4:
        raise GraphError("wheel needs n >= 4")
    g = Graph(nodes=_ids(n))
    rim = list(range(1, n))
    for i, u in enumerate(rim):
        g.add_edge(u, rim[(i + 1) % len(rim)])
        g.add_edge(0, u)
    return g


def grid(rows: int, cols: int) -> Graph:
    """rows × cols grid graph."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    g = Graph(nodes=range(rows * cols))
    idx = lambda r, c: r * cols + c  # noqa: E731
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(idx(r, c), idx(r, c + 1))
            if r + 1 < rows:
                g.add_edge(idx(r, c), idx(r + 1, c))
    return g


def torus(rows: int, cols: int) -> Graph:
    """rows × cols torus (grid with wraparound), each dim >= 3."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs both dimensions >= 3")
    g = Graph(nodes=range(rows * cols))
    idx = lambda r, c: r * cols + c  # noqa: E731
    for r in range(rows):
        for c in range(cols):
            g.add_edge(idx(r, c), idx(r, (c + 1) % cols))
            g.add_edge(idx(r, c), idx((r + 1) % rows, c))
    return g


def hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube Q_dim (2^dim nodes)."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    n = 1 << dim
    g = Graph(nodes=range(n))
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                g.add_edge(u, v)
    return g


def caterpillar_graph(spine: int, legs: int) -> Graph:
    """A caterpillar: a spine path of *spine* nodes, each with *legs*
    pendant leaves, **plus** a Hamiltonian-ish cycle through all nodes so
    the graph (not the tree) is 2-connected and improvements exist.

    This is the canonical workload where the worst initial tree (the
    caterpillar itself, degree legs+2) is far from Δ* (= 2 or 3).
    """
    if spine < 2 or legs < 1:
        raise GraphError("caterpillar needs spine >= 2, legs >= 1")
    g = Graph()
    nid = 0
    spine_ids = []
    leaf_ids: dict[int, list[int]] = {}
    for _ in range(spine):
        spine_ids.append(nid)
        g.add_node(nid)
        nid += 1
    for s in spine_ids:
        leaf_ids[s] = []
        for _ in range(legs):
            g.add_node(nid)
            g.add_edge(s, nid)
            leaf_ids[s].append(nid)
            nid += 1
    for a, b in zip(spine_ids, spine_ids[1:]):
        g.add_edge(a, b)
    # ordering that snakes spine->its leaves->next spine gives a ham cycle
    order: list[int] = []
    for s in spine_ids:
        order.append(s)
        order.extend(leaf_ids[s])
    for a, b in zip(order, order[1:]):
        if not g.has_edge(a, b):
            g.add_edge(a, b)
    if not g.has_edge(order[-1], order[0]):
        g.add_edge(order[-1], order[0])
    return g


def spider(legs: int, leg_len: int) -> Graph:
    """A spider: *legs* paths of length *leg_len* glued at hub 0, plus a
    cycle connecting the leg tips (so Δ* is small but the natural BFS tree
    from the hub has degree *legs*)."""
    if legs < 3 or leg_len < 1:
        raise GraphError("spider needs legs >= 3, leg_len >= 1")
    g = Graph(nodes=[0])
    tips = []
    nid = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            g.add_node(nid)
            g.add_edge(prev, nid)
            prev = nid
            nid += 1
        tips.append(prev)
    for a, b in zip(tips, tips[1:]):
        g.add_edge(a, b)
    g.add_edge(tips[-1], tips[0])
    return g


def lollipop(clique: int, tail: int) -> Graph:
    """K_clique with a path of *tail* nodes attached — classic asymmetric
    topology (dense core, sparse periphery)."""
    if clique < 3 or tail < 1:
        raise GraphError("lollipop needs clique >= 3, tail >= 1")
    g = complete(clique)
    prev = clique - 1
    for i in range(tail):
        nid = clique + i
        g.add_node(nid)
        g.add_edge(prev, nid)
        prev = nid
    return g


# -- randomized families ------------------------------------------------------


def gnp_connected(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) conditioned on connectivity.

    Edges are sampled i.i.d.; if the sample is disconnected, the components
    are stitched with uniformly random inter-component edges (the minimum
    repair that keeps degree statistics close to G(n, p)).
    """
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = substream(seed, f"gnp:{n}:{p}")
    g = Graph(nodes=_ids(n))
    if n > 1:
        # vectorized i.i.d. sampling over the n(n-1)/2 pairs
        pairs = list(itertools.combinations(range(n), 2))
        mask = rng.random(len(pairs)) < p
        for (u, v), keep in zip(pairs, mask):
            if keep:
                g.add_edge(u, v)
    comps = connected_components(g)
    while len(comps) > 1:
        a = comps[0]
        b = comps[1]
        u = int(rng.choice(sorted(a)))
        v = int(rng.choice(sorted(b)))
        g.add_edge(u, v)
        comps = [a | b] + comps[2:]
    return g


def random_geometric(n: int, radius: float, seed: int) -> Graph:
    """Random geometric graph on the unit square, stitched to be connected
    (closest pair between components). Models wireless/radio networks, the
    natural deployment target for the broadcast motivation of the paper."""
    if n < 1:
        raise GraphError("need n >= 1")
    if radius <= 0:
        raise GraphError("radius must be positive")
    rng = substream(seed, f"geo:{n}:{radius}")
    pts = rng.random((n, 2))
    g = Graph(nodes=_ids(n))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    r2 = radius * radius
    for u in range(n):
        for v in range(u + 1, n):
            if d2[u, v] <= r2:
                g.add_edge(u, v)
    comps = connected_components(g)
    while len(comps) > 1:
        # connect the two closest components
        best = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                for u in comps[i]:
                    for v in comps[j]:
                        key = d2[u, v]
                        if best is None or key < best[0]:
                            best = (key, u, v, i, j)
        assert best is not None
        _, u, v, i, j = best
        g.add_edge(int(u), int(v))
        merged = comps[i] | comps[j]
        comps = [c for idx, c in enumerate(comps) if idx not in (i, j)] + [merged]
    return g


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model with retries.

    ``n*d`` must be even and d < n. Retries until simple & connected
    (fast for the moderate sizes the experiments use).
    """
    if d >= n or n * d % 2 != 0:
        raise GraphError(f"invalid regular parameters n={n}, d={d}")
    if d < 2:
        raise GraphError("random_regular needs d >= 2 for connectivity")
    rng = substream(seed, f"reg:{n}:{d}")
    for _attempt in range(1000):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                ok = False
                break
            e = canonical_edge(u, v)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        g = Graph(nodes=_ids(n), edges=edges)
        if is_connected(g):
            return g
    raise GraphError(f"could not sample a connected {d}-regular graph on {n} nodes")


def preferential_attachment(n: int, k: int, seed: int) -> Graph:
    """Barabási–Albert-style preferential attachment: each arriving node
    attaches to *k* distinct existing nodes chosen ∝ degree. Produces the
    hub-heavy topologies where minimum-degree trees matter most."""
    if k < 1 or n <= k:
        raise GraphError(f"need n > k >= 1, got n={n}, k={k}")
    rng = substream(seed, f"pa:{n}:{k}")
    g = complete(k + 1)
    targets: list[int] = []
    for u in range(k + 1):
        targets.extend([u] * k)
    for u in range(k + 1, n):
        g.add_node(u)
        chosen: set[int] = set()
        while len(chosen) < k:
            pick = int(targets[int(rng.integers(len(targets)))])
            chosen.add(pick)
        for v in chosen:
            g.add_edge(u, v)
            targets.extend([u, v])
    return g


def hamiltonian_padded(n: int, extra_edges: int, seed: int) -> Graph:
    """A graph with a (hidden) Hamiltonian path ⇒ Δ* = 2, padded with
    *extra_edges* random chords. The node labels are shuffled so the path
    is not discoverable from identities. The ground-truth optimal degree
    is exactly 2 whenever n >= 2, which makes the +1 bound verifiable at
    any size without the exact solver (experiment T1)."""
    if n < 2:
        raise GraphError("need n >= 2")
    rng = substream(seed, f"ham:{n}:{extra_edges}")
    perm = list(rng.permutation(n))
    g = Graph(nodes=_ids(n))
    for a, b in zip(perm, perm[1:]):
        g.add_edge(int(a), int(b))
    max_extra = n * (n - 1) // 2 - (n - 1)
    extra = min(extra_edges, max_extra)
    added = 0
    guard = 0
    while added < extra and guard < 100 * extra + 1000:
        guard += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b} (sides 0..a−1 and a..a+b−1).

    A classic MDegST stressor: with a << b every spanning tree must
    concentrate degree on the small side (Δ* = ⌈(b + a − 1) / a⌉-ish),
    so the optimum is far above 2 and the +1 bound is non-trivial.
    """
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite needs both sides >= 1")
    g = Graph(nodes=range(a + b))
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def barbell(clique: int, bridge: int) -> Graph:
    """Two K_clique cliques joined by a path of *bridge* nodes — the
    classic bottleneck topology (bridge nodes are forced cut vertices)."""
    if clique < 3 or bridge < 1:
        raise GraphError("barbell needs clique >= 3, bridge >= 1")
    g = complete(clique)
    # second clique
    off = clique + bridge
    for u in range(clique):
        for v in range(u + 1, clique):
            g.add_edge(off + u, off + v)
    for i in range(bridge):
        g.add_node(clique + i)
    chain = [clique - 1] + [clique + i for i in range(bridge)] + [off]
    for x, y in zip(chain, chain[1:]):
        g.add_edge(x, y)
    return g


def circulant(n: int, offsets: tuple[int, ...] = (1, 2)) -> Graph:
    """Circulant graph C_n(offsets): i ~ i±o for each offset o.

    Vertex-transitive with uniform degree — a clean testbed where every
    node looks alike and identity tie-breaking fully decides behaviour.
    """
    if n < 3:
        raise GraphError("circulant needs n >= 3")
    if not offsets or any(o < 1 or o >= n for o in offsets):
        raise GraphError("offsets must be in [1, n)")
    g = Graph(nodes=range(n))
    for i in range(n):
        for o in offsets:
            j = (i + o) % n
            if not g.has_edge(i, j):
                g.add_edge(i, j)
    return g


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a Prüfer sequence."""
    if n < 1:
        raise GraphError("need n >= 1")
    if n == 1:
        return Graph(nodes=[0])
    if n == 2:
        return Graph(nodes=[0, 1], edges=[(0, 1)])
    rng = substream(seed, f"tree:{n}")
    prufer = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    g = Graph(nodes=_ids(n))
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, x)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    g.add_edge(u, v)
    return g


# -- name table ---------------------------------------------------------------

#: Family table used by the CLI and the sweep harness. Each entry maps a
#: family name to a callable ``(n, seed) -> Graph`` with tuned default shape
#: parameters.
FAMILIES: dict[str, object] = {
    "complete": lambda n, seed=0: complete(n),
    "ring": lambda n, seed=0: ring(n),
    "wheel": lambda n, seed=0: wheel(n),
    "grid": lambda n, seed=0: grid(max(2, int(round(n**0.5))), max(2, int(round(n**0.5)))),
    "hypercube": lambda n, seed=0: hypercube(max(1, (n - 1).bit_length())),
    "gnp_sparse": lambda n, seed=0: gnp_connected(n, min(1.0, 2.5 / max(n - 1, 1)), seed),
    "gnp_dense": lambda n, seed=0: gnp_connected(n, 0.3, seed),
    "geometric": lambda n, seed=0: random_geometric(n, 1.8 / max(n, 4) ** 0.5, seed),
    "regular4": lambda n, seed=0: random_regular(n if (n * 4) % 2 == 0 else n + 1, 4, seed),
    "pref_attach": lambda n, seed=0: preferential_attachment(n, 2, seed),
    "hamiltonian": lambda n, seed=0: hamiltonian_padded(n, 2 * n, seed),
    "bipartite": lambda n, seed=0: complete_bipartite(max(2, n // 6), n - max(2, n // 6)),
    "barbell": lambda n, seed=0: barbell(max(3, (n - 2) // 2), 2),
    "circulant": lambda n, seed=0: circulant(n, (1, 2)),
}


def make_family(name: str, n: int, seed: int = 0) -> Graph:
    """Instantiate a family of :data:`FAMILIES` by name."""
    return lookup(FAMILIES, name, "family")(n, seed)  # type: ignore[operator]
