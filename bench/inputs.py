"""Seeded input generation for the benchmark, independent of the package.

Graphs are plain ``(n, edges)`` pairs built with the standard library's
``random.Random``; the package's own generators are never used, so a change
to the program cannot change the inputs it is measured on.  Graphs cross into
the program as graph6 text produced by the encoder here.
"""

from __future__ import annotations

import heapq
import random

Edges = list[tuple[int, int]]

# Power iteration in ``spectral_radius`` stops after this many steps.
POWER_ITERATION_LIMIT = 100_000


# -- graph6 (short form, n <= 62) ---------------------------------------------


def encode_graph6(n: int, edges: Edges) -> str:
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form needs 0 <= n <= 62, got {n}")
    # bit v(v-1)/2 + u holds the pair u < v, six bits to a character
    bits = bytearray(-(-n * (n - 1) // 12) * 6)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    body = [
        chr(63 + (b[0] << 5 | b[1] << 4 | b[2] << 3 | b[3] << 2 | b[4] << 1 | b[5]))
        for b in (bits[i : i + 6] for i in range(0, len(bits), 6))
    ]
    return chr(63 + n) + "".join(body)


def decode_graph6(text: str) -> tuple[int, Edges]:
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits += [value >> (5 - i) & 1 for i in range(6)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) < len(pairs):
        raise ValueError(f"graph6 body too short for n={n}")
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


# -- generators ------------------------------------------------------------------


def is_connected(n: int, edges: Edges) -> bool:
    neighbours = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def dense_connected(rng: random.Random, n: int, p: float) -> Edges:
    """Erdos-Renyi G(n, m) with m = round(p * n(n-1)/2) edges, resampled
    until connected.  The edge count is fixed, not binomial, so the sweep
    cost of a graph varies less from seed to seed."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    m = round(p * len(pairs))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if is_connected(n, edges):
            return edges


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def prufer_tree(rng: random.Random, n: int) -> Edges:
    """Uniform random labelled tree on n >= 2 vertices."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def caterpillar(legs: list[int]) -> tuple[int, Edges]:
    """A spine path with ``legs[i]`` pendant vertices on spine vertex i."""
    n = len(legs)
    edges = path(n)
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, n))
            n += 1
    return n, edges


def random_caterpillar(rng: random.Random, spine: int, max_legs: int) -> tuple[int, Edges]:
    return caterpillar([rng.randint(0, max_legs) for _ in range(spine)])


def twin_hub_caterpillar() -> tuple[int, Edges]:
    """Two 5-leg hubs at the ends of a 16-vertex spine, plus one leg on
    spine vertex 7.  The leg breaks the mirror symmetry just enough that
    the all-ones start vector keeps a component along an eigenvalue of
    A + I within a relative 2e-5 of the top one, so plain power iteration
    needs several hundred thousand steps: beyond POWER_ITERATION_LIMIT."""
    legs = [5] + [0] * 14 + [5]
    legs[7] += 1
    return caterpillar(legs)


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# -- input properties --------------------------------------------------------------


def edge_density(n: int, edges: Edges) -> float:
    return 2 * len(edges) / (n * (n - 1)) if n > 1 else 0.0
