"""Simple undirected graphs on dense integer vertex labels.

Vertices of an n-vertex graph are 0..n-1.  Adjacency is stored as one Python
int per vertex used as a bitmask (bit v of adj[u] set iff uv is an edge), so
neighbourhood intersections, unions, and popcounts over vertex subsets are
single integer operations.  Graphs are immutable after construction; edit
operations return new graphs.

Serialization: graph6 short form (n <= 62) and a plain edge-list text
format; serialize_graph picks graph6 or edge-list text for a
self-contained counterexample.  Also: an exact isomorphism test and
reject-sampled random connected graphs, both at desk scale.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

GRAPH6_MAX_N = 62
ENUMERATION_MAX_N = 8
RANDOM_GRAPH_TRIES = 20000


class Graph:
    """Immutable simple graph; adjacency rows are int bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # Unchecked: the package passes rows it built symmetric and
        # loop-free; other callers go through from_edges, which validates.
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min_degree undefined on the empty vertex set")
        return min(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        """Unchecked, for speed: u and v must lie in 0..n-1."""
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                b = m & -m
                out.append((u, b.bit_length() - 1))
                m ^= b
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            raise ValueError("connectivity undefined on the empty vertex set")
        full = (1 << self.n) - 1
        return component(self.adj, 1, full) == full

    # -- edits (return new graphs) ----------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise ValueError(f"bad edge ({u},{v}) for n={self.n}")
        if self.adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise ValueError(f"bad edge ({u},{v}) for n={self.n}")
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def delete_vertices(self, kill: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of `kill`, labels compacted
        in increasing order of the surviving original labels."""
        kill_mask = 0
        for v in kill:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
            kill_mask |= 1 << v
        # shift each killed bit out of every kept row, highest label first
        # so that the lower labels still to be removed stay in place
        cuts = [((1 << v) - 1, v) for v in reversed(range(self.n)) if kill_mask >> v & 1]
        rows = []
        for v, row in enumerate(self.adj):
            if kill_mask >> v & 1:
                continue
            for low, p in cuts:
                row = row & low | row >> (p + 1) << p
            rows.append(row)
        return Graph(self.n - len(cuts), tuple(rows))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def component(adj: tuple[int, ...], seed: int, allowed: int) -> int:
    """Mask of the vertices reachable from the vertices of `seed` through
    vertices of `allowed`; `seed` must lie inside `allowed`."""
    comp = frontier = seed
    while frontier:
        acc = 0
        m = frontier
        while m:
            b = m & -m
            acc |= adj[b.bit_length() - 1]
            m ^= b
        frontier = acc & allowed & ~comp
        comp |= frontier
    return comp


# -- constructors ----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 0 or q < 0:
        raise ValueError("part sizes must be nonnegative")
    left = (1 << p) - 1
    right = ((1 << q) - 1) << p
    rows = [right] * p + [left] * q
    return Graph(p + q, tuple(rows))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    left = (1 << g.n) - 1
    right = ((1 << h.n) - 1) << g.n
    rows = [row | right for row in g.adj]
    rows += [(row << g.n) | left for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


# -- graph6 (short form, n <= 62) -------------------------------------------


def to_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {g.n}")
    out = [chr(g.n + 63)]
    buf = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            buf = buf << 1 | (g.adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(buf + 63))
                buf = 0
                nbits = 0
    if nbits:
        buf <<= 6 - nbits
        out.append(chr(buf + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 character {ch!r} out of range")
    n = ord(s[0]) - 63
    if n > GRAPH6_MAX_N:
        raise ValueError("only the short graph6 form (n <= 62) is supported")
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} "
            f"(expected {(nbits + 5) // 6} characters)"
        )
    stream = 0
    for ch in body:
        stream = stream << 6 | (ord(ch) - 63)
    total = 6 * len(body)
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if stream >> (total - 1 - i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, tuple(rows))


# -- edge-list text format ---------------------------------------------------
#
# First non-comment line: the vertex count.  Each further line: "u v".
# Lines starting with '#' and blank lines are ignored.


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("edge-list input has no header line")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"edge-list header must be a vertex count, got {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph) -> dict:
    """Self-contained text form: graph6 when it fits, edge list otherwise."""
    if g.n <= GRAPH6_MAX_N:
        return {"format": "graph6", "data": to_graph6(g)}
    return {"format": "edge-list", "data": to_edge_list(g)}


def deserialize_graph(d: dict) -> Graph:
    if d["format"] == "graph6":
        return parse_graph6(d["data"])
    if d["format"] == "edge-list":
        return parse_edge_list(d["data"])
    raise ValueError(f"unknown graph serialization format {d['format']!r}")


# -- exhaustive enumeration ---------------------------------------------------


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices, in ascending order of the
    edge-subset integer over the ordered non-edge slots (u<v lex).

    Capped at n <= 8: the sweep is exhaustive over 2^C(n,2) graphs.
    """
    if not 0 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_MAX_N}, got {n}")
    slots = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(slots)):
        rows = [0] * n
        for i, (u, v) in enumerate(slots):
            if code >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if connected_only and (n == 0 or not g.is_connected()):
            continue
        yield g


# -- isomorphism (desk scale) --------------------------------------------------


def _joint_refine(g: Graph, h: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Color-refine both graphs against a shared palette.  Returns the
    stable colorings, or None when the color histograms separate the
    graphs (hence not isomorphic)."""
    cg = list(g.degrees())
    ch = list(h.degrees())
    for _ in range(max(g.n, 1)):
        sig_g = [
            (cg[v], tuple(sorted(cg[u] for u in g.neighbors(v)))) for v in range(g.n)
        ]
        sig_h = [
            (ch[v], tuple(sorted(ch[u] for u in h.neighbors(v)))) for v in range(h.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [palette[s] for s in sig_g]
        new_h = [palette[s] for s in sig_h]
        if sorted(new_g) != sorted(new_h):
            return None
        stable = len(set(new_g)) == len(set(cg)) and len(set(new_h)) == len(set(ch))
        cg, ch = new_g, new_h
        if stable:
            break
    return tuple(cg), tuple(ch)


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: color refinement, then class-constrained
    backtracking.  Meant for n <= 12 or so; the family graphs' large
    symmetry classes keep the search shallow."""
    if g.n != h.n:
        return False
    if g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    refined = _joint_refine(g, h)
    if refined is None:
        return False
    cg, ch = refined
    pool: dict[int, list[int]] = {}
    for v, c in enumerate(ch):
        pool.setdefault(c, []).append(v)
    order = sorted(range(g.n), key=lambda v: (len(pool[cg[v]]), cg[v], v))
    image = [-1] * g.n
    used = [False] * h.n
    # depth-first over order[i]'s candidates, tried in pool order; tried[i]
    # counts the candidates of order[i] already taken or passed over
    tried = [0] * (g.n + 1)
    i = 0
    while i < g.n:
        v = order[i]
        cands = pool[cg[v]]
        while tried[i] < len(cands):
            w = cands[tried[i]]
            tried[i] += 1
            if not used[w] and all(
                g.has_edge(order[j], v) == h.has_edge(image[order[j]], w)
                for j in range(i)
            ):
                image[v] = w
                used[w] = True
                i += 1
                tried[i] = 0
                break
        else:
            # order[i] has no candidate left: undo order[i - 1]'s image
            i -= 1
            if i < 0:
                return False
            u = order[i]
            used[image[u]] = False
            image[u] = -1
    return True


# -- random instances ----------------------------------------------------------


def random_connected_graph(rng: random.Random, n: int, p: float, min_degree: int = 1) -> Graph:
    """Reject-sample an Erdos-Renyi graph until connected with the given
    minimum degree."""
    if n < 1:
        raise ValueError("need n >= 1")
    for _ in range(RANDOM_GRAPH_TRIES):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if g.is_connected() and (n == 1 or g.min_degree() >= min_degree):
            return g
    raise RuntimeError(
        f"no connected graph with min degree {min_degree} found in "
        f"RANDOM_GRAPH_TRIES = {RANDOM_GRAPH_TRIES} tries (n={n}, p={p})"
    )
