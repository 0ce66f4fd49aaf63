"""Witness oracles for degree-constrained factors.

Three routes that never consult the deficiency characterizations, so
decider results can be cross-validated against them:

* find_ab_factor: exhaustive backtracking over edge subsets for a spanning
  subgraph with all degrees in [a, b].  Deliberately desk-scale (edge count
  capped) and exact.
* find_fractional_factor: a fractional [a, b]-factor via max-flow on the
  bipartite double cover (each vertex split into a + and a - copy, each
  edge giving one unit of capacity in both directions).  Degree windows
  become arc lower bounds, removed by the standard excess-supply
  circulation reduction.  Integral flows on the cover average to
  half-integral edge weights, which is lossless for feasibility, so the
  oracle is exact as well.  A vertex of degree below a answers None before
  any network is built.  Otherwise the network is flat arc lists without
  zero-capacity arcs, and one Dinic function with an iterative
  blocking-flow search solves it.
* find_r_factor: an r-factor as a perfect matching of Tutte's gadget
  (two vertices per edge, deg(v) - r core vertices per vertex), found by
  a non-recursive Edmonds blossom search from a greedy r-bounded edge
  choice.  A vertex of degree below r, or an odd r n, answers None
  before any gadget is built.  `is_rk_critical` asks it for witnesses;
  `critical_by_definition` keeps to find_ab_factor, so the decider and
  the definition it is checked against share no oracle.

Every witness is validated in half-units: every weight and degree
is read as an int count of halves from its numerator and denominator, so
validation is exact int arithmetic, with no floating point and no Fraction
sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph

BACKTRACK_EDGE_CAP = 30


@dataclass(frozen=True)
class FactorWitness:
    """A checked factor.  Integral witnesses carry the chosen edge set;
    fractional ones carry per-edge weights (only nonzero ones listed),
    always with denominator dividing 2.  Degrees are per-vertex totals,
    ints for integral witnesses and Fractions for fractional ones."""

    kind: str  # "integral" | "fractional"
    edges: tuple[tuple[int, int], ...] | None
    weights: tuple[tuple[int, int, Fraction], ...] | None
    degrees: tuple

    def to_json(self) -> dict:
        if self.kind == "integral":
            return {
                "kind": "integral",
                "edges": [list(e) for e in self.edges],
                "degrees": list(self.degrees),
            }
        return {
            "kind": "fractional",
            "weights": [
                [u, v, w.numerator, w.denominator] for u, v, w in self.weights
            ],
            "degrees": [[d.numerator, d.denominator] for d in self.degrees],
        }


def _in_halves(x) -> int | None:
    """x counted in half-units, read from its numerator and denominator
    (ints have both), or None unless 2x is an integer."""
    den = getattr(x, "denominator", 0)
    return x.numerator * (2 // den) if den in (1, 2) else None


def validate_witness(g: Graph, witness: FactorWitness, a: int, b: int) -> None:
    """Raise ValueError unless the witness is a genuine fractional or
    integral [a, b]-factor of g.  Every weight and degree is read as a
    whole number of half-units, so the check is exact int arithmetic and
    rejects weights whose denominator does not divide 2."""
    if witness.kind == "integral":
        weighted = ((u, v, 1) for u, v in witness.edges)
    elif witness.kind == "fractional":
        weighted = witness.weights
    else:
        raise ValueError(f"unknown witness kind {witness.kind!r}")
    n, adj = g.n, g.adj
    deg = [0] * n  # half-units
    seen = set()
    for u, v, w in weighted:
        # range check first: a negative label would index adj from the end
        if not (0 <= u < n and 0 <= v < n and adj[u] >> v & 1):
            raise ValueError(f"witness edge ({u},{v}) not in the graph")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"witness repeats edge ({u},{v})")
        seen.add(key)
        half = _in_halves(w)
        if half != 1 and half != 2:
            raise ValueError(f"weight {w} on ({u},{v}) is not exactly 1/2 or 1")
        deg[u] += half
        deg[v] += half
    if len(witness.degrees) != n or list(map(_in_halves, witness.degrees)) != deg:
        raise ValueError("witness degrees do not match its edges")
    for v in range(n):
        if not 2 * a <= deg[v] <= 2 * b:
            raise ValueError(
                f"vertex {v} has witness degree {Fraction(deg[v], 2)} not in [{a},{b}]"
            )


# -- integral oracle -----------------------------------------------------------


def find_ab_factor(g: Graph, a: int, b: int) -> FactorWitness | None:
    """Spanning subgraph with every degree in [a, b], or None.

    Backtracking over edges in sorted order, including each edge before
    excluding it, on an explicit stack; at each decision the two endpoint
    counts are pruned by: chosen > b, or chosen + undecided < a.
    Exhaustive, so None is a proof of nonexistence.  Edge count capped at
    BACKTRACK_EDGE_CAP to keep worst cases desk-scale.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    edges = g.edges()
    m = len(edges)
    if m > BACKTRACK_EDGE_CAP:
        raise ValueError(f"edge count {m} exceeds the oracle cap {BACKTRACK_EDGE_CAP}")

    undecided = list(g.degrees())
    if any(d < a for d in undecided):
        return None
    chosen = [0] * g.n
    picked: list[int] = []
    # step[i] counts the branches of edge i tried so far: include, then
    # exclude, then restore and back up.  Each branch is taken only if it
    # keeps both endpoints feasible (chosen <= b, chosen + undecided >= a);
    # the other bound cannot break on that branch.
    step = [0] * (m + 1)
    i = 0
    while 0 <= i < m:
        u, v = edges[i]
        s = step[i]
        step[i] = s + 1
        if s == 0:
            undecided[u] -= 1
            undecided[v] -= 1
            if chosen[u] < b and chosen[v] < b:
                chosen[u] += 1
                chosen[v] += 1
                picked.append(i)
                i += 1
                step[i] = 0
        elif s == 1:
            if picked and picked[-1] == i:
                picked.pop()
                chosen[u] -= 1
                chosen[v] -= 1
            if chosen[u] + undecided[u] >= a and chosen[v] + undecided[v] >= a:
                i += 1
                step[i] = 0
        else:
            undecided[u] += 1
            undecided[v] += 1
            i -= 1
    if i < 0:
        return None
    # i == m: every vertex passed both bounds at its last edge (or, with no
    # edges, at the degree test), so `chosen` holds the witness degrees
    witness = FactorWitness(
        kind="integral",
        edges=tuple(edges[e] for e in picked),
        weights=None,
        degrees=tuple(chosen),
    )
    validate_witness(g, witness, a, b)
    return witness


# -- fractional oracle via max-flow -------------------------------------------

def _max_flow(head: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> int:
    """Dinic's max-flow from s to t on integer capacities, updating the
    residual capacities `cap` in place; arc i runs to to[i], its reverse
    is i ^ 1, and head[u] lists u's arcs in insertion order.

    The blocking-flow search is an explicit-stack depth-first walk.  It
    tries arcs in list order and keeps each node's arc pointer across
    augmentations, so it augments along the same paths, in the same
    order, as the textbook recursive search."""
    n = len(head)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            nxt = level[u] + 1
            for i in head[u]:
                v = to[i]
                if cap[i] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * n
        path: list[int] = []  # arcs from s to u along the current walk
        u = s
        while True:
            if u == t:
                pushed = min(map(cap.__getitem__, path))
                flow += pushed
                for i in path:
                    cap[i] -= pushed
                    cap[i ^ 1] += pushed
                # back up to the first saturated arc's tail: every node
                # before it would walk the same arcs again
                cut = list(map(cap.__getitem__, path)).index(0)
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = head[u]
            want = level[u] + 1
            for k in range(it[u], len(arcs)):
                i = arcs[k]
                if cap[i] and level[to[i]] == want:
                    it[u] = k
                    path.append(i)
                    u = to[i]
                    break
            else:
                # dead end: retire u and advance its parent past the arc to u
                it[u] = len(arcs)
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1


def find_fractional_factor(g: Graph, a: int, b: int) -> FactorWitness | None:
    """Fractional [a, b]-factor (half-integral weights), or None.

    Feasibility on the bipartite double cover is equivalent to fractional
    feasibility on g: any fractional factor doubles to a cover flow, and
    an integral cover flow (which max-flow provides) averages back to a
    half-integral factor.  A vertex of degree below a rules out every
    weighting, so that case returns None before any flow is run.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    n = g.n
    degrees = g.degrees()
    if any(d < a for d in degrees):
        return None
    edges = g.edges()

    # node ids: S*=0, T*=1 (excess supply/demand), s=2, t=3,
    # v+ = 4+v, v- = 4+n+v
    sup, dem, s, t = 0, 1, 2, 3
    arcs = []
    for v in range(n):
        # original arcs s -> v+ and v- -> t with bounds [a, b]
        arcs += ((s, 4 + v, b - a), (4 + n + v, t, b - a))
        # lower-bound excess: v+ demands a, v- supplies a
        arcs += ((sup, 4 + v, a), (4 + n + v, dem, a))
    # s loses n*a of supply, t gains n*a
    arcs += ((sup, t, n * a), (s, dem, n * a))
    arcs.append((t, s, n * b + 1))  # close the circulation
    for u, v in edges:
        arcs += ((4 + u, 4 + n + v, 1), (4 + v, 4 + n + u, 1))

    # flat residual network, zero-capacity arcs left out; arc i runs to
    # to[i] with residual cap[i], and i ^ 1 is its reverse
    head: list[list[int]] = [[] for _ in range(4 + 2 * n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        if c:
            head[u].append(len(to))
            head[v].append(len(to) + 1)
            to += (v, u)
            cap += (c, 0)

    if _max_flow(head, to, cap, sup, dem) != 2 * n * a:
        return None

    weights = []
    deg = [0] * n  # half-units
    first = len(to) - 4 * len(edges)  # edge e's cover arcs: first + 4e and + 2
    for e, (u, v) in enumerate(edges):
        i = first + 4 * e
        used = 2 - cap[i] - cap[i + 2]  # residual -> used units
        if used:
            weights.append((u, v, Fraction(used, 2)))
            deg[u] += used
            deg[v] += used
    witness = FactorWitness(
        kind="fractional",
        edges=None,
        weights=tuple(weights),
        degrees=tuple(Fraction(h, 2) for h in deg),
    )
    validate_witness(g, witness, a, b)
    return witness


# -- parity oracle via Tutte's gadget ------------------------------------------


def _tutte_gadget(edges: list[tuple[int, int]], degrees, r: int) -> list[list[int]]:
    """Adjacency lists of Tutte's gadget, which has a perfect matching iff
    the graph has an r-factor.  Edge e = (u, v) gives two outer vertices,
    2e (its end at u) and 2e + 1 (its end at v), joined to each other;
    vertex v gives d(v) - r core vertices, each joined to every outer
    vertex at v.  Cores take d(v) - r of v's ends, so the r ends left must
    match across their edges, and those edges form the factor.  The cores
    of one vertex share one neighbour list."""
    at: list[list[int]] = [[] for _ in degrees]  # outer vertices at v
    for e, (u, v) in enumerate(edges):
        at[u].append(2 * e)
        at[v].append(2 * e + 1)
    adj = [[x ^ 1] for x in range(2 * len(edges))]
    for ends, d in zip(at, degrees):
        cores = range(len(adj), len(adj) + d - r)
        for x in ends:
            adj[x] += cores
        adj += [ends] * (d - r)
    return adj


def _augment(adj: list[list[int]], match: list[int], root: int) -> bool:
    """Edmonds' blossom search for an augmenting path from the free vertex
    root; flips it into `match` and returns True if there is one.

    Breadth-first over even vertices, with each blossom shrunk onto its
    base through `base` as it closes.  Loops only, no recursion."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n  # the even vertex each odd vertex was reached from
    even = [False] * n
    even[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        """The base of the blossom closed by the edge (a, b)."""
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] < 0:
                break
            a = parent[match[a]]
        while not seen[base[b]]:
            b = parent[match[base[b]]]
        return base[b]

    def mark(v: int, top: int, child: int, blossom: list[bool]) -> None:
        """Flag the bases from v down to top, pointing odd vertices on the
        way back through child so the path can be walked either way."""
        while base[v] != top:
            blossom[base[v]] = blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[child]

    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or match[v] == w:
                continue
            if w == root or match[w] >= 0 and parent[match[w]] >= 0:
                top = lca(v, w)
                blossom = [False] * n
                mark(v, top, w, blossom)
                mark(w, top, v, blossom)
                for u in range(n):
                    if blossom[base[u]]:
                        base[u] = top
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                if match[w] < 0:
                    # flip the path root ... parent[w], w
                    while w >= 0:
                        u = parent[w]
                        nxt = match[u]
                        match[w], match[u] = u, w
                        w = nxt
                    return True
                even[match[w]] = True
                queue.append(match[w])
    return False


def find_r_factor(g: Graph, r: int) -> FactorWitness | None:
    """r-factor (every degree exactly r), or None.

    A greedy pass takes edges, those between low-degree vertices first,
    while both ends have fewer than r.  If that leaves a vertex short, the
    choice seeds a perfect matching search in Tutte's gadget, which
    either completes it or proves that no r-factor exists.  A vertex of
    degree below r, or an odd r n, answers None before any of this.
    """
    if r < 0:
        raise ValueError(f"need r >= 0, got r={r}")
    degrees = g.degrees()
    if r * g.n % 2 or any(d < r for d in degrees):
        return None
    edges = g.edges()
    chosen = [0] * g.n
    picked = [False] * len(edges)
    weight = [degrees[u] + degrees[v] for u, v in edges]
    for e in sorted(range(len(edges)), key=weight.__getitem__):
        u, v = edges[e]
        if chosen[u] < r and chosen[v] < r:
            chosen[u] += 1
            chosen[v] += 1
            picked[e] = True
    if sum(chosen) < r * g.n:
        picked = _complete_r_factor(edges, degrees, r, picked)
        if picked is None:
            return None
    witness = FactorWitness(
        kind="integral",
        edges=tuple(itertools.compress(edges, picked)),
        weights=None,
        degrees=(r,) * g.n,
    )
    validate_witness(g, witness, r, r)
    return witness


def _complete_r_factor(edges, degrees, r: int, picked: list[bool]) -> list[bool] | None:
    """An r-factor, as one flag per edge, grown from the r-bounded choice
    `picked` through a perfect matching of Tutte's gadget; None if the
    gadget has none.  The picked edges are matched across and each core
    takes an unpicked end, which leaves only the ends the choice left
    short free.  A free end without an augmenting path is missed by some
    maximum matching, so then no perfect matching exists."""
    adj = _tutte_gadget(edges, degrees, r)
    ends = 2 * len(edges)
    match = [-1] * len(adj)
    for e in itertools.compress(range(len(edges)), picked):
        match[2 * e], match[2 * e + 1] = 2 * e + 1, 2 * e
    # a vertex has at least d(v) - r unpicked ends, one for each core
    for c in range(ends, len(adj)):
        x = next(x for x in adj[c] if match[x] < 0)
        match[c], match[x] = x, c
    for x in range(ends):
        if match[x] < 0 and not _augment(adj, match, x):
            return None
    return [match[2 * e] == 2 * e + 1 for e in range(len(edges))]
