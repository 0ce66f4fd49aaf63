"""Constructors for the extremal graphs that make the spectral conditions sharp.

The base graph on n vertices is the join K_{a+k} v (K_w u (b+1)K_1) with
w = n - a - b - k - 1.  Family members add a - 1 extra edges between the
independent vertices and distinct clique vertices of K_w; the extremal
graph places all a - 1 of them at one designated independent vertex.

Fixed deterministic vertex layout, so certificates, partitions, and
serialized graphs are reproducible:

    S-block   0 .. a+k-1                 (the dominating clique),
    W-block   a+k .. a+k+w-1             (the big clique),
    T-block   n-b-1 .. n-1               (the independent set),

with the designated vertex t1 first in the T-block and its attachment
targets the first a - 1 vertices of the W-block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .criticality import FactorParams
from .graphs import Graph


@dataclass(frozen=True)
class ExtremalParams:
    """Family parameters: window [a, b], deletion count k, order n."""

    a: int
    b: int
    k: int
    n: int

    def __post_init__(self):
        FactorParams(self.a, self.b, self.k)  # validates the window and k
        if self.n < self.a + self.b + self.k + 2:
            raise ValueError(
                f"need n >= a+b+k+2 = {self.a + self.b + self.k + 2}, got n={self.n}"
            )
        if self.w_size < self.a - 1:
            raise ValueError(
                f"clique part has {self.w_size} vertices, too small for "
                f"{self.a - 1} attachment edges with distinct endpoints"
            )

    @property
    def s_size(self) -> int:
        return self.a + self.k

    @property
    def w_size(self) -> int:
        return self.n - self.a - self.b - self.k - 1

    @property
    def t_size(self) -> int:
        return self.b + 1

    @property
    def w_start(self) -> int:
        return self.s_size

    @property
    def t_start(self) -> int:
        return self.s_size + self.w_size

    @property
    def t1(self) -> int:
        return self.t_start


def _validate_assignment(params: ExtremalParams, attachments: tuple[tuple[int, ...], ...]) -> None:
    """Exactly b+1 entries summing to a-1 edges, in-range W-offsets,
    endpoints distinct per independent vertex."""
    if len(attachments) != params.t_size:
        raise ValueError(
            f"assignment must have one entry per independent vertex "
            f"({params.t_size}), got {len(attachments)}"
        )
    total = 0
    for i, ends in enumerate(attachments):
        if len(set(ends)) != len(ends):
            raise ValueError(f"independent vertex {i} repeats a clique endpoint")
        for e in ends:
            if not 0 <= e < params.w_size:
                raise ValueError(f"W-offset {e} out of range [0, {params.w_size})")
        total += len(ends)
    if total != params.a - 1:
        raise ValueError(f"assignment places {total} edges, needs a-1 = {params.a - 1}")


def base_join_graph(params: ExtremalParams) -> Graph:
    """K_{a+k} v (K_w u (b+1)K_1), no attachment edges."""
    n = params.n
    s_mask = (1 << params.s_size) - 1
    w_mask = ((1 << params.w_size) - 1) << params.w_start
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        if v < params.w_start:  # S-block: adjacent to everything else
            rows.append(full ^ (1 << v))
        elif v < params.t_start:  # W-block: S and the rest of W
            rows.append(s_mask | (w_mask ^ (1 << v)))
        else:  # T-block: S only
            rows.append(s_mask)
    return Graph(n, tuple(rows))


def family_member(params: ExtremalParams, attachments: tuple[tuple[int, ...], ...]) -> Graph:
    """The base join plus attachment edges: entry i of `attachments` lists
    the W-offsets (0-based within the W-block) joined to the i-th
    independent vertex."""
    _validate_assignment(params, attachments)
    g = base_join_graph(params)
    rows = list(g.adj)
    for i, ends in enumerate(attachments):
        t = params.t_start + i
        for off in ends:
            w = params.w_start + off
            rows[t] |= 1 << w
            rows[w] |= 1 << t
    return Graph(params.n, tuple(rows))


def extremal_graph(params: ExtremalParams) -> Graph:
    """The extremal family member: all a-1 attachment edges at t1, on the
    first a-1 W-block vertices."""
    return class_representative(params, (params.a - 1,))


def extremal_edge_count(params: ExtremalParams) -> int:
    """Closed form C(n-b-1, 2) + ab + 2a + (b+1)k - 1; always equals
    the recounted size of extremal_graph(params)."""
    a, b, k, n = params.a, params.b, params.k, params.n
    return math.comb(n - b - 1, 2) + a * b + 2 * a + (b + 1) * k - 1


def family_degree_classes(params: ExtremalParams) -> list[tuple[int, ...]]:
    """Sorted attachment-degree multisets, one per family class: the
    partitions of a-1 into at most b+1 parts with every part <= |W|,
    largest-first within a partition, enumerated largest-part-first so
    the extremal graph's class (a-1,) comes first."""

    def parts(m: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(m, cap), 0, -1):
            for rest in parts(m - first, slots - 1, first):
                yield (first,) + rest

    return list(parts(params.a - 1, params.t_size, params.w_size))


def class_representative(params: ExtremalParams, multiset: tuple[int, ...]) -> Graph:
    """Canonical member for a degree multiset: vertex i of the T-block
    takes the next len-multiset[i] consecutive W-offsets, so disjoint
    blocks starting at offset 0 (the (a-1,) class is extremal_graph)."""
    att: list[tuple[int, ...]] = []
    start = 0
    for d in multiset:
        att.append(tuple(range(start, start + d)))
        start += d
    att += [()] * (params.t_size - len(att))
    return family_member(params, tuple(att))


def enumerate_family(params: ExtremalParams) -> Iterator[Graph]:
    """One representative per attachment-degree class, deterministic
    order, extremal graph first."""
    for multiset in family_degree_classes(params):
        yield class_representative(params, multiset)


def equitable_partition(params: ExtremalParams) -> list[list[int]]:
    """The orbit partition of extremal_graph(params): (S; attachment
    targets N_W(t1); rest of W; {t1}; rest of T), empty parts dropped
    (a = 1 drops the target part; w = a-1 drops the rest-of-W part)."""
    s = list(range(params.s_size))
    targets = [params.w_start + i for i in range(params.a - 1)]
    w_rest = [params.w_start + i for i in range(params.a - 1, params.w_size)]
    t1 = [params.t1]
    t_rest = list(range(params.t1 + 1, params.n))
    return [p for p in (s, targets, w_rest, t1, t_rest) if p]
