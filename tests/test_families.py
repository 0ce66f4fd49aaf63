"""Extremal constructions: recounted edge formulas, layout, partitions.

Expected values: edge counts recomputed by recount of the construction;
deficiency values at the S-block checked against the closed forms
b(a+k) - a(b+1) + a - 1 = bk - 1 (fractional) and deficiency 1 (integral).
"""

from __future__ import annotations

import numpy as np
import pytest

from factor_spectra.criticality import (
    FactorParams,
    certificate_at,
    fractional_deficiency,
    low_degree_set,
)
from factor_spectra.families import (
    ExtremalParams,
    base_join_graph,
    class_representative,
    enumerate_family,
    equitable_partition,
    extremal_edge_count,
    extremal_graph,
    family_degree_classes,
    family_member,
)
from factor_spectra.spectral import quotient_matrix, spectral_radius


def valid_params_grid(n_max: int = 40):
    for a in range(1, 5):
        for b in range(a, 6):
            for k in range(0, 3):
                n_lo = max(a + b + k + 2, 2 * a + b + k)
                for n in range(n_lo, n_max + 1):
                    yield ExtremalParams(a, b, k, n)


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ExtremalParams(0, 2, 0, 10)
        with pytest.raises(ValueError):
            ExtremalParams(2, 1, 0, 10)
        with pytest.raises(ValueError):
            ExtremalParams(1, 2, -1, 10)
        with pytest.raises(ValueError):
            ExtremalParams(1, 2, 0, 4)  # n < a+b+k+2
        with pytest.raises(ValueError):
            ExtremalParams(3, 3, 0, 8)  # W too small for a-1 = 2 targets

    def test_layout_arithmetic(self):
        p = ExtremalParams(2, 3, 1, 12)
        assert (p.s_size, p.w_size, p.t_size) == (3, 5, 4)
        assert (p.w_start, p.t_start, p.t1) == (3, 8, 8)
        assert p.t1 == p.n - p.b - 1


class TestConstruction:
    def test_edge_counts_frozen(self):
        assert extremal_edge_count(ExtremalParams(1, 2, 0, 10)) == 24
        assert extremal_graph(ExtremalParams(1, 2, 0, 10)).edge_count == 24
        assert extremal_edge_count(ExtremalParams(2, 3, 1, 12)) == 41
        assert extremal_graph(ExtremalParams(2, 3, 1, 12)).edge_count == 41

    def test_formula_equals_recount_grid(self):
        for p in valid_params_grid(40):
            assert extremal_graph(p).edge_count == extremal_edge_count(p)

    def test_connected_and_min_degree(self):
        for p in valid_params_grid(24):
            g = extremal_graph(p)
            assert g.is_connected()
            assert g.min_degree() == p.a + p.k

    def test_layout_neighbor_structure(self):
        p = ExtremalParams(3, 4, 1, 14)
        g = extremal_graph(p)
        # S-block dominates
        for v in range(p.s_size):
            assert g.degree(v) == p.n - 1
        # t1 sees S and the first a-1 W vertices
        t1 = p.t1
        want = tuple(range(p.s_size)) + tuple(
            p.w_start + i for i in range(p.a - 1)
        )
        assert g.neighbors(t1) == tuple(sorted(want))
        assert g.degree(t1) == 2 * p.a + p.k - 1
        # untouched independent vertices see exactly S
        for t in range(t1 + 1, p.n):
            assert g.neighbors(t) == tuple(range(p.s_size))

    def test_base_plus_attachments(self):
        p = ExtremalParams(3, 3, 0, 12)
        base = base_join_graph(p)
        f = extremal_graph(p)
        assert f.edge_count == base.edge_count + (p.a - 1)
        assert base.min_degree() == p.a + p.k
        # base edge count: C(a+k,2) + C(w,2) + (a+k)(n-a-k)
        s, w = p.s_size, p.w_size
        assert base.edge_count == s * (s - 1) // 2 + w * (w - 1) // 2 + s * (p.n - s)

    def test_deficiency_at_s_block(self):
        # the S-block shows F is not critical: fractional form value
        # b|S| - a|T| + sum d = bk - 1, hence deficiency exactly 1 both ways
        for a, b, k, n in [(1, 2, 0, 10), (2, 3, 1, 12), (2, 4, 2, 16), (3, 4, 0, 15)]:
            p = ExtremalParams(a, b, k, n)
            g = extremal_graph(p)
            s_block = list(range(p.s_size))
            fp = FactorParams(a, b, k)
            assert fractional_deficiency(g, s_block, fp) == 1
            t = low_degree_set(g, s_block, a)
            deg_sum = sum(
                len([u for u in g.neighbors(v) if u >= p.s_size]) for v in t
            )
            assert b * p.s_size - a * len(t) + deg_sum == b * k - 1
            if b > a:
                assert certificate_at(g, "integral", fp, s_block).deficiency == 1

    def test_fractional_rr_deficiency_at_s_block(self):
        # a = b = r case used by the fractional r-factor results
        for r, k, n in [(2, 0, 12), (2, 1, 13), (3, 0, 16)]:
            p = ExtremalParams(r, r, k, n)
            g = extremal_graph(p)
            assert fractional_deficiency(g, list(range(p.s_size)), FactorParams(r, r, k)) == 1


class TestFamily:
    def test_class_counts(self):
        # partitions of a-1 into at most b+1 parts
        assert family_degree_classes(ExtremalParams(3, 3, 0, 12)) == [(2,), (1, 1)]
        assert family_degree_classes(ExtremalParams(4, 5, 0, 16)) == [
            (3,),
            (2, 1),
            (1, 1, 1),
        ]
        assert family_degree_classes(ExtremalParams(1, 3, 1, 10)) == [()]

    def test_member_count_and_edge_counts_equal(self):
        p = ExtremalParams(4, 4, 1, 16)
        members = list(enumerate_family(p))
        assert len(members) == 3
        counts = {m.edge_count for m in members}
        assert counts == {extremal_edge_count(p)}

    def test_first_member_is_extremal_graph(self):
        for a, b, k, n in [(1, 2, 0, 10), (2, 3, 0, 11), (3, 4, 1, 15), (4, 4, 0, 14)]:
            p = ExtremalParams(a, b, k, n)
            assert next(enumerate_family(p)) == extremal_graph(p)

    def test_assignment_validation(self):
        p = ExtremalParams(3, 3, 0, 12)
        with pytest.raises(ValueError):
            family_member(p, ((0, 0), (), (), ()))  # repeat endpoint
        with pytest.raises(ValueError):
            family_member(p, ((0,), (), (), ()))  # only 1 edge
        with pytest.raises(ValueError):
            family_member(p, ((0, 1), (), ()))  # wrong arity
        with pytest.raises(ValueError):
            family_member(p, ((0, 99), (), (), ()))  # bad offset

    def test_shared_vs_disjoint_placements_differ(self):
        # two placements with the same multiset need not be isomorphic:
        # across two independent vertices, shared endpoint vs distinct
        # endpoints give different degree sequences
        p = ExtremalParams(3, 3, 0, 12)
        disjoint = class_representative(p, (1, 1))
        shared = family_member(p, ((0,), (0,), (), ()))
        assert sorted(disjoint.degrees()) != sorted(shared.degrees())

    def test_a1_family_is_base(self):
        p = ExtremalParams(1, 2, 0, 10)
        members = list(enumerate_family(p))
        assert members == [base_join_graph(p)]
        assert members[0] == extremal_graph(p)


class TestEquitablePartition:
    def test_part_sizes(self):
        parts = equitable_partition(ExtremalParams(2, 3, 1, 12))
        assert [len(p) for p in parts] == [3, 1, 4, 1, 3]
        parts = equitable_partition(ExtremalParams(1, 2, 0, 10))
        assert [len(p) for p in parts] == [1, 6, 1, 2]  # a=1 drops the target part

    def test_partition_is_equitable(self):
        for a, b, k, n in [(1, 2, 0, 10), (2, 3, 1, 12), (3, 4, 0, 14), (4, 5, 2, 20)]:
            p = ExtremalParams(a, b, k, n)
            quotient_matrix(extremal_graph(p), equitable_partition(p))  # must not raise

    def test_quotient_matches_power_iteration(self):
        for a, b, k, n in [(1, 2, 0, 10), (2, 3, 1, 12), (3, 4, 0, 14)]:
            p = ExtremalParams(a, b, k, n)
            g = extremal_graph(p)
            quo = quotient_matrix(g, equitable_partition(p))
            lam_q = max(np.linalg.eigvals(np.array(quo.entries, dtype=float)).real)
            lam_p = spectral_radius(g).lam
            assert lam_q == pytest.approx(lam_p, abs=1e-8)

    def test_degenerate_w_equals_targets(self):
        # w = a-1 drops the rest-of-W part
        p = ExtremalParams(3, 3, 0, 9)
        parts = equitable_partition(p)
        assert [len(q) for q in parts] == [3, 2, 1, 3]
        quotient_matrix(extremal_graph(p), parts)
