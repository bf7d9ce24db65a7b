"""The supports-first walk behind ``is_sss`` against the plain 3**p scanner.

The reference below feeds every admissible sign pattern (first nonzero
entry +1) to ``_PatternScanner`` in lexicographic order, the way
``is_sss`` worked before it walked covectors.  Both must agree on the
verdict, the reason, the witness and ``refuted_patterns``.  Every pattern
the simplex finds feasible must be a covector of the spring graph with the
damper classes contracted, and the scanner, which skips the simplex on
one-direction supports, must agree with the simplex on every pattern.

``is_sss`` enumerates the covectors' supports, settles each by the
forced-zero rule and then by elimination, and merges the sign walks of the
live ones.  The supports and the walks are checked against brute-force
covectors, the rule against elimination, and the support systems, which
are solved over the support's columns only, against the full system.
"""

import gc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscsync import exactlin, fixtures, graphs, structural
from oscsync.graphs import Interconnection
from oscsync.structural import BudgetExceededError, SignWitness, is_sss


@st.composite
def ss_interconnections(draw, q_max=7, p_r_max=8):
    """Connected union graph with at least one damper and p_r <= p_r_max:
    a random spanning tree plus extra edges, then a random damper count."""
    q = draw(st.integers(min_value=4, max_value=q_max))
    order = draw(st.permutations(range(1, q + 1)))
    edges = []
    for i in range(1, q):
        parent = order[draw(st.integers(min_value=0, max_value=i - 1))]
        edges.append(tuple(sorted((order[i], parent))))
    pool = [e for e in combinations(range(1, q + 1), 2) if e not in edges]
    edges += draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    p_d = draw(st.integers(min_value=max(1, len(edges) - p_r_max), max_value=len(edges)))
    edges = draw(st.permutations(edges))
    return Interconnection(q, tuple(sorted(edges[:p_d])), tuple(sorted(edges[p_d:])))


def admissible_patterns(p):
    for sig in product((-1, 0, 1), repeat=p):
        if next((s for s in sig if s), 0) == 1:
            yield sig


def scanner_for(ric):
    a, c = structural._sign_matrices(ric)
    return structural._PatternScanner(a, c, ric.p_r)


def full_system_basis(ric, support):
    """Null-space basis of a support's equality system over all p columns:
    the dissipative rows, then x_i = 0 and the image row for each zero
    spring."""
    a, c = structural._sign_matrices(ric)
    p = ric.p_r
    rows = [list(r) for r in c]
    for i in range(p):
        if not support[i]:
            rows += [[int(j == i) for j in range(p)], list(a[i])]
    return exactlin.null_space(rows, p)


def settled_supports(ric):
    """(support, groups, forced-zero verdict) for every enumerated support."""
    count, cls, ends = structural._contract(ric)
    return [
        (support, group, structural._forced_zero(ric, cls, support, group))
        for support, group in structural._supports(count, ends)
    ]


def merged_walks(ric):
    """Every support's sign walk, concatenated in enumeration order."""
    count, _, ends = structural._contract(ric)
    walks = []
    for support, group in structural._supports(count, ends):
        walk = list(structural._sign_walk(ends, support, group))
        assert walk == sorted(walk)
        assert all(tuple(v != 0 for v in sig) == support for sig in walk)
        walks += walk
    return walks


def check_supports_and_walks(ric):
    """The enumerated supports are the distinct supports of the brute-force
    covectors, in order, each with the groups its zero springs join; the
    sign walks together yield every covector exactly once."""
    count, _, ends = structural._contract(ric)
    covectors = brute_covectors(ric)
    supports = structural._supports(count, ends)
    assert [support for support, _ in supports] == sorted(
        {tuple(v != 0 for v in sig) for sig in covectors}
    )
    for support, group in supports:
        merged = [{i} for i in range(count)]
        for (a, b), on in zip(ends, support):
            if not on:
                for i in merged[a] | merged[b]:
                    merged[i] = merged[a] | merged[b]
        assert group == tuple(sum(1 << i for i in m) for m in merged)
    walked = merged_walks(ric)
    assert len(walked) == len(set(walked))
    assert sorted(walked) == sorted(covectors)


def check_settling(ric):
    """Every support the forced-zero rule rejects is dead by elimination.
    ``_support_data``, which solves over the support's columns, returns the
    full system's basis, and calls a support dead only when the full
    system has no basis or a support spring whose x entry or image entry
    vanishes on all of it."""
    a, _ = structural._sign_matrices(ric)
    scanner = scanner_for(ric)
    for support, _, by_rule in settled_supports(ric):
        data = scanner._support_data(support)
        basis = full_system_basis(ric, support)
        if data is not None:
            assert not by_rule
            assert data[0] == basis
        else:
            assert not basis or any(
                on
                and (
                    all(b[i] == 0 for b in basis)
                    or all(exactlin.matvec([a[i]], b)[0] == 0 for b in basis)
                )
                for i, on in enumerate(support)
            )


def corpus(max_cycle):
    """All 64 K4 labellings, the gallery, alternating_cycle(4 ... max_cycle)."""
    cases = list(k4_labellings()) + [f.ic for f in fixtures.gallery()]
    return cases + [fixtures.alternating_cycle(q) for q in range(4, max_cycle + 1, 2)]


def simplex_feasible(scanner, sig):
    """The pattern's strict system, always decided by the simplex."""
    data = scanner._support_data(tuple(v != 0 for v in sig))
    if data is None:
        return False
    _, xrows, arows = data
    rows = []
    for i, s in enumerate(sig):
        if s:
            rows += [[s * v for v in xrows[i]], [s * v for v in arows[i]]]
    return exactlin.strictly_feasible(rows) is not None


def reference_is_sss(ic):
    """(is_sss, reason, witness entries, refuted_patterns) by full scan."""
    ric = graphs.reduce(ic)
    if not structural.is_ss(ric).is_ss:
        return False, "not-ss", None, 0
    if ric.p_r == 0:
        return True, "no-restorative-edges", None, 0
    scanner = scanner_for(ric)
    refuted = 0
    for sig in admissible_patterns(ric.p_r):
        x = scanner.witness_for(sig)
        if x is not None:
            return False, "witness-found", SignWitness.from_rationals(x).x, refuted
        refuted += 1
    return True, "patterns-exhausted", None, refuted


def summary(verdict):
    x = None if verdict.witness is None else verdict.witness.x
    return verdict.is_sss, verdict.reason, x, verdict.refuted_patterns


def brute_covectors(ric):
    """Admissible sign vectors sign(v_k - v_l) for v constant on damper
    classes, from every map of the classes into {0, ..., n-1}."""
    dc = graphs.components(ric.q, ric.dissipative_edges)
    n = dc.count
    out = set()
    for heights in product(range(n), repeat=n):
        v = [heights[c - 1] for c in dc.assignment]
        sig = tuple(
            (v[k - 1] > v[l - 1]) - (v[k - 1] < v[l - 1]) for k, l in ric.restorative_edges
        )
        if next((s for s in sig if s), 0) == 1:
            out.add(sig)
    return out


def k4_labellings():
    edges = list(combinations(range(1, 5), 2))
    for kinds in product("dr", repeat=len(edges)):
        d = tuple(e for e, k in zip(edges, kinds) if k == "d")
        r = tuple(e for e, k in zip(edges, kinds) if k == "r")
        yield Interconnection(4, d, r)


def count_calls(monkeypatch):
    calls = {"null_space": 0, "strictly_feasible": 0}
    for name in calls:
        original = getattr(exactlin, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(exactlin, name, counted)
    return calls


class TestAgainstFullScan:
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(ss_interconnections())
    def test_walk_matches_full_scan(self, ic):
        assert summary(is_sss(ic)) == reference_is_sss(ic)

    def test_every_k4_labelling(self):
        for ic in k4_labellings():
            assert summary(is_sss(ic)) == reference_is_sss(ic), ic

    def test_gallery_and_alternating_cycles(self):
        cases = [f.ic for f in fixtures.gallery()]
        cases += [fixtures.alternating_cycle(q) for q in range(4, 14, 2)]
        for ic in cases:
            assert summary(is_sss(ic)) == reference_is_sss(ic), ic

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(ss_interconnections())
    def test_supports_and_walks_yield_exactly_the_covectors(self, ic):
        check_supports_and_walks(graphs.reduce(ic))

    def test_supports_and_walks_on_k4_gallery_and_cycles(self):
        for ic in corpus(max_cycle=12):
            check_supports_and_walks(graphs.reduce(ic))

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(ss_interconnections(p_r_max=6))
    def test_feasible_patterns_are_covectors(self, ic):
        ric = graphs.reduce(ic)
        if ric.p_r == 0:
            return
        covectors = brute_covectors(ric)
        scanner = scanner_for(ric)
        for sig in admissible_patterns(ric.p_r):
            feasible = simplex_feasible(scanner, sig)
            assert (scanner.witness_for(sig) is not None) == feasible
            if feasible:
                assert sig in covectors

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(ss_interconnections())
    def test_simplex_calls_match_the_covector_walk(self, ic):
        # Walking every covector in lexicographic order up to the first
        # feasible one: the merged walk must make exactly these calls.
        ric = graphs.reduce(ic)
        with pytest.MonkeyPatch.context() as mp:
            expected = count_calls(mp)
            scanner = scanner_for(ric)
            for sig in sorted(brute_covectors(ric)):
                if scanner.witness_for(sig) is not None:
                    break
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp)
            is_sss(ic)
        assert calls["strictly_feasible"] == expected["strictly_feasible"]

    def test_rank_closed_form(self):
        for p in range(1, 6):
            for rank, sig in enumerate(admissible_patterns(p)):
                assert structural._admissible_rank(sig) == rank


class TestSettlingSupports:
    def test_rule_and_support_columns_on_k4_gallery_and_cycles(self):
        for ic in corpus(max_cycle=14):
            check_settling(graphs.reduce(ic))

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(ss_interconnections())
    def test_rule_and_support_columns_on_random_interconnections(self, ic):
        check_settling(graphs.reduce(ic))

    def test_rule_rejects_most_cycle_supports(self):
        settled = settled_supports(graphs.reduce(fixtures.alternating_cycle(18)))
        assert (len(settled), sum(dead for *_, dead in settled)) == (502, 345)


def ladder_tree_plus_edges(rng, q, total):
    """A random spanning tree on 1..q plus random extra edges, ``total``
    edges in all: the ladder's generator, drawing as the decide
    benchmark's does."""
    order = [int(v) for v in rng.permutation(np.arange(1, q + 1))]
    edges = []
    for i in range(1, q):
        parent = order[int(rng.integers(0, i))]
        edges.append((min(order[i], parent), max(order[i], parent)))
    present = set(edges)
    pool = [(k, l) for k in range(1, q + 1) for l in range(k + 1, q + 1) if (k, l) not in present]
    for j in rng.permutation(len(pool)):
        if len(edges) >= total:
            break
        edges.append(pool[int(j)])
    return edges


def ladder_split_labels(rng, edges, p_d):
    """Label ``p_d`` random edges as dampers, the rest as springs."""
    picked = set(int(i) for i in rng.permutation(len(edges))[:p_d])
    d = tuple(sorted(e for i, e in enumerate(edges) if i in picked))
    r = tuple(sorted(e for i, e in enumerate(edges) if i not in picked))
    return d, r


class TestLadder:
    """Answers measured before supports came first (the alternating
    cycles) and before the simplex went fraction-free (the sparse p_r = 14
    instances, built as the ladder's are)."""

    @pytest.mark.parametrize(
        "q, witness, refuted",
        [
            (24, (1, -1) * 5 + (1, 1), 132_861),
            (26, None, 797_161),
            (28, (1, -1) * 6 + (1, 1), 1_195_743),
        ],
    )
    def test_alternating_cycles(self, q, witness, refuted):
        verdict = is_sss(fixtures.alternating_cycle(q))
        assert verdict.is_sss == (witness is None)
        assert (verdict.witness and verdict.witness.x) == witness
        assert verdict.refuted_patterns == refuted

    @pytest.mark.parametrize(
        "q, p_d, seed, witness, refuted",
        [
            (11, 4, 1, (1, 4, -2, 2, -1, -1, 5, 1, -3, -1, -2, -1, 1, -1), 1_983_979),
            (11, 4, 2, (0, 3, 3, -1, 0, -1, -2, -1, -1, -1, -1, -1, -1, -2), 639_697),
        ],
    )
    def test_sparse_dampers_at_full_budget(self, q, p_d, seed, witness, refuted):
        # Simplex-bound: with the simplex over Fractions these took 18.5 s
        # and 37.6 s.
        rng = np.random.default_rng([seed, q, 14])
        edges = ladder_tree_plus_edges(rng, q, 14 + p_d)
        ic = Interconnection(q, *ladder_split_labels(rng, edges, p_d))
        assert graphs.reduce(ic).p_r == 14
        verdict = is_sss(ic)
        assert not verdict.is_sss and verdict.witness.x == witness
        assert verdict.refuted_patterns == refuted


class TestWorkDone:
    def test_connected_dampers_need_no_linear_algebra(self, monkeypatch):
        ic = Interconnection(4, ((1, 2), (2, 3), (3, 4)), ((1, 3), (2, 4), (1, 4)))
        calls = count_calls(monkeypatch)
        verdict = is_sss(ic)
        assert verdict.is_sss and verdict.reason == "patterns-exhausted"
        assert verdict.refuted_patterns == (3**ic.p_r - 1) // 2
        assert calls == {"null_space": 0, "strictly_feasible": 0}

    def test_cycle_settles_few_supports_by_elimination(self, monkeypatch):
        # The covector walk made 502 null_space calls here, one per
        # support, all dead; the forced-zero rule settles 345 of them.
        calls = count_calls(monkeypatch)
        verdict = is_sss(fixtures.alternating_cycle(18))
        assert verdict.is_sss and verdict.refuted_patterns == 9841
        assert calls == {"null_space": 157, "strictly_feasible": 0}

    def test_braced_chain_two_simplex_calls(self, monkeypatch):
        calls = count_calls(monkeypatch)
        verdict = is_sss(fixtures.braced_chain())
        assert verdict.witness.x == (1, -3, -2)
        assert verdict.refuted_patterns == 4
        assert calls["strictly_feasible"] <= 2

    @pytest.mark.parametrize("name", ["braced-chain", "alternating-cycle-6", "covered-path"])
    def test_leaves_no_reference_cycles(self, name):
        # Supports and sign walks are freed by reference counting, not
        # left to the cyclic collector, whose pauses set peak memory.
        ic = fixtures.by_name(name).ic
        gc.collect()
        gc.disable()
        try:
            is_sss(ic)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestEdgeCases:
    def test_spring_inside_a_damper_class_is_always_zero(self):
        # Spring (1, 3) joins two vertices of the damper class {1, 2, 3}.
        ric = Interconnection(5, ((1, 2), (2, 3), (4, 5)), ((1, 3), (3, 4), (1, 5)))
        supports = [support for support, *_ in settled_supports(ric)]
        walked = merged_walks(ric)
        assert supports and walked
        assert not any(support[0] for support in supports)
        assert all(sig[0] == 0 for sig in walked)

    def test_springs_inside_one_class_universal_without_simplex(self, monkeypatch):
        # A damper star; the springs form a triangle on its leaves.
        ic = Interconnection(4, ((1, 2), (1, 3), (1, 4)), ((2, 3), (3, 4), (2, 4)))
        calls = count_calls(monkeypatch)
        verdict = is_sss(ic)
        assert verdict.is_sss and verdict.refuted_patterns == 13
        assert calls["strictly_feasible"] == 0

    def test_budget_guard_raises_before_walking(self, monkeypatch):
        def enumerate_supports(*_args):
            raise AssertionError("walked past the budget")

        monkeypatch.setattr(structural, "_supports", enumerate_supports)
        r_edges = tuple((k, k + 1) for k in range(1, 17))
        with pytest.raises(BudgetExceededError, match="undecided-budget: 15"):
            is_sss(Interconnection(17, ((1, 2),), r_edges), budget=14)
