"""The row-stacked rescale grid of weight synthesis against the per-point scan.

The reference below is ``_best_scaling`` as it was before the grid was
stacked: one ``spectrum`` call and one closed-loop ``eigvals`` call per grid
point, with the same norm cap, positive band and tie rule.  Both must return
exactly the same (rate, beta_d, beta_r) on every pair the synthesis ranks,
so the synthesized weights do not move.  The work-done tests pin that each
distinct taper profile is ranked once and that ``_finalize`` reuses the
winner's grid instead of recomputing it.
"""

import math

import numpy as np
import pytest

from oscsync import fixtures, structural
from oscsync.laplacians import laplacian, rescale
from oscsync.spectral import spectrum
from test_acceptance import _random_ss


def _reference_rate(dm, rm):
    qn = dm.shape[0]
    a = np.zeros((2 * qn, 2 * qn))
    a[:qn, qn:] = np.eye(qn)
    a[qn:, :qn] = -(np.eye(qn) + rm)
    a[qn:, qn:] = -dm
    re = np.sort(np.linalg.eigvals(a).real)
    return -float(re[-3])


def reference_best_scaling(dm, rm):
    nd = float(np.abs(np.linalg.eigvalsh(dm)).max())
    nr = float(np.abs(np.linalg.eigvalsh(rm)).max())
    best_rate = -math.inf
    best = (1.0, 1.0)
    for beta_d in structural._BETA_LADDER:
        if beta_d * nd > structural._NORM_CAP:
            continue
        for beta_r in structural._BETA_LADDER:
            if beta_r * nr > structural._NORM_CAP:
                continue
            if spectrum(beta_d * dm, beta_r * rm).classification() != "positive":
                continue
            rate = _reference_rate(beta_d * dm, beta_r * rm)
            if rate > best_rate + 1e-12:
                best_rate = rate
                best = (beta_d, beta_r)
    return best_rate, best[0], best[1]


def ranked_pairs(monkeypatch, ic):
    """Every (dm, rm) the synthesis hands to ``_best_scaling`` for ``ic``:
    each distinct taper trial of the disconnected branch, or the final pair
    of the connected one."""
    seen = []
    inner = structural._best_scaling

    def recording(dm, rm):
        seen.append((dm.copy(), rm.copy()))
        return inner(dm, rm)

    with monkeypatch.context() as m:
        m.setattr(structural, "_best_scaling", recording)
        structural.construct_synchronizing_weights(ic)
    return seen


def assert_grid_matches(dm, rm):
    got = structural._best_scaling(dm, rm)
    assert got == reference_best_scaling(dm, rm)
    assert all(type(x) is float for x in got)


def _counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


def ss_gallery():
    return [f for f in fixtures.gallery() if structural.is_ss(f.ic).is_ss]


class TestAgainstPerPointScan:
    def test_criterion6_pairs_every_taper_trial(self, monkeypatch):
        rng = np.random.default_rng(20260819)
        branches = set()
        for _ in range(10):
            ic = _random_ss(rng)
            pairs = ranked_pairs(monkeypatch, ic)
            assert pairs
            branches.add(len(pairs) > 1)
            for dm, rm in pairs:
                assert_grid_matches(dm, rm)
        assert branches == {False, True}

    @pytest.mark.parametrize("fixture", ss_gallery(), ids=lambda f: f.name)
    def test_ss_gallery(self, monkeypatch, fixture):
        for dm, rm in ranked_pairs(monkeypatch, fixture.ic):
            assert_grid_matches(dm, rm)

    @pytest.mark.parametrize("name", ["damper-chain", "two-node"])
    def test_no_springs(self, name):
        ic = fixtures.by_name(name).ic
        d = laplacian(ic.q, ic.dissipative_edges, [1.0] * ic.p_d)
        r = laplacian(ic.q, (), [])
        assert_grid_matches(d.matrix, r.matrix)
        assert math.isfinite(structural._best_scaling(d.matrix, r.matrix)[0])


class TestEmptyGrid:
    def test_borderline_witness_pair(self):
        ic = fixtures.braced_chain()
        d, r = structural.witness_to_laplacians(ic, structural.is_sss(ic).witness.x)
        assert spectrum(d, r).classification() == "borderline"
        assert structural._best_scaling(d.matrix, r.matrix) == (-math.inf, 1.0, 1.0)
        assert reference_best_scaling(d.matrix, r.matrix) == (-math.inf, 1.0, 1.0)

    @pytest.mark.parametrize("family", ["d", "r"])
    def test_norm_cap_excludes_every_row(self, monkeypatch, family):
        d, r = structural.construct_synchronizing_weights(fixtures.braced_chain())
        huge = 1e3 * structural._NORM_CAP / min(structural._BETA_LADDER)
        if family == "d":
            d = rescale(d, huge)
        else:
            r = rescale(r, huge)
        assert reference_best_scaling(d.matrix, r.matrix) == (-math.inf, 1.0, 1.0)
        calls = []
        for name in ("eigvals", "norm"):
            monkeypatch.setattr(np.linalg, name, _counting(getattr(np.linalg, name), calls))
        assert structural._best_scaling(d.matrix, r.matrix) == (-math.inf, 1.0, 1.0)
        assert calls == []


class TestWorkDone:
    def count_calls(self, monkeypatch, ic):
        """(_best_scaling calls in all, of them made inside _finalize)."""
        total = [0]
        in_finalize = [0]
        inner_scaling, inner_finalize = structural._best_scaling, structural._finalize

        def scaling(dm, rm):
            total[0] += 1
            return inner_scaling(dm, rm)

        def finalize(*args):
            before = total[0]
            out = inner_finalize(*args)
            in_finalize[0] += total[0] - before
            return out

        with monkeypatch.context() as m:
            m.setattr(structural, "_best_scaling", scaling)
            m.setattr(structural, "_finalize", finalize)
            structural.construct_synchronizing_weights(ic)
        return total[0], in_finalize[0]

    def distinct_profiles(self, monkeypatch, ic):
        """Distinct taper trials, found by running one taper at a time."""
        profiles = set()
        for taper in structural._TAPERS:
            with monkeypatch.context() as m:
                m.setattr(structural, "_TAPERS", (taper,))
                (dm, rm), = ranked_pairs(m, ic)
            profiles.add(rm.tobytes())
        return len(profiles)

    @pytest.mark.parametrize(
        "name", ["covered-path", "gapped-cycle-5", "overlap-pair", "damper-chain", "two-node"]
    )
    def test_disconnected_ranks_each_profile_once(self, monkeypatch, name):
        ic = fixtures.by_name(name).ic
        total, in_finalize = self.count_calls(monkeypatch, ic)
        assert total == self.distinct_profiles(monkeypatch, ic)
        assert in_finalize == 0
        if not ic.p_r:
            assert total == 1

    def test_tapers_can_differ(self, monkeypatch):
        assert self.distinct_profiles(monkeypatch, fixtures.by_name("covered-path").ic) > 1

    def test_connected_one_grid(self, monkeypatch):
        assert self.count_calls(monkeypatch, fixtures.braced_chain()) == (1, 1)

    def test_finalize_with_given_scaling(self):
        d, r = structural.construct_synchronizing_weights(fixtures.twin_triangles())
        d, r = rescale(d, 3.0), rescale(r, 0.25)
        scaling = structural._best_scaling(d.matrix, r.matrix)
        plain = structural._finalize(d, r)
        given = structural._finalize(d, r, scaling)
        assert (plain[0].weights, plain[1].weights) == (given[0].weights, given[1].weights)
        assert plain[0].weights != d.weights
