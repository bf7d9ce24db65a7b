"""The stacked falsification trials and the array-sampled simulator against
the per-item loops they replace.

``reference_falsify`` is ``falsify_by_sampling`` as it was before its
trials were stacked: two ``sample_laplacian`` calls and one ``spectrum``
call per trial.  ``reference_simulate`` is ``simulate`` as it was before
its samples were stored in one array: a finiteness check, a pairwise
deviation and an output product per sample.  Both must return exactly the
same results.  The work-done tests pin what the stacked forms no longer
do: no ``spectrum`` call and no laplacian per trial.
"""

import math
import warnings

import numpy as np
import pytest

from oscsync import dynamics, fixtures, laplacians, spectral, structural
from oscsync.dynamics import InstabilityError, harmonic, random_state, simulate, spread_state
from oscsync.graphs import Interconnection
from oscsync.laplacians import sample_laplacian
from oscsync.spectral import spectrum

CHUNK = structural._FALSIFY_CHUNK


def reference_trials(ic, trials, seed, weight_range):
    """The per-trial loop: each sampled pair and whether it is positive."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        sd = int(rng.integers(0, 2**62))
        sr = int(rng.integers(0, 2**62))
        d = sample_laplacian(ic.q, ic.dissipative_edges, sd, weight_range)
        r = sample_laplacian(ic.q, ic.restorative_edges, sr, weight_range)
        yield d, r, spectrum(d, r).classification() == "positive"


def reference_falsify(ic, trials, seed, weight_range=(0.1, 10.0), candidates=()):
    ssv = structural.is_ss(ic)
    if not ssv.is_ss:
        raise ValueError(f"falsification needs an SS interconnection ({ssv.reason})")
    for d, r in candidates:
        if spectrum(d, r).classification() != "positive":
            return d, r
    for d, r, positive in reference_trials(ic, trials, seed, weight_range):
        if not positive:
            return d, r
    return None


def reference_hit(ic, trials, seed):
    """Index of the first non-positive trial, or None."""
    trials = reference_trials(ic, trials, seed, (0.1, 10.0))
    return next((i for i, (_, _, positive) in enumerate(trials) if not positive), None)


def as_key(found):
    if found is None:
        return None
    d, r = found
    types = tuple(type(w) for w in d.weights + r.weights)
    return (d.q, d.edges, d.weights, r.q, r.edges, r.weights, types)


def assert_falsify_matches(ic, trials, seed, **kwargs):
    got = structural.falsify_by_sampling(ic, trials, seed, **kwargs)
    want = reference_falsify(ic, trials, seed, **kwargs)
    assert as_key(got) == as_key(want)
    return got


def random_ss_ic(rng, q):
    """An SS interconnection drawn like the crosscheck benchmark's: a random
    spanning tree on q vertices plus up to q/2 extra edges, random labels."""
    while True:
        order = [int(v) for v in rng.permutation(np.arange(1, q + 1))]
        edges = set()
        for i in range(1, q):
            parent = order[int(rng.integers(0, i))]
            edges.add((min(order[i], parent), max(order[i], parent)))
        for _ in range(int(rng.integers(0, q // 2 + 1))):
            k, l = sorted(int(v) for v in rng.choice(np.arange(1, q + 1), 2, replace=False))
            edges.add((k, l))
        edges = sorted(edges)
        picked = set(int(i) for i in rng.permutation(len(edges))[: int(rng.integers(1, len(edges)))])
        ic = Interconnection(
            q,
            tuple(e for i, e in enumerate(edges) if i in picked),
            tuple(e for i, e in enumerate(edges) if i not in picked),
        )
        if structural.is_ss(ic).is_ss:
            return ic


class TestFalsifyAgainstPerTrialLoop:
    def test_crosscheck_style_corpus(self):
        rng = np.random.default_rng(7)
        hits = 0
        for i in range(24):
            ic = random_ss_ic(rng, int(rng.integers(4, 11)))
            found = assert_falsify_matches(ic, 200, seed=1000 + i, weight_range=(0.2, 5.0))
            hits += found is not None
        assert 0 < hits < 24

    @pytest.mark.parametrize("seed", range(6))
    def test_hitting_fixture(self, seed):
        ic = fixtures.by_name("gapped-path-end").ic
        assert_falsify_matches(ic, 100, seed)

    @pytest.mark.parametrize("trials", [0, 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("name", ["gapped-path-end", "twin-triangles", "braced-chain"])
    def test_trial_counts(self, name, trials):
        ic = fixtures.by_name(name).ic
        for seed in range(3):
            assert_falsify_matches(ic, trials, seed)

    @pytest.mark.parametrize(
        "seed, hit", [(46, 0), (70, CHUNK - 1), (123, CHUNK), (239, 2 * CHUNK - 1), (442, 2 * CHUNK)]
    )
    def test_hit_at_chunk_edges(self, seed, hit):
        ic = fixtures.by_name("gapped-path-end").ic
        assert reference_hit(ic, 3 * CHUNK, seed) == hit
        for trials in (hit + 1, 3 * CHUNK):
            assert assert_falsify_matches(ic, trials, seed) is not None
        assert assert_falsify_matches(ic, hit, seed) is None

    def test_universal_fixture_many_trials(self):
        assert assert_falsify_matches(fixtures.twin_triangles(), 500, seed=4) is None

    def test_candidates_path(self):
        ic = fixtures.braced_chain()
        pinned = structural.witness_to_laplacians(ic, (2, -1, 1))
        synced = structural.construct_synchronizing_weights(ic)
        for candidates in ([pinned], [synced, pinned], [synced]):
            for trials in (0, 5):
                found = assert_falsify_matches(ic, trials, seed=3, candidates=candidates)
                if pinned in candidates:
                    assert found == pinned

    @pytest.mark.parametrize("weight_range", [(0.0, 1.0), (2.0, 1.0), (-1.0, 1.0)])
    def test_invalid_weight_range(self, weight_range):
        ic = fixtures.braced_chain()
        with pytest.raises(ValueError) as want:
            reference_falsify(ic, 1, 0, weight_range=weight_range)
        with pytest.raises(ValueError) as got:
            structural.falsify_by_sampling(ic, 1, 0, weight_range=weight_range)
        assert str(got.value) == str(want.value)
        assert structural.falsify_by_sampling(ic, 0, 0, weight_range=weight_range) is None

    @pytest.mark.parametrize("q", [2, 7])
    def test_sample_matrices_slices(self, q):
        # Complete graphs: every diagonal entry sums q - 1 weights, in edge order.
        edges = tuple((k, l) for k in range(1, q + 1) for l in range(k + 1, q + 1))
        seeds = [3, 1 << 61, 7] + list(range(100, 130))
        stack = laplacians.sample_matrices(q, edges, seeds, (0.01, 100.0))
        for s, m in zip(seeds, stack):
            one = sample_laplacian(q, edges, s, (0.01, 100.0)).matrix
            assert m.tobytes() == one.tobytes()


class TestFalsifyWorkDone:
    def count(self, monkeypatch, ic, trials, seed):
        calls = {"spectrum": 0, "eigvals": 0, "sample_laplacian": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        spectrum_counter = counting("spectrum", spectral.spectrum)
        for module in (spectral, structural):
            monkeypatch.setattr(module, "spectrum", spectrum_counter)
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(
            structural, "sample_laplacian", counting("sample_laplacian", sample_laplacian)
        )
        found = structural.falsify_by_sampling(ic, trials, seed)
        return found, calls

    def test_universal_twin_triangles(self, monkeypatch):
        found, calls = self.count(monkeypatch, fixtures.twin_triangles(), 200, seed=4)
        assert found is None
        assert calls == {
            "spectrum": 0,
            "eigvals": math.ceil(200 / CHUNK),
            "sample_laplacian": 0,
        }

    def test_hit_builds_only_the_returned_pair(self, monkeypatch):
        found, calls = self.count(monkeypatch, fixtures.by_name("gapped-path-end").ic, 200, 123)
        assert found is not None
        assert calls == {"spectrum": 0, "eigvals": 2, "sample_laplacian": 2}


def reference_simulate(sys, ic, d_weights, r_weights, initial=None, horizon=200.0,
                       step=1e-3, keep_states=False):
    q = ic.q
    if initial is None:
        initial = spread_state(q, sys.n)
    d = dynamics._coupling_matrix(q, ic.dissipative_edges, d_weights)
    r = dynamics._coupling_matrix(q, ic.restorative_edges, r_weights)
    a = dynamics.closed_loop_matrix(sys, d, r)
    ha = step * a
    p2 = ha @ ha
    p3 = p2 @ ha
    phi = np.eye(a.shape[0]) + ha + p2 / 2 + p3 / 6 + (p3 @ ha) / 24
    steps = int(round(horizon / step))
    stride = max(1, steps // 1000)
    phi_stride = np.linalg.matrix_power(phi, stride)

    nq = q * sys.n
    z = np.concatenate([initial.positions.reshape(-1), initial.velocities.reshape(-1)])
    times, deviations, outputs, kept_pos, kept_vel = [], [], [], [], []

    def record(idx, state):
        if not np.isfinite(state).all():
            raise InstabilityError(
                f"state left the representable range at t={idx * step:.6g}; "
                "reduce the step size or the coupling norms"
            )
        pos = state[:nq].reshape(q, sys.n)
        vel = state[nq:].reshape(q, sys.n)
        times.append(initial.t + idx * step)
        dp = pos[:, None, :] - pos[None, :, :]
        dv = vel[:, None, :] - vel[None, :, :]
        total = np.linalg.norm(dp, axis=2) + np.linalg.norm(dv, axis=2)
        deviations.append(float(total.max()))
        outputs.append(pos @ sys.b)
        if keep_states:
            kept_pos.append(pos.copy())
            kept_vel.append(vel.copy())

    record(0, z)
    idx = 0
    while idx + stride <= steps:
        z = phi_stride @ z
        idx += stride
        record(idx, z)
    if idx < steps:
        z = np.linalg.matrix_power(phi, steps - idx) @ z
        record(steps, z)

    times_arr = np.array(times)
    dev_arr = np.array(deviations)
    window = dev_arr[times_arr >= initial.t + 0.8 * steps * step - 1e-12]
    return dynamics.SyncTrace(
        times=times_arr,
        deviations=dev_arr,
        outputs=np.array(outputs),
        tail=float(window.max()),
        controllable=dynamics.check_controllability(sys),
        positions=np.array(kept_pos) if keep_states else None,
        velocities=np.array(kept_vel) if keep_states else None,
    )


def _two_dof():
    return dynamics.OscillatorSystem(
        n=2, m=np.diag([1.0, 2.0]), k=np.array([[2.0, -0.5], [-0.5, 1.5]]), b=np.array([0.6, 0.8])
    )


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_traces_equal(got, want, keep_states):
    for field in ("times", "deviations", "outputs"):
        assert_bitwise(getattr(got, field), getattr(want, field))
    assert got.tail == want.tail and type(got.tail) is float
    assert got.controllable == want.controllable
    if keep_states:
        assert_bitwise(got.positions, want.positions)
        assert_bitwise(got.velocities, want.velocities)
    else:
        assert got.positions is None and got.velocities is None
    assert got.to_csv() == want.to_csv()


class TestSimulateAgainstPerSampleLoop:
    @pytest.mark.parametrize("keep_states", [False, True])
    @pytest.mark.parametrize("node", ["harmonic", "two-dof"])
    @pytest.mark.parametrize("name", ["braced-chain", "twin-triangles", "star-two-spring-leaves"])
    def test_gallery_partial_last_stride(self, name, node, keep_states):
        ic = fixtures.by_name(name).ic
        d, r = structural.construct_synchronizing_weights(ic)
        sysn = harmonic() if node == "harmonic" else _two_dof()
        for horizon, step in ((2.501, 1e-3), (200.0, 1e-3), (7.0, 0.01)):
            init = random_state(ic.q, sysn.n, seed=11)
            steps = int(round(horizon / step))
            if horizon == 2.501:
                assert steps == 2501 and steps % max(1, steps // 1000)
            got = simulate(sysn, ic, d, r, initial=init, horizon=horizon, step=step,
                           keep_states=keep_states)
            want = reference_simulate(sysn, ic, d, r, initial=init, horizon=horizon, step=step,
                                      keep_states=keep_states)
            assert_traces_equal(got, want, keep_states)

    def test_sampled_weights_and_start_time(self):
        rng = np.random.default_rng(17)
        for q in (4, 9, 16):
            ic = random_ss_ic(rng, q)
            d = sample_laplacian(ic.q, ic.dissipative_edges, int(rng.integers(2**62)), (0.2, 5.0))
            r = sample_laplacian(ic.q, ic.restorative_edges, int(rng.integers(2**62)), (0.2, 5.0))
            base = random_state(ic.q, 2, seed=q)
            init = dynamics.ArrayState(base.positions, base.velocities, t=3.25)
            got = simulate(_two_dof(), ic, d, r, initial=init, keep_states=True)
            want = reference_simulate(_two_dof(), ic, d, r, initial=init, keep_states=True)
            assert_traces_equal(got, want, True)

    def test_high_order_node(self):
        """Nine degrees of freedom per node: np.linalg.norm sums eight or
        more squares pairwise, not left to right."""
        rng = np.random.default_rng(9)
        root = rng.standard_normal((9, 9))
        sysn = dynamics.OscillatorSystem(
            n=9, m=np.eye(9), k=root @ root.T / 9 + np.eye(9), b=rng.standard_normal(9)
        )
        ic = fixtures.twin_triangles()
        d, r = structural.construct_synchronizing_weights(ic)
        init = random_state(ic.q, 9, seed=2)
        got = simulate(sysn, ic, d, r, initial=init, horizon=2.0, step=1e-3, keep_states=True)
        want = reference_simulate(sysn, ic, d, r, initial=init, horizon=2.0, step=1e-3,
                                  keep_states=True)
        assert_traces_equal(got, want, True)


class TestStridedStepping:
    def test_matches_plain_stepping_to_rounding(self):
        """The stride map is a matrix power of the one-step map, which
        reorders the floating-point work: samples agree with step-by-step
        application to 1e-12 of the largest state entry, not bit for bit."""
        ic = fixtures.braced_chain()
        d, r = structural.construct_synchronizing_weights(ic)
        sysn = harmonic()
        init = random_state(ic.q, 1, seed=3)
        horizon, step = 25.0017, 1e-3
        trace = simulate(sysn, ic, d, r, initial=init, horizon=horizon, step=step, keep_states=True)

        a = dynamics.closed_loop_matrix(sysn, d.matrix, r.matrix)
        ha = step * a
        p2 = ha @ ha
        p3 = p2 @ ha
        phi = np.eye(a.shape[0]) + ha + p2 / 2 + p3 / 6 + (p3 @ ha) / 24
        steps = int(round(horizon / step))
        plain = np.empty((steps + 1, a.shape[0]))
        plain[0] = np.concatenate([init.positions.reshape(-1), init.velocities.reshape(-1)])
        for k in range(steps):
            plain[k + 1] = phi @ plain[k]

        idx = np.round(trace.times / step).astype(int)
        assert idx[-1] == steps and steps % (idx[1] - idx[0])
        got = np.concatenate(
            [trace.positions.reshape(len(idx), -1), trace.velocities.reshape(len(idx), -1)], axis=1
        )
        assert np.abs(got - plain[idx]).max() <= 1e-12 * np.abs(plain).max()


class TestInstability:
    def test_overflow_raises_with_first_bad_time(self):
        ic = fixtures.by_name("two-node").ic
        init = dynamics.ArrayState(
            positions=np.full((2, 1), 1.7e308), velocities=np.full((2, 1), -1.7e308)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with pytest.raises(InstabilityError) as err:
                simulate(harmonic(), ic, [1.0], [], initial=init)
        assert "overflow encountered in matmul" in {str(w.message) for w in caught}
        assert str(err.value) == (
            "state left the representable range at t=0.2; "
            "reduce the step size or the coupling norms"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InstabilityError) as want:
                reference_simulate(harmonic(), ic, [1.0], [], initial=init)
        assert str(want.value) == str(err.value)
