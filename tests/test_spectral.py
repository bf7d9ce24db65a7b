"""Complex spectra of D + jR and the synchronization margin.

Anchors: a pure-spring pair has margin exactly zero with an all-imaginary
spectrum; the witness-derived pair of the braced chain pins the margin at
zero; the zero-margin obstruction eigenvector is the normalized witness
potential vector.
"""

import numpy as np
import pytest

from oscsync import fixtures, structural
from oscsync.laplacians import laplacian, sample_laplacian, tau_eig
from oscsync.spectral import eigenvector_obstruction, lhp_free, spectrum


def _witness_pair():
    ic = fixtures.braced_chain()
    return structural.witness_to_laplacians(ic, (2, -1, 1))


def _random_pair(rng, q):
    def edges():
        pairs = {
            tuple(sorted(rng.choice(q, size=2, replace=False) + 1))
            for _ in range(rng.integers(1, q + 3))
        }
        return sorted(pairs)

    d = sample_laplacian(q, edges(), int(rng.integers(0, 2**62)))
    r = sample_laplacian(q, edges(), int(rng.integers(0, 2**62)))
    return d, r


class TestSpectrum:
    def test_pure_spring_margin_zero(self):
        r = laplacian(4, [(1, 2), (2, 3), (3, 4)], [1.0, 2.0, 0.5])
        report = spectrum(np.zeros((4, 4)), r)
        assert np.allclose(report.eigenvalues.real, 0.0, atol=tau_eig(report.scale))
        assert abs(report.margin) <= tau_eig(report.scale)
        assert report.classification() == "borderline"

    def test_witness_pair_margin_pinned(self):
        d, r = _witness_pair()
        report = spectrum(d, r)
        assert abs(report.margin) <= tau_eig(report.scale)
        assert report.classification() == "borderline"

    def test_synthesized_pair_positive(self):
        d, r = structural.construct_synchronizing_weights(fixtures.braced_chain())
        report = spectrum(d, r)
        assert report.margin > 10 * tau_eig(report.scale)
        assert report.classification() == "positive"

    def test_ordering_and_shapes(self):
        d, r = _random_pair(np.random.default_rng(2), 5)
        report = spectrum(d, r)
        assert report.eigenvalues.shape == (5,)
        assert report.eigenvectors.shape == (5, 5)
        keys = [(lam.real, lam.imag) for lam in report.eigenvalues]
        assert keys == sorted(keys)
        assert np.allclose(np.linalg.norm(report.eigenvectors, axis=0), 1.0)

    def test_eigenpairs_satisfy_equation(self):
        d, r = _random_pair(np.random.default_rng(8), 6)
        report = spectrum(d, r)
        m = d.matrix + 1j * r.matrix
        for i in range(6):
            resid = m @ report.eigenvectors[:, i] - report.eigenvalues[i] * report.eigenvectors[:, i]
            assert np.linalg.norm(resid) <= 100 * tau_eig(report.scale)

    def test_ones_always_eigenvector(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = int(rng.integers(2, 9))
            d, r = _random_pair(rng, q)
            m = d.matrix + 1j * r.matrix
            scale = float(np.linalg.norm(m, 2))
            assert np.linalg.norm(m @ np.ones(q)) <= tau_eig(scale) * np.sqrt(q)

    def test_conjugate_symmetry(self):
        d, r = _random_pair(np.random.default_rng(21), 5)
        plus = spectrum(d.matrix, r.matrix)
        minus = spectrum(d.matrix, -r.matrix)
        assert np.allclose(
            np.sort_complex(minus.eigenvalues),
            np.sort_complex(np.conj(plus.eigenvalues)),
            atol=100 * tau_eig(plus.scale),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spectrum(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="two vertices"):
            spectrum(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_csv_roundtrip(self):
        d, r = _witness_pair()
        report = spectrum(d, r)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 2 + len(report.eigenvalues)
        assert lines[-1] == f"margin,{report.margin!r}"
        parsed = [tuple(map(float, ln.split(","))) for ln in lines[1:-1]]
        for (re, im), lam in zip(parsed, report.eigenvalues):
            assert re == lam.real and im == lam.imag


class TestLhpFree:
    def test_sampled_pairs_clear_left_half_plane(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = int(rng.integers(2, 9))
            d, r = _random_pair(rng, q)
            assert lhp_free(d, r)

    def test_rejects_non_psd(self):
        bad = np.array([[1.0, -2.0], [-2.0, 1.0]])
        good = laplacian(2, [(1, 2)], [1.0])
        with pytest.raises(ValueError, match="positive semidefinite"):
            lhp_free(bad, good)

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, -1.0], [0.0, 1.0]])
        good = laplacian(2, [(1, 2)], [1.0])
        with pytest.raises(ValueError, match="not symmetric"):
            lhp_free(good, bad)


class TestEigenvectorObstruction:
    def test_witness_pair_obstruction_is_potential_direction(self):
        d, r = _witness_pair()
        z = eigenvector_obstruction(d, r)
        assert z is not None
        v = np.array([2.0, -3.0, 2.0, -1.0])
        v = v / np.linalg.norm(v)
        assert abs(abs(z @ v) - 1.0) <= 1e-8
        # z is a unit eigenvector of R with eigenvalue 1, killed by D.
        assert np.linalg.norm(r.matrix @ z - z) <= 1e-8
        assert np.linalg.norm(d.matrix @ z) <= 1e-8
        assert abs(z.sum()) <= 1e-8

    def test_two_node_damped_pair_has_none(self):
        d = laplacian(2, [(1, 2)], [0.7])
        r = laplacian(2, [(1, 2)], [1.3])
        assert eigenvector_obstruction(d, r) is None

    def test_synthesized_pair_has_none(self):
        d, r = structural.construct_synchronizing_weights(fixtures.twin_triangles())
        assert eigenvector_obstruction(d, r) is None

    def test_margin_equivalence_on_random_pairs(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(500):
            q = int(rng.integers(2, 9))
            d, r = _random_pair(rng, q)
            report = spectrum(d, r)
            band = 10 * tau_eig(report.scale)
            z = eigenvector_obstruction(d, r)
            if report.margin > band:
                assert z is None, f"obstruction despite margin {report.margin}"
                checked += 1
            elif z is not None:
                assert report.margin <= band
                checked += 1
        assert checked > 400
