"""Spectra of complex symmetric coupling matrices D + jR.

D carries damping-type coupling and R spring-type coupling; both are PSD
laplacians of the same vertex set.  The object of interest is the real part
of the second-smallest eigenvalue (sorted by real part): positive means every
nontrivial mode of the coupled array decays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .laplacians import tau_eig


def _as_matrix(mat) -> np.ndarray:
    m = np.asarray(getattr(mat, "matrix", mat), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _pair(d, r) -> tuple[np.ndarray, np.ndarray]:
    dm, rm = _as_matrix(d), _as_matrix(r)
    if dm.shape != rm.shape:
        raise ValueError(f"dimension mismatch: {dm.shape} vs {rm.shape}")
    return dm, rm


def _band(scale):
    return 10.0 * tau_eig(scale)


def is_positive(margin, scale):
    """The margin clears the borderline band 10 * tau_eig(scale).

    The one definition of a 'positive' margin, shared by
    ``SpectralReport.classification`` and ``positive_stack``; elementwise
    on arrays of margins and scales.
    """
    return margin > _band(scale)


def positive_stack(m: np.ndarray) -> np.ndarray:
    """Which matrices D + jR of a stack ``m`` (last two axes) have a
    positive margin, by ``SpectralReport.classification``'s test with one
    stacked ``eigvals`` for the margins and one stacked 2-norm for the
    scales.  Shared by the rescale grid of weight synthesis and by
    falsification.
    """
    margins = np.sort(np.linalg.eigvals(m).real, axis=-1)[..., 1]
    return is_positive(margins, np.linalg.norm(m, 2, axis=(-2, -1)))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Sorted spectrum of D + jR with the synchronization margin.

    eigenvalues are sorted ascending by real part, ties by imaginary part;
    eigenvector columns follow the same order and have unit norm.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    margin: float
    scale: float

    def classification(self) -> str:
        """'positive', 'borderline', or 'negative' (solver-failure signal)."""
        if is_positive(self.margin, self.scale):
            return "positive"
        if self.margin < -_band(self.scale):
            return "negative"
        return "borderline"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("re,im\n")
        for lam in self.eigenvalues:
            out.write(f"{float(lam.real)!r},{float(lam.imag)!r}\n")
        out.write(f"margin,{self.margin!r}\n")
        return out.getvalue()


def spectrum(d, r) -> SpectralReport:
    """Eigen-decompose D + jR and report the margin Re(lambda_2)."""
    dm, rm = _pair(d, r)
    q = dm.shape[0]
    if q < 2:
        raise ValueError("spectrum needs at least two vertices")
    m = dm + 1j * rm
    lams, vecs = np.linalg.eig(m)
    order = np.lexsort((lams.imag, lams.real))
    lams = lams[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    scale = float(np.linalg.norm(m, 2))
    return SpectralReport(
        eigenvalues=lams,
        eigenvectors=vecs,
        margin=float(lams[1].real),
        scale=scale,
    )


def _check_psd(m: np.ndarray, name: str) -> None:
    scale = float(np.abs(m).max(initial=0.0))
    if np.abs(m - m.T).max(initial=0.0) > 1e-9 * max(scale, 1.0):
        raise ValueError(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
    if eigs.min(initial=0.0) < -tau_eig(float(np.abs(eigs).max(initial=0.0))):
        raise ValueError(f"{name} is not positive semidefinite")


def lhp_free(d, r) -> bool:
    """No eigenvalue of D + jR lies in the open left half plane.

    Both inputs must be symmetric PSD (validated; invalid input raises).
    True for every valid pair, up to the spectral tolerance.
    """
    dm, rm = _pair(d, r)
    _check_psd(dm, "D")
    _check_psd(rm, "R")
    m = dm + 1j * rm
    lams = np.linalg.eigvals(m)
    scale = float(np.linalg.norm(m, 2))
    return bool(lams.real.min() >= -tau_eig(scale))


def eigenvector_obstruction(d, r, tol_scale: float = 1.0) -> np.ndarray | None:
    """Search for a unit eigenvector z of R with D z = 0 and z not parallel
    to the all-ones vector.

    Such a z is exactly the obstruction that pins the margin at zero for the
    pair; its absence is equivalent (up to tolerance) to a positive margin.
    Degenerate eigenvalues of R are handled by clustering and minimizing the
    combined residual over the cluster subspace.

    Returns the vector (float64, unit norm) or None.
    """
    dm, rm = _pair(d, r)
    q = dm.shape[0]
    sig, vecs = np.linalg.eigh(rm)
    scale = float(np.linalg.norm(dm, 2) + np.linalg.norm(rm, 2))
    tol = tau_eig(max(scale, 1.0)) * tol_scale
    cluster_tol = max(1e-12 * max(abs(float(sig[0])), abs(float(sig[-1])), 1.0), 1e-300)

    ones = np.ones(q) / np.sqrt(q)
    i = 0
    while i < q:
        j = i + 1
        while j < q and sig[j] - sig[j - 1] <= cluster_tol:
            j += 1
        basis = vecs[:, i:j]
        stacked = np.vstack([dm @ basis, ones @ basis])
        if stacked.shape[1] == 1:
            z = basis[:, 0]
        else:
            _, _, vt = np.linalg.svd(stacked)
            z = basis @ vt[-1]
            z = z / np.linalg.norm(z)
        d_resid = float(np.linalg.norm(dm @ z))
        ones_resid = abs(float(np.ones(q) @ z))
        lam = float(z @ rm @ z)
        eig_resid = float(np.linalg.norm(rm @ z - lam * z))
        if (
            d_resid <= tol
            and ones_resid <= tol * np.sqrt(q)
            and eig_resid <= 10.0 * max(tol, cluster_tol)
        ):
            return z
        i = j
    return None
