"""Weighted graph laplacians: construction, validation, sampling, and a
deterministic "generic" construction whose eigenvectors have no zero entries.

A laplacian here is L = G diag(w) G^T for an incidence matrix G and strictly
positive weights w.  Rational weights are kept exactly so structural
identities can be checked in exact arithmetic; all spectral work uses the
float mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Edge, components, incidence, normalize_edges

# Absolute tolerance for structural identities (symmetry, row sums, pattern).
TAU_LAP = 1e-9


def tau_eig(scale: float) -> float:
    """Relative spectral tolerance: 1e-9 times the matrix scale (elementwise
    on an array of scales)."""
    return 1e-9 * scale


def _is_exact(w) -> bool:
    return isinstance(w, (Fraction, int, np.integer))


@dataclass(frozen=True, eq=False)
class WeightedLaplacian:
    """An edge list, its positive weights, and the assembled matrix.

    ``weights`` entries are Fractions (exact) or floats; ``matrix`` is the
    float64 mirror.  ``exact_matrix`` is available when every weight is
    exact.
    """

    q: int
    edges: tuple[Edge, ...]
    weights: tuple

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.q, self.q))
        for (k, l), w in zip(self.edges, self.weights):
            wf = float(w)
            a, b = k - 1, l - 1
            m[a, a] += wf
            m[b, b] += wf
            m[a, b] -= wf
            m[b, a] -= wf
        return m

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(w) for w in self.weights)

    def exact_matrix(self) -> list[list[Fraction]]:
        """Assemble G diag(w) G^T in rational arithmetic."""
        if not self.is_exact:
            raise ValueError("laplacian has non-rational weights")
        m = [[Fraction(0)] * self.q for _ in range(self.q)]
        for (k, l), w in zip(self.edges, self.weights):
            wf = Fraction(w)
            a, b = k - 1, l - 1
            m[a][a] += wf
            m[b][b] += wf
            m[a][b] -= wf
            m[b][a] -= wf
        return m

    def norm(self) -> float:
        if self.q == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix, 2))


def laplacian(q: int, edges: Sequence[Sequence[int]], weights: Sequence) -> WeightedLaplacian:
    """Build a WeightedLaplacian, validating weight count and positivity."""
    norm_edges = normalize_edges(q, edges)
    ws = tuple(Fraction(w) if _is_exact(w) else float(w) for w in weights)
    if len(ws) != len(norm_edges):
        raise ValueError(f"{len(norm_edges)} edges but {len(ws)} weights")
    for e, w in zip(norm_edges, ws):
        if not (w > 0):
            raise ValueError(f"weight for edge {{{e[0]},{e[1]}}} must be positive, got {w}")
    return WeightedLaplacian(q=q, edges=norm_edges, weights=ws)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_laplacian(
    matrix, edges: Sequence[Sequence[int]] | None = None, tau: float = TAU_LAP
) -> ValidationResult:
    """Check laplacian structure: symmetry, zero row sums, nonpositive
    off-diagonal, positive semidefiniteness, and (optionally) that the
    sparsity pattern matches an edge list.

    Returns ok plus the names of violated invariants
    ("symmetry", "row sum", "off-diagonal sign", "psd", "pattern").
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=float)
    failures: list[str] = []
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    q = m.shape[0]
    if np.abs(m - m.T).max(initial=0.0) > tau:
        failures.append("symmetry")
    if np.abs(m.sum(axis=1)).max(initial=0.0) > tau:
        failures.append("row sum")
    off = m - np.diag(np.diag(m))
    if off.max(initial=0.0) > tau:
        failures.append("off-diagonal sign")
    sym = (m + m.T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    scale = float(np.abs(eigs).max(initial=0.0))
    if eigs.min(initial=0.0) < -tau_eig(scale):
        failures.append("psd")
    if edges is not None:
        norm_edges = set(normalize_edges(q, edges))
        ok_pattern = True
        for i in range(q):
            for j in range(i + 1, q):
                if (i + 1, j + 1) in norm_edges:
                    if not (m[i, j] < 0):
                        ok_pattern = False
                elif abs(m[i, j]) > tau:
                    ok_pattern = False
        if not ok_pattern:
            failures.append("pattern")
    return ValidationResult(ok=not failures, failures=tuple(failures))


def _log_range(weight_range: tuple[float, float]) -> tuple[float, float]:
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise ValueError(f"weight range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    return math.log(lo), math.log(hi)


def _log_uniform(seed: int, count: int, log_range: tuple[float, float]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(*log_range, size=count))


def sample_laplacian(
    q: int,
    edges: Sequence[Sequence[int]],
    seed: int,
    weight_range: tuple[float, float] = (0.1, 10.0),
) -> WeightedLaplacian:
    """Laplacian with log-uniform weights; deterministic for a fixed seed."""
    log_range = _log_range(weight_range)
    norm_edges = normalize_edges(q, edges)
    ws = _log_uniform(seed, len(norm_edges), log_range)
    return laplacian(q, norm_edges, [float(w) for w in ws])


def sample_matrices(
    q: int,
    edges: Sequence[Edge],
    seeds: Sequence[int],
    weight_range: tuple[float, float] = (0.1, 10.0),
) -> np.ndarray:
    """``sample_laplacian(q, edges, s, weight_range).matrix`` for each seed
    s, stacked (seeds x q x q), without building the laplacians.

    ``edges`` must be normalized.  Entries accumulate in the per-edge order
    of ``WeightedLaplacian.matrix``, vectorized across the seeds, so each
    slice equals that matrix bit for bit.
    """
    log_range = _log_range(weight_range)
    weights = np.array([_log_uniform(s, len(edges), log_range) for s in seeds])
    m = np.zeros((len(seeds), q, q))
    for (k, l), w in zip(edges, weights.T):
        a, b = k - 1, l - 1
        m[:, a, a] += w
        m[:, b, b] += w
        m[:, a, b] -= w
        m[:, b, a] -= w
    return m


def rescale(lap: WeightedLaplacian, alpha: float | Fraction) -> WeightedLaplacian:
    """Scale every weight by alpha > 0 (spectrum scales, eigenvectors don't)."""
    if not (alpha > 0):
        raise ValueError(f"scale factor must be positive, got {alpha}")
    exact = _is_exact(alpha)
    ws = tuple(
        (Fraction(w) * Fraction(alpha)) if exact and _is_exact(w) else float(w) * float(alpha)
        for w in lap.weights
    )
    return WeightedLaplacian(q=lap.q, edges=lap.edges, weights=ws)


@dataclass(frozen=True)
class GenericStep:
    """One growth step: the edge added, the weight used, the per-step
    closed-form bound, and whether the weight honored it."""

    edge: Edge
    weight: float
    bound: float
    bounded: bool
    case: str  # "seed" | "new-vertex" | "existing"


@dataclass(frozen=True)
class GenericLaplacianTrace:
    steps: tuple[GenericStep, ...]
    min_eigenvector_entry: float
    min_eigenvalue_gap: float


class ConstructionError(RuntimeError):
    """A deterministic construction failed its numeric postcondition."""


# Acceptance thresholds for the per-step postcondition check, relative to the
# current spectral radius where that makes sense.
_GAP_TOL = 1e-7
_ENTRY_TOL = 1e-7
# Golden-ratio ladder: irrational multipliers avoid symmetric weight
# patterns, which are exactly the ones that create zero eigenvector entries.
_PHI = (1 + math.sqrt(5)) / 2
_LADDER = (1.0, _PHI, 1 / _PHI, _PHI**2, _PHI**-2, _PHI**3, _PHI**-3, _PHI**4, _PHI**-4)


def _bound_existing(c1: float, c2: float) -> float:
    return c1 * c2 / (8.0 * math.sqrt(1.0 + c2 * c2))


def _bound_new_vertex(c1: float, c2: float, m: int) -> float:
    return c1 * c2 / (8.0 * math.sqrt(1.0 + m + c2 * c2))


def _step_ok(matrix: np.ndarray) -> bool:
    sig, vecs = np.linalg.eigh(matrix)
    radius = float(np.abs(sig).max())
    if radius == 0.0:
        return False
    gaps = np.diff(np.sort(sig))
    return bool(gaps.min() > _GAP_TOL * radius and np.abs(vecs).min() > _ENTRY_TOL)


def generic_laplacian(
    q: int,
    edges: Sequence[Sequence[int]],
    root: int = 1,
    taper: float = 1.0,
) -> tuple[WeightedLaplacian, GenericLaplacianTrace]:
    """Laplacian on a connected graph whose eigenvalues are simple and whose
    eigenvectors have no zero entries.

    The graph is grown one edge at a time (breadth-first spanning order from
    ``root``, then the remaining edges in input order).  Step ``s`` anchors
    its candidate weights at ``taper**s``, so ``taper < 1`` grades the
    weights downward away from the root and ``taper > 1`` upward; a
    golden-ratio ladder around the anchor supplies asymmetry whenever the
    plain anchor would create a symmetric pattern (symmetric patterns are
    exactly the ones with zero eigenvector entries), and every step
    verifies the property explicitly.
    Each step also computes the closed-form perturbation bound that provably
    preserves the property; the bound shrinks double exponentially along the
    walk — literal bound-sized weights drive eigenvector entries below
    floating-point resolution within a handful of edges — so half the bound
    is kept only as the final fallback candidate.  The trace records, per
    step, the bound and whether the accepted weight honored it.

    Raises ConstructionError if no candidate weight passes the check and
    ValueError if the graph is disconnected, the root is out of range, or
    the taper is not a positive finite number.
    """
    norm_edges = normalize_edges(q, edges)
    if not 1 <= root <= q:
        raise ValueError(f"root {root} out of range 1..{q}")
    if not (0.0 < taper < math.inf):
        raise ValueError(f"taper must be positive and finite, got {taper!r}")
    if q == 1:
        wl = WeightedLaplacian(q=1, edges=(), weights=())
        return wl, GenericLaplacianTrace(steps=(), min_eigenvector_entry=1.0, min_eigenvalue_gap=math.inf)
    if not components(q, norm_edges).count == 1:
        raise ValueError("generic laplacian needs a connected graph")

    # BFS spanning order from the root; neighbors in ascending order so the
    # construction is deterministic.
    adj: dict[int, list[int]] = {v: [] for v in range(1, q + 1)}
    for k, l in norm_edges:
        adj[k].append(l)
        adj[l].append(k)
    for v in adj:
        adj[v].sort()
    tree: list[Edge] = []
    visited = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for u in adj[v]:
            if u not in visited:
                visited.add(u)
                tree.append((min(v, u), max(v, u)))
                queue.append(u)
    tree_set = set(tree)
    chords = [e for e in norm_edges if e not in tree_set]

    # Local ordering: vertices in the order the spanning walk introduces them.
    order: list[int] = []
    for k, l in tree:
        for v in (k, l):
            if v not in order:
                order.append(v)
    pos = {v: i for i, v in enumerate(order)}

    weight_by_edge: dict[Edge, float] = {}
    steps: list[GenericStep] = []
    first = tree[0]
    mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    weight_by_edge[first] = 1.0
    steps.append(GenericStep(edge=first, weight=1.0, bound=math.inf, bounded=True, case="seed"))
    size = 2

    anchor = 1.0
    for edge in tree[1:] + chords:
        k, l = edge
        new_vertex = pos[k] >= size or pos[l] >= size
        sig, vecs = np.linalg.eigh(mat)
        c1 = float(np.diff(np.sort(sig)).min())
        c2 = float(np.abs(vecs).min())
        if new_vertex:
            bound = _bound_new_vertex(c1, c2, size)
        else:
            bound = _bound_existing(c1, c2)
        half = 0.5 * bound
        anchor *= taper
        candidates = [anchor * g for g in _LADDER]
        if taper != 1.0:
            # Deep tapers can push the whole ladder below (or above) the
            # scale the genericity check can resolve; the unit-anchored
            # ladder rescues those steps.
            candidates += list(_LADDER)
        candidates.append(half)

        grown = size + 1 if new_vertex else size
        a, b = pos[k], pos[l]
        chosen = None
        for w in candidates:
            trial = np.zeros((grown, grown))
            trial[:size, :size] = mat
            trial[a, a] += w
            trial[b, b] += w
            trial[a, b] -= w
            trial[b, a] -= w
            if _step_ok(trial):
                chosen = w
                mat = trial
                break
        if chosen is None:
            raise ConstructionError(
                f"no admissible weight found while adding edge {{{k},{l}}}"
            )
        size = grown
        weight_by_edge[edge] = chosen
        steps.append(
            GenericStep(
                edge=edge,
                weight=chosen,
                bound=bound,
                bounded=chosen < bound,
                case="new-vertex" if new_vertex else "existing",
            )
        )

    # Permute back to the natural vertex order via the edge/weight list.
    wl = laplacian(q, norm_edges, [weight_by_edge[e] for e in norm_edges])
    sig, vecs = np.linalg.eigh(wl.matrix)
    trace = GenericLaplacianTrace(
        steps=tuple(steps),
        min_eigenvector_entry=float(np.abs(vecs).min()),
        min_eigenvalue_gap=float(np.diff(np.sort(sig)).min()),
    )
    return wl, trace
