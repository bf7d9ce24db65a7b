"""Existence and universality of synchronizing coupling weights.

Two questions about an interconnection:

* does SOME positive weight assignment give a positive margin (``is_ss``,
  with ``construct_synchronizing_weights`` producing an explicit pair), and
* does EVERY positive weight assignment do so (``is_sss``)?

The second is decided exactly: a non-universal interconnection is certified
by a rational sign witness x with sign(G_r^T G_r x) = sign(x) entrywise and
G_d^T G_r x = 0.  With v = G_r x the second condition makes v constant on
each damper class, so sign(x) = sign(G_r^T v) is a covector of the spring
graph with the damper classes contracted.  ``is_sss`` takes supports first,
then signs: it enumerates the covectors' supports (the complements of the
graph's flats), settles each support once, by the forced-zero rule and
otherwise by exact elimination, and walks sign vectors only inside the live
ones, merged into lexicographic order.  ``witness_to_laplacians`` turns the
certificate into a concrete weight pair whose margin is pinned at zero no
matter which dissipative weights are chosen.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import exactlin, graphs
from .graphs import Edge, Interconnection, components, incidence, is_connected
from .laplacians import (
    ConstructionError,
    WeightedLaplacian,
    generic_laplacian,
    laplacian,
    rescale,
    sample_laplacian,
    sample_matrices,
)
from .spectral import positive_stack, spectrum

_PHI = (1 + math.sqrt(5)) / 2


class BudgetExceededError(RuntimeError):
    """Sign-pattern enumeration would exceed the configured budget; the
    verdict is undecided rather than guessed."""

    def __init__(self, p_r: int, budget: int):
        super().__init__(
            f"undecided-budget: {p_r} restorative edges exceed the enumeration "
            f"budget of {budget} (3**{p_r} sign patterns)"
        )
        self.p_r = p_r
        self.budget = budget


@dataclass(frozen=True)
class SSVerdict:
    """Can some positive weights synchronize the array?"""

    is_ss: bool
    reason: str  # "ok" | "disconnected-union" | "empty-dissipative"
    witness_weights: tuple[WeightedLaplacian, WeightedLaplacian] | None = None


@dataclass(frozen=True)
class SignWitness:
    """Integer certificate vector over the restorative edges of the reduced
    interconnection: gcd 1, first nonzero entry positive."""

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.x or all(v == 0 for v in self.x):
            raise ValueError("witness must have a nonzero entry")
        if any(not isinstance(v, int) for v in self.x):
            raise TypeError("witness entries must be integers; use from_rationals")
        g = math.gcd(*[abs(v) for v in self.x])
        if g != 1:
            raise ValueError(f"witness entries must have gcd 1, got gcd {g}")
        if next(v for v in self.x if v != 0) < 0:
            raise ValueError("first nonzero witness entry must be positive")

    @property
    def sign_pattern(self) -> tuple[int, ...]:
        return tuple(0 if v == 0 else (1 if v > 0 else -1) for v in self.x)

    @classmethod
    def from_rationals(cls, xs: Sequence) -> "SignWitness":
        fr = [Fraction(v) for v in xs]
        if not fr or all(v == 0 for v in fr):
            raise ValueError("witness must have a nonzero entry")
        denom = math.lcm(*[v.denominator for v in fr])
        ints = [int(v * denom) for v in fr]
        g = math.gcd(*[abs(v) for v in ints])
        ints = [v // g for v in ints]
        if next(v for v in ints if v != 0) < 0:
            ints = [-v for v in ints]
        return cls(x=tuple(ints))


@dataclass(frozen=True)
class SSSVerdict:
    """Do ALL positive weights synchronize the array?

    For inputs that pass ``is_ss``, ``is_sss`` is false exactly when
    ``witness`` is present.  Non-SS inputs get is_sss False with reason
    "not-ss" and no witness.

    ``refuted_patterns`` is the lexicographic rank of the witness's sign
    pattern among the admissible patterns (first nonzero entry +1) of
    3**p_r, or (3**p_r - 1) // 2, their number, when there is no witness.
    It counts the patterns ruled out, not the simplex calls made.
    """

    is_sss: bool
    witness: SignWitness | None
    refuted_patterns: int
    reason: str


def is_ss(ic: Interconnection) -> SSVerdict:
    """Some positive weights give a positive margin iff the union graph is
    connected and at least one dissipative edge exists."""
    if not is_connected(ic.q, ic.union_edges):
        return SSVerdict(is_ss=False, reason="disconnected-union")
    if ic.p_d == 0:
        return SSVerdict(is_ss=False, reason="empty-dissipative")
    return SSVerdict(is_ss=True, reason="ok")


# ---------------------------------------------------------------------------
# Exact sign-pattern enumeration
# ---------------------------------------------------------------------------


def _sign_matrices(ric: Interconnection) -> tuple[list[list[int]], list[list[int]]]:
    gr = incidence(ric.q, ric.restorative_edges)
    gd = incidence(ric.q, ric.dissipative_edges)
    a = (gr.T @ gr).tolist()
    c = (gd.T @ gr).tolist()
    return a, c


def _relate(
    group: tuple[int, ...], above: tuple[int, ...], a: int, b: int, s: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Add sign(v_a - v_b) = s to a consistent order on damper classes.

    ``group[i]`` is the bitmask of classes merged with class i by 0-edges,
    ``above[i]`` the bitmask of classes strictly above i: the strict arcs
    closed under transitivity and merging.  Returns the new pair, or None
    when the sign would put a strict arc inside one class or close a
    directed cycle.
    """
    if s == 0:
        if above[a] >> b & 1 or above[b] >> a & 1:
            return None
        merged = group[a] | group[b]
        top = above[a] | above[b]
        return (
            tuple(merged if merged >> i & 1 else g for i, g in enumerate(group)),
            tuple(
                top if merged >> i & 1 else (u | merged | top if u & merged else u)
                for i, u in enumerate(above)
            ),
        )
    hi, lo = (a, b) if s > 0 else (b, a)
    if group[lo] >> hi & 1 or above[hi] >> lo & 1:
        return None
    lift = group[hi] | above[hi]
    return group, tuple(
        u | lift if group[lo] >> i & 1 or u >> lo & 1 else u for i, u in enumerate(above)
    )


def _contract(ric: Interconnection) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Number of damper classes, the class of each vertex, and the two end
    classes of each spring (classes numbered from 0)."""
    dc = components(ric.q, ric.dissipative_edges)
    cls = [c - 1 for c in dc.assignment]
    return dc.count, cls, [(cls[k - 1], cls[l - 1]) for k, l in ric.restorative_edges]


def _supports(
    count: int, ends: Sequence[tuple[int, int]]
) -> list[tuple[tuple[bool, ...], tuple[int, ...]]]:
    """Non-empty supports of the admissible covectors, each with the groups
    of its flat.

    The zero set of a covector sign(v_k - v_l) is a flat of the spring
    graph on ``count`` damper classes: its 0-springs merge classes into
    groups of equal value, and each nonzero spring joins two different
    groups.  Depth-first over the springs in stored order, a 0 merges the
    two end groups and a nonzero keeps them apart for good.
    ``group[i]`` is the bitmask of the classes in class i's group and
    ``apart[i]`` that of the classes kept apart from it.  A consistent
    prefix always extends (make every later spring nonzero unless its ends
    are already merged), so no branch is a dead end.
    """
    found: list[tuple[tuple[bool, ...], tuple[int, ...]]] = []
    start = tuple(1 << i for i in range(count))
    _walk_supports(ends, [False] * len(ends), found, 0, start, (0,) * count)
    return found


def _walk_supports(
    ends: Sequence[tuple[int, int]],
    support: list[bool],
    found: list,
    i: int,
    group: tuple[int, ...],
    apart: tuple[int, ...],
) -> None:
    """``_supports``' depth-first step at spring i.  A module-level
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep ``found`` alive until the cyclic collector
    runs."""
    if i == len(ends):
        if any(support):
            found.append((tuple(support), group))
        return
    a, b = ends[i]
    if not apart[a] >> b & 1:
        merged = group[a] | group[b]
        far = apart[a] | apart[b]
        support[i] = False
        _walk_supports(
            ends,
            support,
            found,
            i + 1,
            tuple(merged if merged >> j & 1 else g for j, g in enumerate(group)),
            tuple(
                far if merged >> j & 1 else (u | merged if u & merged else u)
                for j, u in enumerate(apart)
            ),
        )
    if not group[a] >> b & 1:
        ga, gb = group[a], group[b]
        support[i] = True
        _walk_supports(
            ends,
            support,
            found,
            i + 1,
            group,
            tuple(
                u | gb if ga >> j & 1 else (u | ga if gb >> j & 1 else u)
                for j, u in enumerate(apart)
            ),
        )


def _forced_zero(
    ric: Interconnection, cls: Sequence[int], support: Sequence[bool], group: Sequence[int]
) -> bool:
    """True when the support is dead by the forced-zero rule.

    With v = G_r x, v_u is the signed sum of x over the springs at u, so a
    vertex with no spring in the support has v_u = 0, and so has every
    class in its group.  A support spring between two such groups would
    have (G_r^T G_r x)_e = v_k - v_l = 0 against x_e != 0.  That spring's
    image row vanishes on the support's null space, so the rule only ever
    rejects supports that ``_PatternScanner._support_data`` rejects too.
    """
    touched = {v for e, on in zip(ric.restorative_edges, support) if on for v in e}
    zero = 0
    for u in range(1, ric.q + 1):
        if u not in touched:
            zero |= group[cls[u - 1]]
    return any(
        on and zero >> cls[k - 1] & 1 and zero >> cls[l - 1] & 1
        for (k, l), on in zip(ric.restorative_edges, support)
    )


def _lower_bound(support: Sequence[bool]) -> tuple[int, ...]:
    """Lexicographically smallest admissible pattern on ``support``: +1 on
    its first spring, -1 on the others."""
    first = support.index(True)
    return tuple(0 if not on else (1 if i == first else -1) for i, on in enumerate(support))


def _sign_walk(
    ends: Sequence[tuple[int, int]], support: Sequence[bool], group: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Admissible covectors on exactly ``support``, in lexicographic order.

    Starts from the flat's groups with no order and walks -1 before +1
    over the support springs in stored order, the first one +1 only.  A
    prefix that is consistent always extends to a covector (take any v
    realizing it), so no branch is a dead end.
    """
    on = [i for i, s in enumerate(support) if s]
    return _walk_signs(ends, on, [0] * len(support), 0, group, (0,) * len(group))


def _walk_signs(
    ends: Sequence[tuple[int, int]],
    on: list[int],
    sig: list[int],
    j: int,
    group: tuple[int, ...],
    above: tuple[int, ...],
) -> Iterator[tuple[int, ...]]:
    """``_sign_walk``'s step at its j-th support spring; module-level for
    the reason given at ``_walk_supports``."""
    if j == len(on):
        yield tuple(sig)
        return
    i = on[j]
    a, b = ends[i]
    for s in (-1, 1) if j else (1,):
        order = _relate(group, above, a, b, s)
        if order is not None:
            sig[i] = s
            yield from _walk_signs(ends, on, sig, j + 1, *order)


def _admissible_rank(sig: Sequence[int]) -> int:
    """Number of admissible patterns lexicographically before ``sig``."""
    p = len(sig)
    z = next(i for i, s in enumerate(sig) if s)
    return (3 ** (p - z - 1) - 1) // 2 + sum(
        (sig[i] + 1) * 3 ** (p - 1 - i) for i in range(z + 1, p)
    )


class _PatternScanner:
    """Feasibility tester with a per-support cache.

    The equality part of a pattern's system (zero entries, their zero image
    entries, and the dissipative orthogonality rows) depends only on the
    support, so its null-space parameterization is shared by all sign
    choices over that support.
    """

    def __init__(self, a: list[list[int]], c: list[list[int]], p: int):
        self.a = a
        self.c = c
        self.p = p
        self.cache: dict[tuple[bool, ...], tuple | None] = {}

    def _support_data(self, support: tuple[bool, ...]):
        """(basis, xrows, arows) for the support, or None when it is dead.

        ``basis`` spans the x with the support's equality system, and
        ``xrows[i]``, ``arows[i]`` give x_i and (G_r^T G_r x)_i in it for
        each support spring i.  Dead: no basis, or some support spring
        whose x_i or image entry vanishes on all of it.

        x is zero off the support, so the system is solved over the
        support's columns: the dissipative rows and the zero springs' image
        rows.  Dropping the x_i = 0 rows with their columns moves no other
        pivot, so the basis, padded back with zeros, is the one the full
        system gives.
        """
        if support in self.cache:
            return self.cache[support]
        on = [i for i, s in enumerate(support) if s]
        rows = [[r[j] for j in on] for r in self.c]
        rows += [[self.a[i][j] for j in on] for i, s in enumerate(support) if not s]
        basis = exactlin.null_space(rows, len(on))
        data = None
        if basis:
            xrows: dict[int, list[Fraction]] = {}
            arows: dict[int, list[Fraction]] = {}
            for t, i in enumerate(on):
                terms = [(u, self.a[i][j]) for u, j in enumerate(on) if self.a[i][j]]
                xr = [b[t] for b in basis]
                ar = [sum(a_ij * b[u] for u, a_ij in terms) for b in basis]
                if not any(xr) or not any(ar):
                    break
                xrows[i] = xr
                arows[i] = ar
            else:
                padded = []
                for b in basis:
                    x = [Fraction(0)] * self.p
                    for j, v in zip(on, b):
                        x[j] = v
                    padded.append(x)
                data = (padded, xrows, arows)
        self.cache[support] = data
        return data

    def witness_for(self, sig: tuple[int, ...]) -> list[Fraction] | None:
        support = tuple(v != 0 for v in sig)
        data = self._support_data(support)
        if data is None:
            return None
        basis, xrows, arows = data
        rows: list[list[Fraction]] = []
        for i, s in enumerate(sig):
            if s == 0:
                continue
            rows.append([s * v for v in xrows[i]])
            rows.append([s * v for v in arows[i]])
        if len(basis) == 1:
            # One direction: M y >= 1 holds for some y iff M has one strict sign.
            y = next(([d] for d in (1, -1) if all(d * r[0] > 0 for r in rows)), None)
        else:
            y = exactlin.strictly_feasible(rows)
        if y is None:
            return None
        x = [Fraction(0)] * self.p
        for b, yb in enumerate(y):
            if yb != 0:
                for j in range(self.p):
                    x[j] += yb * basis[b][j]
        return x


def is_sss(ic: Interconnection, budget: int = 14, jobs: int = 1) -> SSSVerdict:
    """Decide whether every positive weight assignment synchronizes.

    Reduces the interconnection and looks for the lexicographically first
    feasible sign pattern (-1 < 0 < +1, first nonzero positive).  Every
    feasible pattern is a covector of the spring graph with damper classes
    contracted, since v = G_r x is constant on damper classes and
    sign(x) = sign(G_r^T v).  So the supports of the covectors are
    enumerated first, and each is settled once: dead by the forced-zero
    rule (``_forced_zero``), else by exact elimination of its equality
    system.  The sign walks of the live supports are merged into
    lexicographic order, a support entering at its smallest admissible
    pattern, and each covector is decided exactly over the rationals.  A
    support with a one-dimensional system has one candidate, the sign of
    its basis vector.  The first feasible covector is the answer, and
    supports whose smallest pattern lies above it are never settled.
    Returns its witness, or is_sss=True once the live supports run out.

    Raises BudgetExceededError when the reduced restorative edge count
    exceeds ``budget``.  ``jobs`` is accepted for compatibility and has no
    effect.
    """
    ric = graphs.reduce(ic)
    ssv = is_ss(ric)
    if not ssv.is_ss:
        return SSSVerdict(is_sss=False, witness=None, refuted_patterns=0, reason="not-ss")
    p = ric.p_r
    if p == 0:
        return SSSVerdict(
            is_sss=True, witness=None, refuted_patterns=0, reason="no-restorative-edges"
        )
    if p > budget:
        raise BudgetExceededError(p, budget)

    a, c = _sign_matrices(ric)
    scanner = _PatternScanner(a, c, p)
    count, cls, ends = _contract(ric)
    supports = _supports(count, ends)
    # One heap merges the supports' sign walks into lexicographic order.  A
    # support enters under its lower bound and is settled when that is
    # popped, before it has a walk; so supports above the first witness
    # are never settled.
    heap = [(_lower_bound(support), i) for i, (support, _) in enumerate(supports)]
    heapq.heapify(heap)
    walks: dict[int, Iterator[tuple[int, ...]]] = {}
    while heap:
        sig, i = heapq.heappop(heap)
        if i not in walks:
            support, group = supports[i]
            if _forced_zero(ric, cls, support, group):
                continue
            data = scanner._support_data(support)
            if data is None:
                continue
            basis = data[0]
            # With one direction, x is a multiple of the basis vector, so
            # its sign pattern is the one candidate on this support.
            walks[i] = (
                iter([SignWitness.from_rationals(basis[0]).sign_pattern])
                if len(basis) == 1
                else _sign_walk(ends, support, group)
            )
        else:
            x = scanner.witness_for(sig)
            if x is not None:
                witness = SignWitness.from_rationals(x)
                if not verify_witness(ric, witness.x):
                    raise RuntimeError("internal: enumerated witness failed exact verification")
                return SSSVerdict(
                    is_sss=False,
                    witness=witness,
                    refuted_patterns=_admissible_rank(sig),
                    reason="witness-found",
                )
        nxt = next(walks[i], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt, i))
    return SSSVerdict(
        is_sss=True,
        witness=None,
        refuted_patterns=(3**p - 1) // 2,
        reason="patterns-exhausted",
    )


def verify_witness(ic: Interconnection, x: Sequence | SignWitness) -> bool:
    """Exact check of the certificate conditions on the reduced
    interconnection: x nonzero, sign(G_r^T G_r x) = sign(x) entrywise, and
    G_d^T G_r x = 0.

    Raises ValueError when the length of x does not match the reduced
    restorative edge count; returns False for mathematically invalid x.
    """
    ric = graphs.reduce(ic)
    xs = [Fraction(v) for v in (x.x if isinstance(x, SignWitness) else x)]
    if len(xs) != ric.p_r:
        raise ValueError(
            f"witness has {len(xs)} entries but the reduced interconnection "
            f"has {ric.p_r} restorative edges"
        )
    if all(v == 0 for v in xs):
        return False
    a, c = _sign_matrices(ric)
    ax = exactlin.matvec(a, xs)
    cx = exactlin.matvec(c, xs)
    if any(v != 0 for v in cx):
        return False
    for xi, axi in zip(xs, ax):
        sx = (xi > 0) - (xi < 0)
        sa = (axi > 0) - (axi < 0)
        if sx != sa:
            return False
    return True


def witness_to_laplacians(
    ic: Interconnection, witness: Sequence | SignWitness, d_weights: Sequence | None = None
) -> tuple[WeightedLaplacian, WeightedLaplacian]:
    """Turn a sign witness into a weight pair with margin pinned at zero.

    The restorative weights are x_i / (G_r^T G_r x)_i on the witness support
    (positive because the signs agree) and 1 elsewhere; then v = G_r x is an
    eigenvector of R with eigenvalue 1, orthogonal to the all-ones vector and
    in the null space of every admissible D.  The dissipative weights are
    free; pass ``d_weights`` to pick an instance (default all ones).
    """
    ric = graphs.reduce(ic)
    xs = [Fraction(v) for v in (witness.x if isinstance(witness, SignWitness) else witness)]
    if not verify_witness(ric, xs):
        raise ValueError("not a valid sign witness for this interconnection")
    a, _ = _sign_matrices(ric)
    ax = exactlin.matvec(a, xs)
    lam = [xi / axi if xi != 0 else Fraction(1) for xi, axi in zip(xs, ax)]
    r = laplacian(ric.q, ric.restorative_edges, lam)
    if d_weights is None:
        d_weights = [Fraction(1)] * ric.p_d
    d = laplacian(ric.q, ric.dissipative_edges, d_weights)
    return d, r


# Sampled trials classified per stacked LAPACK call: bounds the stack's
# memory and the trials drawn in vain after an early hit.
_FALSIFY_CHUNK = 32


def falsify_by_sampling(
    ic: Interconnection,
    trials: int,
    seed: int,
    weight_range: tuple[float, float] = (0.1, 10.0),
    candidates: Sequence[tuple] = (),
) -> tuple[WeightedLaplacian, WeightedLaplacian] | None:
    """Hunt for a weight pair whose margin is NOT classified positive.

    Tries ``candidates`` first, then ``trials`` log-uniform samples derived
    deterministically from ``seed``.  Returns the first non-positive pair or
    None.  The input must pass ``is_ss``.  A universal (SSS)
    interconnection can still yield a pair: a sample whose margin is
    positive but inside the borderline band is not classified positive.
    On ``gapped-path-end`` that happens at 25 of seeds 0-29 with 100 trials
    and the default range, every pair classified borderline.

    Trial i draws its two weight seeds from the seed's generator, then its
    dissipative and restorative weights as ``sample_laplacian`` does.  The
    trials are classified in chunks, one ``positive_stack`` call each, and
    only the returned pair is built as laplacians.
    """
    ssv = is_ss(ic)
    if not ssv.is_ss:
        raise ValueError(f"falsification needs an SS interconnection ({ssv.reason})")
    for d, r in candidates:
        if spectrum(d, r).classification() != "positive":
            return d, r
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        seeds = [
            (int(rng.integers(0, 2**62)), int(rng.integers(0, 2**62)))
            for _ in range(min(_FALSIFY_CHUNK, trials - done))
        ]
        d_seeds, r_seeds = zip(*seeds)
        dm = sample_matrices(ic.q, ic.dissipative_edges, d_seeds, weight_range)
        rm = sample_matrices(ic.q, ic.restorative_edges, r_seeds, weight_range)
        positive = positive_stack(dm + 1j * rm)
        if not positive.all():
            sd, sr = seeds[int(np.argmin(positive))]
            return (
                sample_laplacian(ic.q, ic.dissipative_edges, sd, weight_range),
                sample_laplacian(ic.q, ic.restorative_edges, sr, weight_range),
            )
        done += len(seeds)
    return None


# ---------------------------------------------------------------------------
# Weight synthesis for SS interconnections
# ---------------------------------------------------------------------------

_ALPHA_LADDER = tuple(_PHI**k for k in range(16)) + tuple(_PHI**-k for k in range(1, 16))
_NORM_CAP = 100.0
_CROSS_FRACTIONS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
# Weight-profile tapers tried per restorative component: flat first, then
# increasingly graded away from the dissipative attachment vertex, then
# toward it.
_TAPERS = (1.0, 0.618, 0.382, 0.236, 0.146, 1.618, 2.618, 4.236)
# Per-family rescale grid explored by _best_scaling (half-power steps).
_BETA_LADDER = tuple(2.0 ** (k / 2.0) for k in range(-12, 16))


def _disjoint_scale(fixed: list[float], candidate: list[float]) -> float:
    """Scale factor separating the candidate's nonzero spectrum from the
    already accepted eigenvalues.

    Near-coincident eigenvalues across blocks let the dissipative coupling
    mix the modes and collapse the margin, so a comfortable gap is tried
    first and the bare numeric minimum only as a fallback."""
    if not candidate or not fixed:
        return 1.0
    for gap in (0.1, 1e-9):
        for alpha in _ALPHA_LADDER:
            if all(abs(alpha * s - mu) > gap for s in candidate for mu in fixed):
                return alpha
    raise ConstructionError("could not separate component spectra")


def _component_generic_weights(
    q: int,
    edges: Sequence[Edge],
    members: Sequence[int],
    root: int | None = None,
    taper: float = 1.0,
) -> tuple[dict[Edge, float], list[float], np.ndarray]:
    """Generic laplacian on the subgraph induced by ``members``.

    ``root``/``taper`` steer the weight profile (growth starts at ``root``
    and grades downward by ``taper`` per step).  Returns (weight per edge,
    nonzero spectrum, eigenvectors of the nonzero spectrum embedded in R^q
    as columns).
    """
    order = sorted(members)
    local = {v: i + 1 for i, v in enumerate(order)}
    sub_edges = [(local[k], local[l]) for k, l in edges]
    local_root = local[root] if root is not None else 1
    wl, _ = generic_laplacian(len(order), sub_edges, root=local_root, taper=taper)
    weights = {e: float(w) for e, w in zip(tuple(edges), wl.weights)}
    if len(order) == 1:
        return weights, [], np.zeros((q, 0))
    sig, vecs = np.linalg.eigh(wl.matrix)
    scale = max(1.0, float(np.abs(sig).max()))
    nz = [i for i, s in enumerate(sig) if abs(s) > 1e-12 * scale]
    emb = np.zeros((q, len(nz)))
    for col, i in enumerate(nz):
        for li, v in enumerate(order):
            emb[v - 1, col] = vecs[li, i]
    return weights, [float(sig[i]) for i in nz], emb


def _split_across(q: int, edges: Sequence[Edge], a: int, b: int) -> set[int]:
    """Split a connected graph across the (a, b) axis.

    Builds a breadth-first spanning tree from ``a`` and removes the tree
    edge entering ``b``; returns the vertex set of b's side.  Both sides
    induce connected subgraphs and a, b land on opposite sides.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(1, q + 1)}
    for k, l in edges:
        adj[k].append(l)
        adj[l].append(k)
    for v in adj:
        adj[v].sort()
    parent: dict[int, int | None] = {a: None}
    queue = [a]
    while queue:
        v = queue.pop(0)
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    if b not in parent:
        raise ValueError(f"vertices {a} and {b} are not connected")
    children: dict[int, list[int]] = {v: [] for v in parent}
    for v, pv in parent.items():
        if pv is not None:
            children[pv].append(v)
    side = set()
    queue = [b]
    while queue:
        v = queue.pop(0)
        side.add(v)
        queue.extend(children[v])
    return side


def _canonical_rates(dm: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """Slowest non-synchronous decay rate of the unit oscillator array, for
    each pair of a stack (``dm`` and ``rm`` broadcast against each other,
    the last two axes being the q x q matrices).

    Assembles the closed-loop state matrix for unit-mass unit-stiffness
    scalar oscillators and returns minus the largest real part outside the
    two undamped synchronous roots.  This is the quantity a fixed-horizon
    simulation actually resolves, unlike the spectral margin, which ignores
    overdamping (a heavily damped edge locks its endpoints together and the
    pair creeps instead of settling).
    """
    *stack, qn, _ = np.broadcast_shapes(dm.shape, rm.shape)
    a = np.zeros((*stack, 2 * qn, 2 * qn))
    a[..., :qn, qn:] = np.eye(qn)
    a[..., qn:, :qn] = -(np.eye(qn) + rm)
    a[..., qn:, qn:] = -dm
    re = np.sort(np.linalg.eigvals(a).real, axis=-1)
    return -re[..., -3]


def _best_scaling(dm: np.ndarray, rm: np.ndarray) -> tuple[float, float, float]:
    """Best (rate, beta_d, beta_r) over the per-family rescale grid.

    Positive factors preserve laplacian membership and the sign of the
    margin, but move the unit-oscillator decay rate a lot: too little
    dissipative weight leaves modes ringing, too much overdamps them, and a
    small restorative scale lets the damping mix neighbouring modes.  Grid
    points whose margin is not strictly positive or whose norms exceed the
    cap are skipped.  Returns (-inf, 1, 1) if no grid point qualifies.

    The grid is evaluated one beta_d row at a time, every admissible beta_r
    stacked into one LAPACK call for the margins and one for the rates of
    the positive points.  Rows, not the whole 784-point grid, keep peak
    memory near that of a point-by-point scan.  Ties keep the first point
    in grid order.
    """
    nd = float(np.abs(np.linalg.eigvalsh(dm)).max())
    nr = float(np.abs(np.linalg.eigvalsh(rm)).max())
    best_rate = -math.inf
    best = (1.0, 1.0)
    beta_rs = np.array([beta_r for beta_r in _BETA_LADDER if beta_r * nr <= _NORM_CAP])
    if not beta_rs.size:
        return best_rate, best[0], best[1]
    scaled_r = beta_rs[:, None, None] * rm
    for beta_d in _BETA_LADDER:
        if beta_d * nd > _NORM_CAP:
            continue
        scaled_d = beta_d * dm
        positive = positive_stack(scaled_d + 1j * scaled_r)
        if not positive.any():
            continue
        rates = _canonical_rates(scaled_d, scaled_r[positive])
        for beta_r, rate in zip(beta_rs[positive], rates):
            if rate > best_rate + 1e-12:
                best_rate = float(rate)
                best = (beta_d, float(beta_r))
    return best_rate, best[0], best[1]


def _finalize(
    d: WeightedLaplacian,
    r: WeightedLaplacian,
    scaling: tuple[float, float, float] | None = None,
) -> tuple[WeightedLaplacian, WeightedLaplacian]:
    """Check the margin and rescale the families for fast settling.

    ``scaling`` is ``_best_scaling``'s result for this pair, when the caller
    has already computed it."""
    rep = spectrum(d, r)
    if rep.classification() != "positive":
        raise ConstructionError(f"synthesized margin is not positive: {rep.margin!r}")
    rate, beta_d, beta_r = scaling or _best_scaling(d.matrix, r.matrix)
    if not math.isfinite(rate) or (beta_d, beta_r) == (1.0, 1.0):
        return d, r
    d2, r2 = rescale(d, beta_d), rescale(r, beta_r)
    if spectrum(d2, r2).classification() != "positive":
        raise ConstructionError("rescaled pair lost its positive margin")
    return d2, r2


def construct_synchronizing_weights(
    ic: Interconnection,
) -> tuple[WeightedLaplacian, WeightedLaplacian]:
    """Explicit positive weights with a positive margin for an SS input.

    Dissipative weights are all ones.  When the restorative graph is
    disconnected, each component gets a generic laplacian and components are
    rescaled so their nonzero spectra never collide.  When it is connected,
    the vertex set is split in two across a dissipative edge, each side gets
    a generic laplacian (spectra separated), and the restorative edges that
    cross the split are restored at a common small weight chosen so the
    margin stays positive; the closed-form perturbation bound is kept as the
    last-resort candidate.  Finally the two families are rescaled by
    separate factors (beta_d, beta_r), chosen on a grid to maximise the
    decay rate of the unit oscillator array, so the pair settles quickly in
    downstream simulation.

    Raises ValueError for non-SS input, ConstructionError if a numeric
    postcondition fails.
    """
    ssv = is_ss(ic)
    if not ssv.is_ss:
        raise ValueError(f"cannot synthesize weights: interconnection is not SS ({ssv.reason})")
    q = ic.q
    d = laplacian(q, ic.dissipative_edges, [1.0] * ic.p_d)
    comp = components(q, ic.restorative_edges)
    r_weights: list[float] = [0.0] * ic.p_r

    if comp.count >= 2:
        # Every component attaches to the rest through dissipative edges
        # only, so each has a port vertex; growing the component weights
        # from the port keeps every eigenmode visible to the damping.  Each
        # taper grades the profile differently; the one whose best rescale
        # settles fastest wins.  Tapers often give the same profile (always
        # when there are no springs); a repeat would only tie, and ties keep
        # the first, so each distinct profile is ranked once.
        port: dict[int, int] = {}
        for k, l in ic.dissipative_edges:
            for v in (k, l):
                cid = comp.assignment[v - 1]
                port.setdefault(cid, v)
        best_weights: list[float] | None = None
        best_scaling = (-math.inf, 1.0, 1.0)
        ranked: set[tuple[float, ...]] = set()
        failure: ConstructionError | None = None
        for taper in _TAPERS:
            trial = [0.0] * ic.p_r
            accepted: list[float] = []
            try:
                for cid in range(1, comp.count + 1):
                    members = comp.members(cid)
                    idxs = [
                        i
                        for i, (k, _) in enumerate(ic.restorative_edges)
                        if comp.assignment[k - 1] == cid
                    ]
                    if not idxs:
                        continue
                    edges = [ic.restorative_edges[i] for i in idxs]
                    weights, nonzero, _ = _component_generic_weights(
                        q, edges, members, root=port.get(cid), taper=taper
                    )
                    alpha = _disjoint_scale(accepted, nonzero)
                    accepted.extend(alpha * s for s in nonzero)
                    for i in idxs:
                        trial[i] = alpha * weights[ic.restorative_edges[i]]
            except ConstructionError as exc:
                failure = exc
                continue
            if tuple(trial) in ranked:
                continue
            ranked.add(tuple(trial))
            scaling = _best_scaling(d.matrix, laplacian(q, ic.restorative_edges, trial).matrix)
            if scaling[0] > best_scaling[0] + 1e-12:
                best_scaling = scaling
                best_weights = trial
        if best_weights is None:
            raise failure if failure is not None else ConstructionError(
                "no taper produced a usable weight profile"
            )
        r = laplacian(q, ic.restorative_edges, best_weights)
        return _finalize(d, r, best_scaling)

    # Restorative graph connected on all q vertices.
    if q == 2:
        r = laplacian(q, ic.restorative_edges, [1.0] * ic.p_r)
        return _finalize(d, r)

    a, b = ic.dissipative_edges[0]
    v2 = _split_across(q, ic.restorative_edges, a, b)
    v1 = set(range(1, q + 1)) - v2
    idx1 = [i for i, (k, l) in enumerate(ic.restorative_edges) if k in v1 and l in v1]
    idx2 = [i for i, (k, l) in enumerate(ic.restorative_edges) if k in v2 and l in v2]
    cross = [i for i in range(ic.p_r) if i not in set(idx1) | set(idx2)]
    if not cross:
        raise ConstructionError("split has no crossing edges; restorative graph was not connected")

    w1, nz1, emb1 = _component_generic_weights(
        q, [ic.restorative_edges[i] for i in idx1], sorted(v1)
    )
    w2, nz2, emb2 = _component_generic_weights(
        q, [ic.restorative_edges[i] for i in idx2], sorted(v2)
    )
    alpha = _disjoint_scale(nz1, nz2)
    for i in idx1:
        r_weights[i] = w1[ic.restorative_edges[i]]
    for i in idx2:
        r_weights[i] = alpha * w2[ic.restorative_edges[i]]

    # Two-block spectrum: the blocks' nonzero eigenvalues plus a double zero.
    vals = sorted(nz1 + [alpha * s for s in nz2] + [0.0, 0.0])
    radius = max(vals) if vals else 0.0
    if radius <= 0:
        raise ConstructionError("two-block spectrum is degenerate")
    gaps = [y - x for x, y in zip(vals, vals[1:]) if y - x > 1e-12 * radius]
    c1 = min(gaps) if gaps else 0.0

    dm = d.matrix
    ind1 = np.array([1.0 if v in v1 else 0.0 for v in range(1, q + 1)])
    ind2 = 1.0 - ind1
    z0 = len(v2) * ind1 - len(v1) * ind2
    z0 = z0 / np.linalg.norm(z0)
    cand_vecs = [emb1[:, i] for i in range(emb1.shape[1])]
    cand_vecs += [emb2[:, i] for i in range(emb2.shape[1])]
    cand_vecs.append(z0)
    c2 = min(float(np.linalg.norm(dm @ z)) for z in cand_vecs)

    cross_edges = [ic.restorative_edges[i] for i in cross]
    b_cross = incidence(q, cross_edges).astype(float)
    norm_b_sq = float(np.linalg.norm(b_cross, 2)) ** 2
    norm_d = float(np.linalg.norm(dm, 2))
    bound = 0.0
    if c1 > 0 and c2 > 0:
        bound = c1 * c2 / (4.0 * norm_b_sq * math.sqrt(c2 * c2 + norm_d * norm_d))

    candidates = [f * radius for f in _CROSS_FRACTIONS]
    if bound > 0:
        candidates.append(0.5 * bound)
    for w in candidates:
        trial = list(r_weights)
        for i in cross:
            trial[i] = w
        r = laplacian(q, ic.restorative_edges, trial)
        if spectrum(d, r).classification() == "positive":
            return _finalize(d, r)
    raise ConstructionError("no crossing weight produced a positive margin")
