"""Direct simulation of coupled identical oscillator arrays.

Each of q identical mechanical nodes (mass matrix M, stiffness K, scalar
port b) couples to the others through a dissipative laplacian D acting on
output velocities and a restorative laplacian R acting on outputs.  The
closed loop is one large linear system; a fixed-step fourth-order
integrator advances it by the one-step polynomial map applied to the
stacked state, and long horizons apply a precomputed power of that map
once per sample stride (equal to plain stepping up to rounding, since
the power reorders the floating-point work).

The port must make every natural frequency observable
(``check_controllability``) for spectral margin verdicts to translate into
trajectory behavior; simulation proceeds either way but flags the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Interconnection
from .laplacians import WeightedLaplacian, laplacian, sample_laplacian
from .spectral import SpectralReport, spectrum

TAIL_SYNCED = 1e-4
TAIL_DESYNC = 1e-2


class InstabilityError(RuntimeError):
    """The integrator state left the representable range."""


def _check_spd(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if not np.allclose(a, a.T, atol=1e-9 * scale, rtol=0.0):
        raise ValueError(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh(a).min()) <= 0:
        raise ValueError(f"{name} must be positive definite")
    return a


@dataclass(frozen=True, eq=False)
class OscillatorSystem:
    """One node's dynamics: M x'' + K x + b u = 0 with output y = b^T x."""

    n: int
    m: np.ndarray
    k: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node order must be at least 1, got {self.n}")
        m = _check_spd("mass matrix", self.m)
        k = _check_spd("stiffness matrix", self.k)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if m.shape != (self.n, self.n) or k.shape != (self.n, self.n):
            raise ValueError("mass and stiffness shapes must match the node order")
        if b.shape != (self.n,):
            raise ValueError(f"port vector must have {self.n} entries, got {b.shape}")
        if not np.any(b):
            raise ValueError("port vector must be nonzero")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)


def harmonic() -> OscillatorSystem:
    """Smallest controllable node: unit mass, unit stiffness, unit port."""
    return OscillatorSystem(n=1, m=np.eye(1), k=np.eye(1), b=np.ones(1))


@dataclass(frozen=True, eq=False)
class ArrayState:
    """Positions and velocities of all q nodes at a time instant."""

    positions: np.ndarray  # (q, n)
    velocities: np.ndarray  # (q, n)
    t: float = 0.0

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if pos.ndim != 2 or vel.shape != pos.shape:
            raise ValueError("positions and velocities must both have shape (q, n)")
        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @property
    def q(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        return self.positions.shape[1]


def random_state(q: int, n: int, seed: int, scale: float = 1.0) -> ArrayState:
    """Standard-normal positions and velocities from an explicit seed."""
    rng = np.random.default_rng(seed)
    return ArrayState(
        positions=scale * rng.standard_normal((q, n)),
        velocities=scale * rng.standard_normal((q, n)),
    )


def spread_state(q: int, n: int) -> ArrayState:
    """Deterministic seedless default: node i rests at height i/q."""
    pos = np.repeat(np.arange(1, q + 1, dtype=float)[:, None] / q, n, axis=1)
    return ArrayState(positions=pos, velocities=np.zeros((q, n)))


def node_energies(sys: OscillatorSystem, state: ArrayState) -> np.ndarray:
    """Per-node mechanical energy (kinetic + potential)."""
    pos, vel = state.positions, state.velocities
    return 0.5 * (
        np.einsum("in,nm,im->i", vel, sys.m, vel)
        + np.einsum("in,nm,im->i", pos, sys.k, pos)
    )


def check_controllability(sys: OscillatorSystem) -> bool:
    """True iff the stacked matrix [K - w^2 M; b^T] has full column rank
    for every w > 0.

    Rank can only drop when w^2 is a generalized eigenvalue of (K, M), so
    the test evaluates the stacked rank at each distinct one.
    """
    chol = np.linalg.cholesky(sys.m)
    inv = np.linalg.inv(chol)
    sym = inv @ sys.k @ inv.T
    mus = np.linalg.eigvalsh((sym + sym.T) / 2)
    scale = max(1.0, float(np.abs(mus).max()))
    distinct: list[float] = []
    for mu in mus:
        if not distinct or abs(mu - distinct[-1]) > 1e-9 * scale:
            distinct.append(float(mu))
    for mu in distinct:
        stacked = np.vstack([sys.k - mu * sys.m, sys.b.reshape(1, -1)])
        if np.linalg.matrix_rank(stacked) < sys.n:
            return False
    return True


@dataclass(frozen=True, eq=False)
class SyncTrace:
    """Sampled trajectory summary.

    ``deviations[s]`` is the worst pairwise disagreement at sample s: the
    maximum over node pairs of position-difference norm plus
    velocity-difference norm.  ``tail`` is the largest deviation over the
    final fifth of the horizon.  ``outputs[s, i]`` is node i's port output.
    ``positions``/``velocities`` hold full state samples when requested.
    """

    times: np.ndarray
    deviations: np.ndarray
    outputs: np.ndarray
    tail: float
    controllable: bool
    positions: np.ndarray | None = None
    velocities: np.ndarray | None = None

    def to_csv(self) -> str:
        q = self.outputs.shape[1]
        lines = ["t,delta," + ",".join(f"y{i}" for i in range(1, q + 1))]
        for s in range(len(self.times)):
            row = [repr(float(self.times[s])), repr(float(self.deviations[s]))]
            row += [repr(float(v)) for v in self.outputs[s]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


# Samples per block of pairwise differences: bounds the memory of the
# samples x pairs x n temporaries.
_DEVIATION_BLOCK = 128


def _deviations(pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Worst pairwise disagreement of each sample of a (samples, q, n)
    block of positions and velocities, over the node pairs i < j."""
    i, j = np.triu_indices(pos.shape[1], 1)
    dp = pos[:, i] - pos[:, j]
    dv = vel[:, i] - vel[:, j]
    total = np.linalg.norm(dp, axis=-1) + np.linalg.norm(dv, axis=-1)
    return total.max(axis=1)


def _coupling_matrix(q: int, edges, weights) -> np.ndarray:
    if isinstance(weights, WeightedLaplacian):
        if weights.q != q:
            raise ValueError(f"laplacian is {weights.q}-node but the array has {q}")
        return weights.matrix
    return laplacian(q, edges, weights).matrix


def closed_loop_matrix(
    sys: OscillatorSystem, d: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """First-order matrix of the coupled array on the stacked state
    (positions then velocities, node-major)."""
    q = d.shape[0]
    bbt = np.outer(sys.b, sys.b)
    minv = np.linalg.inv(sys.m)
    stiff = np.kron(np.eye(q), sys.k) + np.kron(r, bbt)
    damp = np.kron(d, bbt)
    blk = np.kron(np.eye(q), minv)
    top = np.hstack([np.zeros((q * sys.n, q * sys.n)), np.eye(q * sys.n)])
    bottom = np.hstack([-blk @ stiff, -blk @ damp])
    return np.vstack([top, bottom])


def simulate(
    sys: OscillatorSystem,
    ic: Interconnection,
    d_weights,
    r_weights,
    initial: ArrayState | None = None,
    horizon: float = 200.0,
    step: float = 1e-3,
    keep_states: bool = False,
) -> SyncTrace:
    """Integrate the coupled array and report pairwise disagreement.

    ``d_weights`` / ``r_weights`` are weight sequences for the
    interconnection's edge lists (or prebuilt laplacians).  The classical
    fourth-order one-step map is precomputed once and its stride-th power
    applied per sample, so long horizons stay cheap; samples agree with
    plain stepping up to rounding, not bit for bit.  Sampling keeps about
    a thousand points across the horizon, stored in one array; the
    finiteness check, outputs and deviations then run over the whole
    trajectory.

    Raises ValueError when the step fails the stability pre-check (the
    spectral radius of the closed loop must satisfy step * |s| <= 0.1,
    well inside the fourth-order stability region) or the horizon is
    shorter than 100 steps, and InstabilityError if the state leaves the
    representable range.
    """
    q = ic.q
    if initial is None:
        initial = spread_state(q, sys.n)
    if initial.q != q or initial.n != sys.n:
        raise ValueError(
            f"initial state is {initial.q} nodes of order {initial.n}; "
            f"expected {q} nodes of order {sys.n}"
        )
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if horizon < 100 * step:
        raise ValueError(f"horizon {horizon} is shorter than 100 steps of {step}")

    d = _coupling_matrix(q, ic.dissipative_edges, d_weights)
    r = _coupling_matrix(q, ic.restorative_edges, r_weights)
    a = closed_loop_matrix(sys, d, r)
    omega = float(np.abs(np.linalg.eigvals(a)).max())
    if omega > 0 and step > 0.1 / omega:
        raise ValueError(
            f"step {step} fails the stability pre-check; need step <= "
            f"{0.1 / omega:.3e} for this system"
        )

    ha = step * a
    p2 = ha @ ha
    p3 = p2 @ ha
    phi = np.eye(a.shape[0]) + ha + p2 / 2 + p3 / 6 + (p3 @ ha) / 24

    steps = int(round(horizon / step))
    stride = max(1, steps // 1000)
    phi_stride = np.linalg.matrix_power(phi, stride)

    # Samples after every whole stride, then at the last step when the
    # horizon is not a whole number of strides.
    idxs = np.arange(0, steps + 1, stride)
    whole = len(idxs)
    if steps % stride:
        idxs = np.append(idxs, steps)
    nq = q * sys.n
    states = np.empty((len(idxs), 2 * nq))
    states[0] = np.concatenate([initial.positions.reshape(-1), initial.velocities.reshape(-1)])
    for s in range(1, whole):
        states[s] = phi_stride @ states[s - 1]
    if steps % stride:
        states[-1] = np.linalg.matrix_power(phi, steps % stride) @ states[-2]

    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise InstabilityError(
            f"state left the representable range at t={int(idxs[finite.argmin()]) * step:.6g}; "
            "reduce the step size or the coupling norms"
        )
    pos = states[:, :nq].reshape(-1, q, sys.n)
    vel = states[:, nq:].reshape(-1, q, sys.n)
    times_arr = initial.t + idxs * step
    dev_arr = np.concatenate(
        [
            _deviations(pos[i : i + _DEVIATION_BLOCK], vel[i : i + _DEVIATION_BLOCK])
            for i in range(0, len(idxs), _DEVIATION_BLOCK)
        ]
    )
    cutoff = initial.t + 0.8 * steps * step
    window = dev_arr[times_arr >= cutoff - 1e-12]
    # matmul runs one (q, n) @ (n,) product per sample, exactly as a
    # per-sample loop would.
    return SyncTrace(
        times=times_arr,
        deviations=dev_arr,
        outputs=pos @ sys.b,
        tail=float(window.max()),
        controllable=check_controllability(sys),
        positions=pos.copy() if keep_states else None,
        velocities=vel.copy() if keep_states else None,
    )


@dataclass(frozen=True)
class CrosscheckRow:
    margin: float
    classification: str
    tail: float
    agree: bool | None  # None when the margin is borderline


@dataclass(frozen=True, eq=False)
class CrosscheckReport:
    rows: tuple[CrosscheckRow, ...]
    compared: int
    agreement: float


def verdict_crosscheck(
    sys: OscillatorSystem,
    ic: Interconnection,
    trials: int,
    seed: int,
    horizon: float = 200.0,
    step: float = 1e-3,
    weight_range: tuple[float, float] = (0.1, 10.0),
) -> CrosscheckReport:
    """Compare spectral margins against simulated tails on sampled weights.

    Each trial draws a weight pair and a random initial state, classifies
    the margin, and simulates; a positive margin should pull the tail
    deviation under TAIL_SYNCED and a negative one should leave it above
    TAIL_DESYNC at the default horizon.  Borderline margins are excluded
    from the agreement score, and tiny positive margins may legitimately
    miss the tail threshold on short horizons — the score is a diagnostic,
    not a proof.  Requires a controllable node.
    """
    if not check_controllability(sys):
        raise ValueError("verdict crosscheck requires a controllable node system")
    rng = np.random.default_rng(seed)
    rows: list[CrosscheckRow] = []
    for _ in range(trials):
        sd = int(rng.integers(0, 2**62))
        sr = int(rng.integers(0, 2**62))
        si = int(rng.integers(0, 2**62))
        d = sample_laplacian(ic.q, ic.dissipative_edges, sd, weight_range)
        r = sample_laplacian(ic.q, ic.restorative_edges, sr, weight_range)
        report = spectrum(d, r)
        trace = simulate(
            sys, ic, d, r, initial=random_state(ic.q, sys.n, si),
            horizon=horizon, step=step,
        )
        kind = report.classification()
        if kind == "positive":
            agree: bool | None = trace.tail < TAIL_SYNCED
        elif kind == "negative":
            agree = trace.tail > TAIL_DESYNC
        else:
            agree = None
        rows.append(
            CrosscheckRow(
                margin=report.margin, classification=kind, tail=trace.tail, agree=agree
            )
        )
    compared = sum(1 for row in rows if row.agree is not None)
    agreed = sum(1 for row in rows if row.agree)
    return CrosscheckReport(
        rows=tuple(rows),
        compared=compared,
        agreement=(agreed / compared) if compared else 1.0,
    )
