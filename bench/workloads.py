"""The benchmark's workloads: seeded corpus, timed instance, output check.

Each workload turns ``--seed`` into a corpus of cases, runs one case per
timed instance through oscsync's public API or CLI, and checks the output
afterwards, outside the timed region.  ``check`` returns a list of problems;
an empty list means the output is correct.

Corpora are stratified: every seed yields the same number of cases per size
class (reduced restorative edge count, vertex count, node type), and only
the graphs, labels and weight seeds inside a class depend on the seed.  That
keeps one seed's cost close to another's, so runs with different seeds can
be compared.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oscsync import cli, dynamics, fileio, fixtures, graphs, laplacians, spectral, structural
from oscsync.graphs import Interconnection


def _tree_plus_edges(rng, q: int, total: int, max_degree: int | None = None) -> list:
    """A random spanning tree on 1..q plus random extra edges, ``total``
    edges in all, optionally keeping every vertex degree <= max_degree."""
    order = [int(v) for v in rng.permutation(np.arange(1, q + 1))]
    edges = []
    degree = [0] * (q + 1)
    for i in range(1, q):
        parent = order[int(rng.integers(0, i))]
        edges.append((min(order[i], parent), max(order[i], parent)))
        degree[order[i]] += 1
        degree[parent] += 1
    present = set(edges)
    pool = [(k, l) for k in range(1, q + 1) for l in range(k + 1, q + 1) if (k, l) not in present]
    for j in rng.permutation(len(pool)):
        if len(edges) >= total:
            break
        k, l = pool[int(j)]
        if max_degree is not None and max(degree[k], degree[l]) >= max_degree:
            continue
        edges.append((k, l))
        degree[k] += 1
        degree[l] += 1
    return edges


def _split_labels(rng, edges: list, p_d: int) -> tuple[tuple, tuple]:
    picked = set(int(i) for i in rng.permutation(len(edges))[:p_d])
    d = tuple(sorted(e for i, e in enumerate(edges) if i in picked))
    r = tuple(sorted(e for i, e in enumerate(edges) if i not in picked))
    return d, r


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return (exit code, stdout).  Stderr carries
    only the CLI's own timing lines and is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# decide: exact SSS verdicts through the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecideCase:
    name: str
    ic: Interconnection
    doc: str
    witness: str
    expect_sss: bool | None = None
    expect_witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DecideOutput:
    analyze_code: int
    analyze_out: str
    verify_code: int | None
    verify_out: str | None


# (dampers, reduced p_r, cases per pass).  Sparse dampers: the scan mostly
# ends in a witness after many simplex calls.  Dense dampers: mostly
# universal, the scan exhausts the patterns while supports die in
# null_space.  Sparse costs spread over two orders of magnitude; dense
# costs cluster tightly by p_r, and these counts put the median inside the
# dense p_r 7 cluster and the tail percentile inside the dense p_r 8
# cluster, so neither jumps between clusters from seed to seed.
DECIDE_STRATA = (
    ("sparse", 7, 5),
    ("sparse", 8, 5),
    ("dense", 7, 12),
    ("dense", 8, 12),
    ("dense", 10, 1),
)
CYCLE_SIZES = (12, 14, 16, 18)


def _decide_random(rng, kind: str, p_r: int) -> Interconnection:
    if kind == "sparse":
        # Five vertices: at q = 6-7 the same damper counts give single
        # scans of 2-10 s at p_r = 8, which belong with larger instances.
        q = 5
        p_d = int(rng.integers(1, min(3, 10 - p_r) + 1))
    else:
        while True:
            q = int(rng.integers(6, 9))
            p_d = int(rng.integers(q + 2, 2 * q))
            if p_r + p_d <= q * (q - 1) // 2:
                break
    edges = _tree_plus_edges(rng, q, p_r + p_d)
    return Interconnection(q, *_split_labels(rng, edges, p_d))


class Decide:
    name = "decide"
    tail_percentile = 75

    def _case(self, workdir: Path, name: str, ic: Interconnection, **expect) -> DecideCase:
        doc = workdir / f"{name}.txt"
        doc.write_text(fileio.write_document(ic), encoding="utf-8")
        return DecideCase(name, ic, str(doc), str(workdir / f"{name}.witness"), **expect)

    def corpus(self, seed: int, workdir: Path) -> list[DecideCase]:
        rng = np.random.default_rng([seed, 1])
        random_cases = []
        for kind, p_r, count in DECIDE_STRATA:
            for i in range(count):
                ic = _decide_random(rng, kind, p_r)
                random_cases.append(self._case(workdir, f"{kind}-p{p_r}-{i}", ic))
        fixed = [
            self._case(workdir, f"alternating-cycle-{q}", fixtures.alternating_cycle(q),
                       expect_sss=(q // 2) % 2 == 1)
            for q in CYCLE_SIZES
        ]
        fixed.append(
            self._case(workdir, "braced-chain", fixtures.braced_chain(),
                       expect_sss=False, expect_witness=(1, -3, -2))
        )
        # Interleave so that any prefix of a pass holds a similar mix.
        order = rng.permutation(len(random_cases))
        cases = [random_cases[int(i)] for i in order]
        step = len(cases) // len(fixed) + 1
        for j, case in enumerate(fixed):
            cases.insert(j * step, case)
        return cases

    def warmup_case(self, workdir: Path) -> DecideCase:
        return self._case(workdir, "warmup", fixtures.braced_chain(),
                          expect_sss=False, expect_witness=(1, -3, -2))

    def run(self, case: DecideCase) -> DecideOutput:
        code, out = _cli(["analyze", case.doc, "--witness", case.witness])
        verify_code = verify_out = None
        if os.path.exists(case.witness):
            verify_code, verify_out = _cli(["verify", case.doc, "--witness", case.witness])
        return DecideOutput(code, out, verify_code, verify_out)

    def check(self, case: DecideCase, out: DecideOutput) -> list[str]:
        """Check the CLI output and the witness document the instance
        wrote; the document is removed once read so the next pass starts
        clean."""
        try:
            witness_text = Path(case.witness).read_text(encoding="utf-8")
            os.remove(case.witness)
        except FileNotFoundError:
            witness_text = None
        problems = []
        text = out.analyze_out
        ric = graphs.reduce(case.ic)
        if out.analyze_code != 0:
            problems.append(f"analyze exit code {out.analyze_code}")
        if "SS: yes" not in text:
            problems.append("SS verdict missing")
        universal = re.search(r"^SSS: yes \(patterns refuted: (\d+)\)$", text, re.M)
        if universal:
            if int(universal.group(1)) != (3**ric.p_r - 1) // 2:
                problems.append("universal verdict did not refute every admissible pattern")
            if witness_text is not None or out.verify_code is not None:
                problems.append("universal verdict wrote a witness")
        elif not re.search(r"^SSS: no$", text, re.M):
            problems.append("no SSS verdict")
        elif witness_text is None:
            problems.append("non-universal verdict wrote no witness")
        else:
            if out.verify_code != 0 or "witness: valid" not in (out.verify_out or ""):
                problems.append(f"verify rejected the witness (exit {out.verify_code})")
            x = fileio.parse_witness(witness_text, p_r=ric.p_r)
            if not structural.verify_witness(ric, x):
                problems.append("witness fails exact verification")
            else:
                d, r = structural.witness_to_laplacians(ric, x)
                if spectral.spectrum(d, r).classification() != "borderline":
                    problems.append("witness pair does not pin the margin at zero")
        if case.expect_sss is not None and bool(universal) != case.expect_sss:
            problems.append(f"expected SSS {case.expect_sss}")
        if case.expect_witness is not None and f"witness x = {case.expect_witness}" not in text:
            problems.append(f"expected witness {case.expect_witness}")
        if re.search(r"^topology: (path|cycle)$", text, re.M) and "agreement: ok" not in text:
            problems.append("closed form disagrees with the exact verdict")
        return problems


# ---------------------------------------------------------------------------
# synthesize: weight construction on the criterion-6 generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesizeCase:
    name: str
    ic: Interconnection


SYNTH_SIZES = tuple(range(2, 9))
SYNTH_PER_SIZE = 4


def _criterion6(rng, q: int) -> Interconnection:
    """Random spanning tree, each other pair added with probability 0.3,
    random labels with at least one damper (SS by construction)."""
    edges = set(_tree_plus_edges(rng, q, q - 1))
    for k in range(1, q + 1):
        for l in range(k + 1, q + 1):
            if (k, l) not in edges and rng.random() < 0.3:
                edges.add((k, l))
    edges = sorted(edges)
    labels = [int(rng.integers(0, 2)) for _ in edges]
    if not any(labels):
        labels[int(rng.integers(0, len(labels)))] = 1
    d = tuple(e for e, m in zip(edges, labels) if m)
    r = tuple(e for e, m in zip(edges, labels) if not m)
    return Interconnection(q, d, r)


class Synthesize:
    name = "synthesize"
    tail_percentile = 60

    def corpus(self, seed: int, workdir: Path) -> list[SynthesizeCase]:
        """Per q, one case in four (none at q = 2) has a connected spring
        graph, near the generator's own share of 15-27 %.  The construction
        branches on that: a disconnected spring graph ranks eight weight
        tapers by a full rescale grid each, about nine grids in all, against
        one grid otherwise, so the share is fixed rather than left to the
        seed."""
        rng = np.random.default_rng([seed, 2])
        cases = []
        for i in range(SYNTH_PER_SIZE):
            for q in SYNTH_SIZES:
                connected = q > 2 and i == 0
                while True:
                    ic = _criterion6(rng, q)
                    if graphs.is_connected(q, ic.restorative_edges) == connected:
                        break
                cases.append(SynthesizeCase(f"q{q}-{i}", ic))
        return cases

    def warmup_case(self, workdir: Path) -> SynthesizeCase:
        return SynthesizeCase("warmup", fixtures.braced_chain())

    def run(self, case: SynthesizeCase):
        return structural.construct_synchronizing_weights(case.ic)

    def check(self, case: SynthesizeCase, out) -> list[str]:
        d, r = out
        problems = []
        if d.q != case.ic.q or r.q != case.ic.q:
            problems.append("weights are for the wrong vertex count")
        if d.edges != case.ic.dissipative_edges or r.edges != case.ic.restorative_edges:
            problems.append("weights do not cover the interconnection's edges")
        if not all(np.isfinite(float(w)) and float(w) > 0 for w in d.weights + r.weights):
            problems.append("a synthesized weight is not positive")
        elif spectral.spectrum(d, r).classification() != "positive":
            problems.append("synthesized margin is not positive")
        return problems


# ---------------------------------------------------------------------------
# crosscheck: one sampled weight pair through every validation route
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CrosscheckCase:
    name: str
    ic: Interconnection
    system: dynamics.OscillatorSystem
    ss: bool
    seeds: tuple[int, int, int, int]  # d weights, r weights, state, falsify


@dataclass(frozen=True, eq=False)
class CrosscheckOutput:
    d: laplacians.WeightedLaplacian
    r: laplacians.WeightedLaplacian
    parsed: fileio.ParsedDocument
    report: spectral.SpectralReport
    lhp_free: bool
    obstruction: np.ndarray | None
    trace: dynamics.SyncTrace
    falsified: tuple | None


CROSS_SIZES = tuple(range(4, 17))
CROSS_PER_SIZE = 8
# Weights and degrees are bounded so that the default RK4 step passes the
# simulator's stability pre-check on every case.
WEIGHT_RANGE = (0.2, 5.0)
MAX_DEGREE = 6
FALSIFY_TRIALS = 200
STATE_TOLERANCE = 1e-6


def _two_dof() -> dynamics.OscillatorSystem:
    """Controllable two-degree-of-freedom node with a unit-norm port."""
    return dynamics.OscillatorSystem(
        n=2, m=np.diag([1.0, 2.0]), k=np.array([[2.0, -0.5], [-0.5, 1.5]]), b=np.array([0.6, 0.8])
    )


def _crosscheck_ic(rng, q: int, ss: bool) -> Interconnection:
    """Random interconnection with at least one edge of each kind; SS
    cases have a connected union, the others two separate halves."""
    halves = [(1, q)] if ss else [(1, q // 2), (q // 2 + 1, q)]
    edges = []
    for lo, hi in halves:
        size = hi - lo + 1
        local = _tree_plus_edges(rng, size, size - 1 + int(rng.integers(0, size // 2 + 1)), MAX_DEGREE)
        edges += [(k + lo - 1, l + lo - 1) for k, l in local]
    p_d = int(rng.integers(1, len(edges)))
    return Interconnection(q, *_split_labels(rng, edges, p_d))


class Crosscheck:
    name = "crosscheck"
    tail_percentile = 90

    def corpus(self, seed: int, workdir: Path) -> list[CrosscheckCase]:
        rng = np.random.default_rng([seed, 3])
        nodes = (dynamics.harmonic(), _two_dof())
        cases = []
        for i in range(CROSS_PER_SIZE):
            for q in CROSS_SIZES:
                ss = (i + q) % 4 != 0
                seeds = tuple(int(s) for s in rng.integers(0, 2**62, size=4))
                cases.append(
                    CrosscheckCase(
                        f"q{q}-{i}", _crosscheck_ic(rng, q, ss), nodes[(i + q) % 2], ss, seeds
                    )
                )
        return cases

    def warmup_case(self, workdir: Path) -> CrosscheckCase:
        return CrosscheckCase("warmup", fixtures.braced_chain(), _two_dof(), True, (1, 2, 3, 4))

    def run(self, case: CrosscheckCase) -> CrosscheckOutput:
        ic = case.ic
        seed_d, seed_r, seed_state, seed_falsify = case.seeds
        d = laplacians.sample_laplacian(ic.q, ic.dissipative_edges, seed_d, WEIGHT_RANGE)
        r = laplacians.sample_laplacian(ic.q, ic.restorative_edges, seed_r, WEIGHT_RANGE)
        parsed = fileio.parse_document(fileio.write_document(ic, d.weights, r.weights))
        report = spectral.spectrum(d, r)
        lhp = spectral.lhp_free(d, r)
        obstruction = spectral.eigenvector_obstruction(d, r)
        trace = dynamics.simulate(
            case.system,
            parsed.ic,
            parsed.d_weights,
            parsed.r_weights,
            initial=dynamics.random_state(ic.q, case.system.n, seed_state),
            keep_states=True,
        )
        falsified = None
        if case.ss:
            falsified = structural.falsify_by_sampling(ic, trials=FALSIFY_TRIALS, seed=seed_falsify)
        return CrosscheckOutput(d, r, parsed, report, lhp, obstruction, trace, falsified)

    def check(self, case: CrosscheckCase, out: CrosscheckOutput) -> list[str]:
        import scipy.linalg

        problems = []
        if not out.lhp_free:
            problems.append("eigenvalue in the open left half plane")
        kind = out.report.classification()
        if kind == "negative":
            problems.append("negative margin")
        elif kind == "positive" and out.obstruction is not None:
            problems.append("positive margin but an eigenvector obstruction was found")
        if out.parsed.ic != case.ic:
            problems.append("document round trip changed the interconnection")
        for written, parsed in ((out.d.weights, out.parsed.d_weights), (out.r.weights, out.parsed.r_weights)):
            if parsed is None or [float(v) for v in parsed] != list(written):
                problems.append("document round trip changed the weights")
        if not out.trace.controllable:
            problems.append("node reported uncontrollable")
        final = np.concatenate(
            [out.trace.positions[-1].reshape(-1), out.trace.velocities[-1].reshape(-1)]
        )
        initial = dynamics.random_state(case.ic.q, case.system.n, case.seeds[2])
        z0 = np.concatenate([initial.positions.reshape(-1), initial.velocities.reshape(-1)])
        horizon = out.trace.times[-1] - out.trace.times[0]
        exact = scipy.linalg.expm(_state_matrix(case.system, out.d.matrix, out.r.matrix) * horizon) @ z0
        if np.abs(final - exact).max() > STATE_TOLERANCE * max(1.0, np.abs(z0).max()):
            problems.append("RK4 final state disagrees with the matrix-exponential oracle")
        if out.falsified is not None:
            fd, fr = out.falsified
            if spectral.spectrum(fd, fr).classification() == "positive":
                problems.append("falsify returned a pair with a positive margin")
        return problems


def _state_matrix(system, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """First-order matrix of M x'' + K x + b (b^T (D x' + R x)) = 0 per
    node, stacked positions then velocities, node-major."""
    q, n = d.shape[0], system.n
    bbt = np.outer(system.b, system.b)
    minv = np.kron(np.eye(q), np.linalg.inv(system.m))
    top = np.hstack([np.zeros((q * n, q * n)), np.eye(q * n)])
    bottom = np.hstack(
        [-minv @ (np.kron(np.eye(q), system.k) + np.kron(r, bbt)), -minv @ np.kron(d, bbt)]
    )
    return np.vstack([top, bottom])


WORKLOADS = {w.name: w for w in (Decide(), Synthesize(), Crosscheck())}
