"""Tests of the benchmark itself: tracing coverage, count determinism,
non-vacuous output checks and the metric declarations.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import oscsync  # noqa: E402
from oscsync import cli, dynamics, fileio, graphs, structural, topology  # noqa: E402
import run as bench_run  # noqa: E402
from tracing import Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


def _small_cases(name: str, seed: int, workdir: Path, count: int = 3):
    """The cheapest cases of a seeded corpus."""
    cases = WORKLOADS[name].corpus(seed, workdir)
    return sorted(cases, key=lambda c: (graphs.reduce(c.ic).p_r, c.ic.q))[:count]


def _traced(name: str, cases) -> dict[str, float]:
    t = Tracer().install()
    try:
        run = bench_run.Run(WORKLOADS[name], t)
        t.recording = True
        for i, case in enumerate(cases):
            run.instance(i, case)
        t.recording = False
    finally:
        t.uninstall()
    assert run.failed == 0, run.problems
    return t.layer_metrics(1)


# -- binding coverage --------------------------------------------------------


def test_every_binding_of_a_traced_function_is_wrapped(tracer):
    assert tracer.unwrapped_bindings() == []
    # The copies made by ``from .spectral import spectrum`` and friends.
    for module in (structural, dynamics, cli, oscsync):
        assert hasattr(module.spectrum, "__wrapped__")
    assert topology.structural.is_sss is structural.is_sss is oscsync.is_sss
    assert hasattr(structural.is_sss, "__wrapped__")
    assert hasattr(structural.np.linalg.eigvals, "__wrapped__")


def test_binding_check_sees_unwrapped_originals(tracer):
    tracer.uninstall()
    stale = tracer.unwrapped_bindings()
    assert "oscsync.structural.spectrum" in stale
    assert "oscsync.cli.spectrum" in stale
    assert "oscsync.structural.np.linalg.eigvals" in stale


# -- count determinism -------------------------------------------------------

DETERMINISTIC = (
    ["structural.is_sss.refuted_patterns", "spectral.spectrum.calls", "dynamics.simulate.samples"]
    + [f"exactlin.{f}.calls" for f in ("null_space", "strictly_feasible", "matvec")]
    + [f"numpy.linalg.{k}.calls" for k in ("eig", "eigvals", "eigvalsh", "eigh", "svd")]
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed_and_corpus_follows_the_seed(name, tmp_path):
    first = _traced(name, _small_cases(name, 1, tmp_path))
    second = _traced(name, _small_cases(name, 1, tmp_path))
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    same = [c.ic for c in WORKLOADS[name].corpus(1, tmp_path)]
    assert same == [c.ic for c in WORKLOADS[name].corpus(1, tmp_path)]
    assert same != [c.ic for c in WORKLOADS[name].corpus(2, tmp_path)]


def test_layer_predictions_hold(tmp_path):
    decide = _traced("decide", _small_cases("decide", 1, tmp_path))
    synthesize = _traced("synthesize", _small_cases("synthesize", 1, tmp_path))
    crosscheck = _traced("crosscheck", _small_cases("crosscheck", 1, tmp_path))
    for f in ("null_space", "strictly_feasible", "matvec"):
        assert synthesize[f"exactlin.{f}.calls"] == 0
        assert crosscheck[f"exactlin.{f}.calls"] == 0
    assert decide["exactlin.strictly_feasible.calls"] > 0
    assert decide["structural.is_sss.simplex_share"] > 0
    assert decide["dynamics.simulate.calls"] == synthesize["dynamics.simulate.calls"] == 0
    assert decide["spectral.spectrum.calls"] == 0
    assert crosscheck["dynamics.simulate.samples"] > 0
    assert synthesize["numpy.linalg.eigvals.calls"] > 0
    assert synthesize["structural.construct_synchronizing_weights.self_s"] > 0


# -- non-vacuous checks ------------------------------------------------------


class _Corrupting:
    """A workload whose instance output is corrupted after the run."""

    def __init__(self, workload, corrupt):
        self.workload = workload
        self.corrupt = corrupt

    def run(self, case):
        return self.corrupt(case, self.workload.run(case))

    def check(self, case, out):
        return self.workload.check(case, out)


def _flip_witness_sign(case, out):
    x = list(fileio.parse_witness(Path(case.witness).read_text(encoding="utf-8")))
    i = next(i for i, v in enumerate(x) if v != 0)
    x[i] = -x[i]
    Path(case.witness).write_text(fileio.write_witness(x), encoding="utf-8")
    return out


def _zero_weight(case, out):
    d, r = out
    return d, replace(r, weights=(0.0,) + r.weights[1:])


def _perturb_final_state(case, out):
    positions = out.trace.positions.copy()
    positions[-1, 0, 0] += 1e-3
    return replace(out, trace=replace(out.trace, positions=positions))


@pytest.mark.parametrize(
    "name, pick, corrupt",
    [
        ("decide", lambda c: c.name == "braced-chain", _flip_witness_sign),
        ("synthesize", lambda c: c.ic.p_r > 0, _zero_weight),
        ("crosscheck", lambda c: True, _perturb_final_state),
    ],
)
def test_corrupted_output_counts_as_failed(name, pick, corrupt, tmp_path):
    workload = WORKLOADS[name]
    case = next(c for c in workload.corpus(1, tmp_path) if pick(c))
    clean = bench_run.Run(workload)
    clean.instance(0, case)
    assert clean.failed == 0, clean.problems
    bad = bench_run.Run(_Corrupting(workload, corrupt))
    bad.instance(0, case)
    assert bad.failed == 1 and len(bad.latencies) == 1


# -- declarations and the contract -------------------------------------------


def test_declared_metrics_are_the_measured_ones():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == layer_metric_names() + ["trace.instances_per_s", "trace.slowdown"]
    run = bench_run.Run(WORKLOADS["crosscheck"])
    run.by_case = {f"case{i}": [v] for i, v in enumerate(np.linspace(0.01, 0.02, 40))}
    values = bench_run.report_end_to_end(run, WORKLOADS["crosscheck"], [0.5, 0.6, 0.7])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(values)
    assert all(v > 0 for v in values.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    assert bench_run.tail(values, 95) == (30, 75, 10)
    assert bench_run.tail(list(range(1, 201)), 95) == (190, 95, 10)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
