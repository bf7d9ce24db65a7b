"""Command-line front end.

Subcommands: analyze, verify, synthesize, falsify, simulate, bench.
Stdout is deterministic for identical (input, flags, seed); wall-clock
timing goes to stderr.  Exit codes: 0 success, 1 operation failure,
2 unparseable or invalid input, 3 enumeration budget exceeded,
4 inconsistency (mismatched cross-check or refuted witness).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from contextlib import contextmanager

from . import dynamics, exactlin, fileio, fixtures, graphs, structural, topology
from .laplacians import ConstructionError, laplacian
from .spectral import spectrum

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


@contextmanager
def _timed(phase: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        print(f"# time {phase} {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise fileio.ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def _margin_line(d, r) -> str:
    report = spectrum(d, r)
    return f"# margin {repr(report.margin)} ({report.classification()})"


def _fast_path_verdict(ric, ss: bool) -> tuple[str, bool | None]:
    """(topology kind, closed-form verdict or None when unavailable);
    ``ss`` is ``structural.is_ss(ric).is_ss``."""
    if not graphs.is_connected(ric.q, ric.union_edges):
        return "disconnected", None
    topo = topology.classify(ric.q, ric.union_edges)
    if not ss:
        return topo.kind, None
    if topo.kind == "path":
        return "path", topology.path_sss(ric)
    if topo.kind == "cycle":
        return "cycle", topology.cycle_sss(ric)
    if topo.kind == "tree":
        return "tree", topology.tree_sss_sufficient(ric)
    return "general", None


def cmd_analyze(args) -> int:
    ic = fileio.parse_interconnection(_read(args.file))
    ric = graphs.reduce(ic)
    print(
        f"interconnection: q={ic.q} dissipative={ic.p_d} restorative={ic.p_r}"
    )
    print(f"reduced: dissipative={ric.p_d} restorative={ric.p_r}")

    with _timed("existence"):
        ssv = structural.is_ss(ric)
    print(f"SS: {'yes' if ssv.is_ss else f'no ({ssv.reason})'}")

    with _timed("universality"):
        verdict = structural.is_sss(ric, budget=args.budget, jobs=args.jobs)
    if verdict.is_sss:
        print(f"SSS: yes (patterns refuted: {verdict.refuted_patterns})")
    elif verdict.reason == "not-ss":
        print("SSS: no (not-ss)")
    else:
        print("SSS: no")
    if verdict.witness is not None:
        print(f"witness x = {verdict.witness.x}")
        gr = graphs.incidence(ric.q, ric.restorative_edges).tolist()
        potentials = exactlin.matvec(gr, verdict.witness.x)
        print(f"potentials = {tuple(int(v) for v in potentials)}")
        if args.witness:
            _write(args.witness, fileio.write_witness(verdict.witness))

    kind, fast = _fast_path_verdict(ric, ssv.is_ss)
    print(f"topology: {kind}")
    if kind in ("path", "cycle", "tree") and ssv.is_ss:
        if fast is None:
            print("fast-path: inconclusive")
        else:
            print(f"fast-path: {'yes' if fast else 'no'}")
            if fast != verdict.is_sss:
                print("agreement: INCONSISTENT")
                return EXIT_INCONSISTENT
            print("agreement: ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    ic = fileio.parse_interconnection(_read(args.file))
    ric = graphs.reduce(ic)
    x = fileio.parse_witness(_read(args.witness), p_r=ric.p_r)
    with _timed("verification"):
        ok = structural.verify_witness(ric, x)
    print(f"witness: {'valid' if ok else 'invalid'}")
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_synthesize(args) -> int:
    ic = fileio.parse_interconnection(_read(args.file))
    with _timed("synthesis"):
        d, r = structural.construct_synchronizing_weights(ic)
    document = fileio.write_document(ic, d.weights, r.weights)
    sys.stdout.write(document)
    print(_margin_line(d, r))
    if args.csv:
        _write(args.csv, spectrum(d, r).to_csv())
    return EXIT_OK


def cmd_falsify(args) -> int:
    ic = fileio.parse_interconnection(_read(args.file))
    with _timed("falsification"):
        found = structural.falsify_by_sampling(ic, trials=args.trials, seed=args.seed)
    if found is None:
        print(f"counterexample: none (trials={args.trials})")
    else:
        d, r = found
        print("counterexample: found")
        sys.stdout.write(fileio.write_document(ic, d.weights, r.weights))
        print(_margin_line(d, r))
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = fileio.parse_document(_read(args.file))
    # A family with no edges is vacuously weighted.
    d_weights = doc.d_weights if doc.ic.p_d else ()
    r_weights = doc.r_weights if doc.ic.p_r else ()
    if d_weights is None or r_weights is None:
        raise fileio.ParseError(
            "simulation needs weights for both edge families; add `w` lines "
            "(for instance from `synthesize`)"
        )
    system = fileio.parse_system(_read(args.system)) if args.system else dynamics.harmonic()
    initial = (
        dynamics.random_state(doc.ic.q, system.n, args.seed)
        if args.seed is not None
        else dynamics.spread_state(doc.ic.q, system.n)
    )
    with _timed("simulation"):
        trace = dynamics.simulate(
            system,
            doc.ic,
            d_weights,
            r_weights,
            initial=initial,
            horizon=args.horizon,
            step=args.step,
        )
    d = laplacian(doc.ic.q, doc.ic.dissipative_edges, d_weights)
    r = laplacian(doc.ic.q, doc.ic.restorative_edges, r_weights)
    report = spectrum(d, r)
    print(f"controllable: {'yes' if trace.controllable else 'no'}")
    print(f"margin: {repr(report.margin)} ({report.classification()})")
    print(f"samples: {len(trace.times)}")
    print(f"tail delta: {repr(trace.tail)}")
    if trace.tail < dynamics.TAIL_SYNCED:
        print("sync: yes")
    elif trace.tail > dynamics.TAIL_DESYNC:
        print("sync: no")
    else:
        print("sync: indeterminate")
    if args.csv:
        _write(args.csv, trace.to_csv())
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = ["fixture,topology,fast_path,general,agree"]
    inconsistent = False
    with _timed("bench"):
        for fixture in fixtures.gallery():
            ric = graphs.reduce(fixture.ic)
            ss = structural.is_ss(ric).is_ss
            kind, fast = _fast_path_verdict(ric, ss)
            verdict = structural.is_sss(ric, budget=args.budget, jobs=args.jobs)
            general = "yes" if verdict.is_sss else "no"
            tree_one_sided = kind == "tree" and ss
            if fast is None:
                fast_text = "inconclusive" if tree_one_sided else "-"
                agree = "-"
            else:
                fast_text = "yes" if fast else "no"
                agree = "yes" if fast == verdict.is_sss else "no"
                inconsistent = inconsistent or agree == "no"
            rows.append(f"{fixture.name},{kind},{fast_text},{general},{agree}")
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.csv:
        _write(args.csv, table)
    return EXIT_INCONSISTENT if inconsistent else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscsync",
        description="Structural synchronization analysis of oscillator arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="existence/universality verdicts")
    analyze.add_argument("file", help="interconnection document")
    analyze.add_argument("--budget", type=int, default=14)
    analyze.add_argument("--jobs", type=int, default=1, help="no effect; kept for compatibility")
    analyze.add_argument("--witness", help="write the witness document here")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="check a witness document")
    verify.add_argument("file", help="interconnection document")
    verify.add_argument("--witness", required=True, help="witness document")
    verify.set_defaults(func=cmd_verify)

    synthesize = sub.add_parser("synthesize", help="construct synchronizing weights")
    synthesize.add_argument("file", help="interconnection document")
    synthesize.add_argument("--csv", help="write the spectral report here")
    synthesize.set_defaults(func=cmd_synthesize)

    falsify = sub.add_parser("falsify", help="hunt for non-synchronizing weights")
    falsify.add_argument("file", help="interconnection document")
    falsify.add_argument("--trials", type=int, default=1000)
    falsify.add_argument("--seed", type=int, required=True)
    falsify.set_defaults(func=cmd_falsify)

    simulate = sub.add_parser("simulate", help="integrate the coupled array")
    simulate.add_argument("file", help="interconnection document with weights")
    simulate.add_argument("--system", help="node system document (default: harmonic)")
    simulate.add_argument("--horizon", type=float, default=200.0)
    simulate.add_argument("--step", type=float, default=1e-3)
    simulate.add_argument("--seed", type=int, help="random initial state seed")
    simulate.add_argument("--csv", help="write the trajectory here")
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="fixture gallery verdict table")
    bench.add_argument("--budget", type=int, default=14)
    bench.add_argument("--jobs", type=int, default=1, help="no effect; kept for compatibility")
    bench.add_argument("--csv", help="also write the table here")
    bench.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call;
    ``parse_args`` returns a fresh namespace each time."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except structural.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ConstructionError, dynamics.InstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
