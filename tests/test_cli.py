"""End-to-end command-line behavior: output lines, files, and exit codes.

All invocations go through ``main(argv)`` in-process so coverage tooling and
monkeypatching work; stdout/stderr are captured with capsys.
"""

from fractions import Fraction

import pytest

from oscsync import cli, fixtures, graphs, structural
from oscsync.cli import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from oscsync.fileio import (
    parse_document,
    parse_witness,
    write_document,
    write_witness,
)
from oscsync.graphs import Interconnection


@pytest.fixture
def braced(tmp_path):
    path = tmp_path / "braced.txt"
    path.write_text(write_document(fixtures.braced_chain()))
    return str(path)


@pytest.fixture
def twin(tmp_path):
    path = tmp_path / "twin.txt"
    path.write_text(write_document(fixtures.twin_triangles()))
    return str(path)


def lines_of(capsys):
    captured = capsys.readouterr()
    return captured.out.splitlines(), captured.err


class TestAnalyze:
    def test_braced_chain(self, braced, capsys):
        assert main(["analyze", braced]) == EXIT_OK
        out, err = lines_of(capsys)
        assert out[0] == "interconnection: q=4 dissipative=1 restorative=3"
        assert out[1] == "reduced: dissipative=1 restorative=3"
        assert "SS: yes" in out
        assert "SSS: no" in out
        assert "witness x = (1, -3, -2)" in out
        assert "potentials = (1, -4, 1, 2)" in out
        assert "topology: general" in out
        assert not any(line.startswith("fast-path") for line in out)
        assert "# time existence" in err and "# time universality" in err

    def test_twin_triangles_universal(self, twin, capsys):
        assert main(["analyze", twin]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "SSS: yes (patterns refuted: 13)" in out
        assert not any(line.startswith("witness") for line in out)

    def test_path_fast_path_agreement(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(write_document(fixtures.by_name("gapped-path-mid").ic))
        assert main(["analyze", str(path)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "topology: path" in out
        assert "fast-path: yes" in out
        assert "agreement: ok" in out

    def test_path_fast_path_negative_agreement(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(write_document(fixtures.by_name("covered-path").ic))
        assert main(["analyze", str(path)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "fast-path: no" in out
        assert "agreement: ok" in out
        assert any(line.startswith("witness x = ") for line in out)

    def test_tree_inconclusive(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(write_document(fixtures.by_name("star-two-spring-leaves").ic))
        assert main(["analyze", str(path)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "topology: tree" in out
        assert "fast-path: inconclusive" in out
        assert not any(line.startswith("agreement") for line in out)

    def test_no_dampers(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("q 2\nr 1 2\n")
        assert main(["analyze", str(path)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "SS: no (empty-dissipative)" in out
        assert "SSS: no (not-ss)" in out
        assert "topology: path" in out
        assert not any(line.startswith("fast-path") for line in out)

    def test_fast_path_needs_ss(self):
        # The closed forms answer only for SS input; the SS verdict that
        # analyze and bench computed once is passed in.
        ric = graphs.reduce(Interconnection(3, (), ((1, 2), (2, 3))))
        assert cli._fast_path_verdict(ric, False) == ("path", None)
        ric = graphs.reduce(fixtures.by_name("covered-path").ic)
        assert cli._fast_path_verdict(ric, True) == ("path", False)

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text(write_document(fixtures.by_name("split-pair").ic))
        assert main(["analyze", str(path)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "SS: no (disconnected-union)" in out
        assert "topology: disconnected" in out

    def test_witness_file_written(self, braced, tmp_path, capsys):
        target = tmp_path / "w.txt"
        assert main(["analyze", braced, "--witness", str(target)]) == EXIT_OK
        capsys.readouterr()
        assert parse_witness(target.read_text()) == (1, -3, -2)

    def test_budget_exceeded(self, braced, capsys):
        assert main(["analyze", braced, "--budget", "2"]) == EXIT_BUDGET
        _, err = lines_of(capsys)
        assert "error: undecided-budget: 3 restorative edges exceed" in err

    def test_jobs_flag_same_output(self, braced, capsys):
        main(["analyze", braced])
        solo = capsys.readouterr().out
        main(["analyze", braced, "--jobs", "3"])
        assert capsys.readouterr().out == solo

    def test_unreadable_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["analyze", missing]) == EXIT_PARSE
        _, err = lines_of(capsys)
        assert err.startswith(f"error: cannot read {missing}:")

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("q 3\nd 1 9\n")
        assert main(["analyze", str(path)]) == EXIT_PARSE
        _, err = lines_of(capsys)
        assert "error: line 2: vertex index 9 out of range" in err


class TestVerify:
    def test_valid_witness(self, braced, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(write_witness((2, -1, 1)))
        assert main(["verify", braced, "--witness", str(wpath)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert out == ["witness: valid"]

    def test_invalid_witness(self, braced, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(write_witness((1, 1, 1)))
        assert main(["verify", braced, "--witness", str(wpath)]) == EXIT_INCONSISTENT
        out, _ = lines_of(capsys)
        assert out == ["witness: invalid"]

    def test_witness_index_out_of_range(self, braced, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text("witness\nx 4 1/1\n")
        assert main(["verify", braced, "--witness", str(wpath)]) == EXIT_PARSE
        _, err = lines_of(capsys)
        assert "exceeds the 3 restorative edges" in err


class TestSynthesize:
    def test_braced_chain_document_and_margin(self, braced, tmp_path, capsys):
        csv = tmp_path / "spec.csv"
        assert main(["synthesize", braced, "--csv", str(csv)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert out[-1].startswith("# margin ") and out[-1].endswith("(positive)")
        doc = parse_document("\n".join(out[:-1]) + "\n")
        assert doc.ic == fixtures.braced_chain()
        assert doc.d_weights is not None and doc.r_weights is not None
        assert all(w > 0 for w in doc.d_weights + doc.r_weights)
        assert csv.read_text().startswith("re,im\n")

    def test_not_ss_fails(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("q 3\nr 1 2\nr 2 3\n")
        assert main(["synthesize", str(path)]) == EXIT_FAILURE
        _, err = lines_of(capsys)
        assert "error: cannot synthesize weights" in err


class TestFalsify:
    def test_universal_none(self, twin, capsys):
        assert main(["falsify", twin, "--seed", "11", "--trials", "60"]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert out == ["counterexample: none (trials=60)"]

    def test_non_universal_found(self, braced, capsys):
        # Margins are never strictly negative for positive weights, so a
        # "find" is a borderline classification; seed 2 hits one within
        # 300 draws on this interconnection.
        assert main(["falsify", braced, "--seed", "2", "--trials", "300"]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert out[0] == "counterexample: found"
        assert out[-1].startswith("# margin ")
        assert "(borderline)" in out[-1] or "(negative)" in out[-1]
        doc = parse_document("\n".join(out[1:-1]) + "\n")
        assert doc.d_weights is not None and doc.r_weights is not None

    def test_not_ss_fails(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text(write_document(fixtures.by_name("split-pair").ic))
        assert main(["falsify", str(path), "--seed", "0"]) == EXIT_FAILURE
        _, err = lines_of(capsys)
        assert "error: falsification needs an SS interconnection" in err


class TestSimulate:
    def test_requires_weights(self, braced, capsys):
        assert main(["simulate", braced]) == EXIT_PARSE
        _, err = lines_of(capsys)
        assert "simulation needs weights for both edge families" in err

    def test_synthesized_weights_synchronize(self, tmp_path, capsys):
        ic = fixtures.twin_triangles()
        d, r = structural.construct_synchronizing_weights(ic)
        path = tmp_path / "weighted.txt"
        path.write_text(write_document(ic, d.weights, r.weights))
        csv = tmp_path / "trace.csv"
        assert main(["simulate", str(path), "--csv", str(csv)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "controllable: yes" in out
        assert any(line.startswith("margin: ") and "(positive)" in line for line in out)
        assert "sync: yes" in out
        samples = next(int(l.split()[1]) for l in out if l.startswith("samples:"))
        csv_lines = csv.read_text().strip().splitlines()
        assert csv_lines[0] == "t,delta,y1,y2,y3,y4"
        assert len(csv_lines) == samples + 1

    def test_witness_weights_fail_to_synchronize(self, tmp_path, capsys):
        ic = fixtures.braced_chain()
        d, r = structural.witness_to_laplacians(ic, (2, -1, 1))
        path = tmp_path / "weighted.txt"
        path.write_text(write_document(ic, d.weights, r.weights))
        assert main(["simulate", str(path), "--seed", "2026"]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "sync: no" in out
        assert not any("(positive)" in line for line in out if line.startswith("margin"))

    def test_explicit_system_document(self, tmp_path, capsys):
        ic = fixtures.by_name("two-node").ic
        path = tmp_path / "weighted.txt"
        path.write_text(write_document(ic, [Fraction(1)], []))
        syspath = tmp_path / "sys.txt"
        syspath.write_text("n 1\nm 1 1 1\nk 1 1 1\nb 1 1\n")
        args = [
            "simulate", str(path), "--system", str(syspath),
            "--horizon", "50", "--step", "0.001", "--seed", "4",
        ]
        assert main(args) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "controllable: yes" in out and "sync: yes" in out

    def test_unstable_step_rejected(self, tmp_path, capsys):
        ic = fixtures.by_name("two-node").ic
        path = tmp_path / "weighted.txt"
        path.write_text(write_document(ic, [Fraction(10**8)], []))
        assert main(["simulate", str(path)]) == EXIT_FAILURE
        _, err = lines_of(capsys)
        assert "stability pre-check" in err


class TestBench:
    def test_full_gallery_agrees(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(csv)]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert out[0] == "fixture,topology,fast_path,general,agree"
        assert len(out) == len(fixtures.gallery()) + 1
        cells = [line.split(",") for line in out[1:]]
        assert all(row[4] != "no" for row in cells)
        by_name = {row[0]: row for row in cells}
        assert by_name["braced-chain"][1:] == ["general", "-", "no", "-"]
        assert by_name["alternating-cycle-6"][1:] == ["cycle", "yes", "yes", "yes"]
        assert by_name["covered-path"][1:] == ["path", "no", "no", "yes"]
        assert by_name["star-two-spring-leaves"][2] == "inconclusive"
        assert csv.read_text() == "\n".join(out) + "\n"

    def test_budget_exceeded(self, capsys):
        assert main(["bench", "--budget", "1"]) == EXIT_BUDGET
        _, err = lines_of(capsys)
        assert "error: undecided-budget" in err


class TestParserBuiltOnce:
    """``main`` builds its parser once per process; nothing an earlier
    call parsed may leak into a later one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = cli._build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_build_parser", counting)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_built_at_most_once(self, builds, braced, twin, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(write_witness((2, -1, 1)))
        assert main(["analyze", braced]) == EXIT_OK
        assert main(["verify", braced, "--witness", str(wpath)]) == EXIT_OK
        assert main(["analyze", twin]) == EXIT_OK
        assert main(["analyze", braced, "--budget", "2"]) == EXIT_BUDGET
        assert len(builds) == 1

    def test_no_state_leaks_between_calls(self, builds, braced, tmp_path, capsys):
        target = tmp_path / "w.txt"
        assert main(["analyze", braced, "--witness", str(target)]) == EXIT_OK
        assert parse_witness(target.read_text()) == (1, -3, -2)
        target.unlink()
        assert main(["analyze", braced]) == EXIT_OK
        assert not target.exists()
        # An option given once falls back to its default on the next call.
        assert main(["analyze", braced, "--budget", "2"]) == EXIT_BUDGET
        assert main(["analyze", braced]) == EXIT_OK
        assert len(builds) == 1

    def test_usage_error_then_next_call_works(self, builds, braced, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2
        assert "the following arguments are required: file" in capsys.readouterr().err
        assert main(["analyze", braced]) == EXIT_OK
        out, _ = lines_of(capsys)
        assert "witness x = (1, -3, -2)" in out
        assert len(builds) == 1
