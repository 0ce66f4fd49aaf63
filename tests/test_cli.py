"""Tests for the command-line front end.

Each verb is driven in-process through run(argv) so exit codes and the
exact stdout/stderr split are observable.  JSON outputs are golden-file
style: the decoded objects are compared field by field, which freezes
the schema without depending on float formatting.
"""

from __future__ import annotations

import io
import json
import math
import random
import re

import pytest

from factor_spectra.cli import run
from factor_spectra.factors import FactorWitness, validate_witness
from factor_spectra.families import ExtremalParams, extremal_graph
from factor_spectra.graphs import (
    complete_graph,
    cycle_graph,
    parse_graph6,
    to_graph6,
)

K13 = "Cs"  # star on 4 vertices, center first
C4 = "Cl"
P4 = "Ch"
K4 = "C~"
K5 = "D~{"


def run_cli(argv, capsys, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- construct -------------------------------------------------------------------


def test_construct_distinguished_graph6(capsys):
    code, out, _ = run_cli(["construct", "F", "--a", "1", "--b", "2", "--k", "0", "--n", "10"], capsys)
    assert code == 0
    expected = to_graph6(extremal_graph(ExtremalParams(1, 2, 0, 10)))
    assert out.strip() == expected
    assert parse_graph6(out.strip()).edge_count == 24


def test_construct_json_and_edge_list(capsys):
    code, out, _ = run_cli(
        ["construct", "F", "--a", "1", "--b", "2", "--k", "0", "--n", "10", "--out", "json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 10
    assert rec["edge_count"] == 24
    assert parse_graph6(rec["graph6"]).edge_count == 24

    code, out, _ = run_cli(
        ["construct", "F", "--a", "1", "--b", "2", "--k", "0", "--n", "10", "--out", "edge-list"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "10"
    assert len(out.splitlines()) == 1 + 24


def test_construct_family_one_line_per_class(capsys):
    code, out, _ = run_cli(
        ["construct", "family", "--a", "3", "--b", "3", "--k", "0", "--n", "16"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    # attachment degree multisets of a - 1 = 2 edges over b + 1 = 4 slots
    # with clique cap: {2} and {1, 1}
    assert len(lines) == 2
    assert all(parse_graph6(line).n == 16 for line in lines)


def test_construct_rejects_bad_window(capsys):
    code, _, err = run_cli(["construct", "F", "--a", "2", "--b", "1", "--k", "0", "--n", "10"], capsys)
    assert code == 2
    assert "error:" in err


# -- lambda / hong ----------------------------------------------------------------


def test_lambda_golden_k5(capsys, monkeypatch):
    code, out, _ = run_cli(["lambda"], capsys, stdin=K5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 5
    assert rec["lambda"] == pytest.approx(4.0, abs=1e-10)
    assert rec["residual"] < 1e-10
    assert rec["connected"] is True


def test_lambda_corpus_preserves_order(capsys, monkeypatch):
    stdin = "\n".join([K13, C4, K5]) + "\n"
    code, out, _ = run_cli(["lambda"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    ns = [json.loads(line)["n"] for line in out.splitlines()]
    assert ns == [4, 4, 5]


def test_lambda_csv_and_text(capsys, monkeypatch):
    code, out, _ = run_cli(["lambda", "--out", "csv"], capsys, stdin=C4 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,lambda,residual,iterations,connected"
    assert row.startswith("4,2.0")
    code, out, _ = run_cli(["lambda", "--out", "text"], capsys, stdin=C4 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "lambda=2.0000" in out


def test_lambda_from_file_and_edge_list(tmp_path, capsys):
    g6 = tmp_path / "c4.g6"
    g6.write_text(C4 + "\n", encoding="ascii")
    code, out, _ = run_cli(["lambda", "--in", str(g6)], capsys)
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(2.0, abs=1e-9)

    el = tmp_path / "c4.txt"
    el.write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="ascii")
    code, out, _ = run_cli(["lambda", "--in", str(el), "--format", "edge-list"], capsys)
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(2.0, abs=1e-9)


def test_lambda_on_a_long_relabelled_path(tmp_path, capsys):
    # 500 vertices: the power loop alone ran out of max_iter and exited 1
    perm = list(range(500))
    random.Random(500).shuffle(perm)
    edges = "".join(f"{perm[i]} {perm[i + 1]}\n" for i in range(499))
    el = tmp_path / "p500.txt"
    el.write_text(f"500\n{edges}", encoding="ascii")
    code, out, _ = run_cli(["lambda", "--in", str(el), "--format", "edge-list"], capsys)
    assert code == 0
    (line,) = out.splitlines()
    rec = json.loads(line)
    assert rec["n"] == 500
    assert abs(rec["lambda"] - 2 * math.cos(math.pi / 501)) <= 1e-12
    assert rec["residual"] < 1e-10

def test_hong_record(capsys, monkeypatch):
    code, out, _ = run_cli(["hong"], capsys, stdin=K5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out)
    assert rec["edge_count"] == 10
    assert rec["min_degree"] == 4
    # K_5 attains the bound exactly
    assert rec["slack"] == pytest.approx(0.0, abs=1e-9)
    assert rec["bound"] == pytest.approx(4.0, abs=1e-9)


def test_hong_csv_and_text(capsys, monkeypatch):
    stdin = C4 + "\n" + K5 + "\n"
    code, out, _ = run_cli(["hong", "--out", "csv"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == [
        "n,edge_count,min_degree,bound,lambda,slack",
        "4,4,2,2.0,2.0,0.0",
        "5,10,4,4.0,4.0,0.0",
    ]
    code, out, _ = run_cli(["hong", "--out", "text"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == [
        "n=4 m=4 bound=2.000000000000 lambda=2.000000000000 slack=0.000e+00",
        "n=5 m=10 bound=4.000000000000 lambda=4.000000000000 slack=0.000e+00",
    ]


def test_bad_graph6_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["lambda"], capsys, stdin="!!notgraph6!!\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flags", [["--tol", "inf"], ["--tol", "nan"], ["--max-iter", "0"]])
def test_lambda_bad_solver_arguments_are_usage_errors(capsys, monkeypatch, flags):
    code, out, err = run_cli(["lambda", *flags], capsys, stdin=C4 + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error:" in err


# -- deciders ----------------------------------------------------------------------


def test_decide_golden_star(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decide", "--a", "1", "--b", "2", "--k", "0"],
        capsys,
        stdin=K13 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "critical": False,
        "certificate": {
            "kind": "integral",
            "s_set": [0],
            "t_set": [1, 2, 3],
            "deficiency": 1,
        },
    }


def test_decide_expect_critical_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(
        ["decide", "--a", "1", "--b", "2", "--k", "0", "--expect-critical"],
        capsys,
        stdin=K13 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "not critical" in err
    code, _, _ = run_cli(
        ["decide", "--a", "1", "--b", "2", "--k", "0", "--expect-critical"],
        capsys,
        stdin=K5 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0


def test_decide_csv_and_text(capsys, monkeypatch):
    stdin = K13 + "\n" + K5 + "\n"
    code, out, _ = run_cli(
        ["decide", "--a", "1", "--b", "2", "--k", "0", "--out", "csv"],
        capsys,
        stdin=stdin,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "critical,kind,s_set,t_set,deficiency"
    assert lines[1] == "false,integral,0,1 2 3,1"
    assert lines[2] == "true,,,,"
    code, out, _ = run_cli(
        ["decide", "--a", "1", "--b", "2", "--k", "0", "--out", "text"],
        capsys,
        stdin=stdin,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.splitlines() == [
        "not critical: S=[0] T=[1, 2, 3] deficiency=1",
        "critical",
    ]


def test_decide_streams_records_before_a_bad_graph(capsys, monkeypatch):
    # K_3 is below the (2, 3, 1) route's smallest order; K_5's record is
    # already out when it aborts the run
    code, out, err = run_cli(
        ["decide", "--a", "2", "--b", "3", "--k", "1"],
        capsys,
        stdin=K5 + "\nBw\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error:" in err
    assert [json.loads(line) for line in out.splitlines()] == [
        {"critical": True, "certificate": None}
    ]


def test_fractional_verb(capsys, monkeypatch):
    # C_4 is fractionally (2, 2, 0)-critical; K_{1,3} is not
    code, out, _ = run_cli(
        ["fractional", "--a", "2", "--b", "2", "--k", "0"],
        capsys,
        stdin=C4 + "\n" + K13 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0]["critical"] is True
    assert recs[1]["critical"] is False
    assert recs[1]["certificate"]["kind"] == "fractional"


def test_rk_verb_agrees_with_fractional(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["rk", "--r", "2", "--k", "0"],
        capsys,
        stdin=C4 + "\n" + K13 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0]["critical"] is True
    assert recs[1]["critical"] is False
    assert recs[1]["certificate"]["kind"] == "parity"


@pytest.mark.parametrize(
    "argv, csv_row, text_line",
    [
        (["fractional", "--a", "2", "--b", "2", "--k", "0"],
         "false,fractional,,1 2 3,3", "not critical: S=[] T=[1, 2, 3] deficiency=3"),
        (["rk", "--r", "2", "--k", "0"],
         "false,parity,,0,2", "not critical: S=[] T=[0] deficiency=2"),
    ],
)
def test_fractional_and_rk_csv_and_text(capsys, monkeypatch, argv, csv_row, text_line):
    stdin = C4 + "\n" + K13 + "\n"
    code, out, _ = run_cli([*argv, "--out", "csv"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["critical,kind,s_set,t_set,deficiency", "true,,,,", csv_row]
    code, out, _ = run_cli([*argv, "--out", "text"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["critical", text_line]


@pytest.mark.parametrize(
    "argv", [["fractional", "--a", "2", "--b", "2", "--k", "0"], ["rk", "--r", "2", "--k", "0"]]
)
def test_fractional_and_rk_expect_critical(capsys, monkeypatch, argv):
    argv = [*argv, "--expect-critical"]
    code, out, err = run_cli(argv, capsys, stdin=C4 + "\n" + K13 + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert len(out.splitlines()) == 2
    assert err == "1 of 2 graphs are not critical\n"
    code, out, err = run_cli(argv, capsys, stdin=C4 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"critical": True, "certificate": None}
    assert err == ""


def test_decide_parallel_order_and_count(capsys, monkeypatch):
    # K_{1,3} is the only graph here without a [1, 2]-factor
    stdin = "\n".join([K13, K5, C4, K13, P4, K5, K4, K13]) + "\n"
    argv = ["decide", "--a", "1", "--b", "2", "--k", "0", "--expect-critical"]
    code, out, err = run_cli([*argv, "--parallel", "2"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert err == "3 of 8 graphs are not critical\n"
    star = {"kind": "integral", "s_set": [0], "t_set": [1, 2, 3], "deficiency": 1}
    assert [json.loads(line) for line in out.splitlines()] == [
        {"critical": not failing, "certificate": star if failing else None}
        for failing in (True, False, False, True, False, False, False, True)
    ]
    assert run_cli(argv, capsys, stdin=stdin, monkeypatch=monkeypatch) == (code, out, err)


def test_decide_b_equal_a_is_usage_error(capsys, monkeypatch):
    for stdin in (C4 + "\n", ""):
        code, _, err = run_cli(
            ["decide", "--a", "2", "--b", "2", "--k", "0"],
            capsys,
            stdin=stdin,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "error:" in err
        # names the CLI verb, not only the Python function
        assert re.search(r"\brk\b", err)


# -- factor ------------------------------------------------------------------------


def test_factor_witness_validates(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["factor", "--a", "1", "--b", "2"], capsys, stdin=K5 + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["exists"] is True
    w = rec["witness"]
    assert w["kind"] == "integral"
    edges = tuple(tuple(e) for e in w["edges"])
    witness = FactorWitness(kind="integral", edges=edges, weights=None,
                            degrees=tuple(w["degrees"]))
    validate_witness(complete_graph(5), witness, 1, 2)


def test_factor_fractional_and_missing(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["factor", "--a", "2", "--b", "2", "--fractional"],
        capsys,
        stdin=C4 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["exists"] is True
    # every C_4 edge must carry weight exactly 1 to hit degree 2 twice
    assert all(num == den for _, _, num, den in rec["witness"]["weights"])
    code, out, _ = run_cli(
        ["factor", "--a", "2", "--b", "2"], capsys, stdin=K13 + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == {"exists": False, "witness": None}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["factor", "--a", "1", "--b", "2"], K5 + "\n" + K13 + "\n"),
        (["factor", "--a", "2", "--b", "2", "--fractional"], C4 + "\n" + K13 + "\n"),
    ],
)
def test_factor_csv_and_text(capsys, monkeypatch, argv, stdin):
    code, out, _ = run_cli([*argv, "--out", "csv"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["exists", "true", "false"]
    code, out, _ = run_cli([*argv, "--out", "text"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["factor exists", "no factor"]


# -- convert -----------------------------------------------------------------------


def test_convert_round_trip_bit_exact(tmp_path, capsys):
    g6_file = tmp_path / "in.g6"
    g6_file.write_text(C4 + "\n", encoding="ascii")
    code, out, _ = run_cli(["convert", "--in", str(g6_file), "--out", "edge-list"], capsys)
    assert code == 0
    el_file = tmp_path / "mid.txt"
    el_file.write_text(out, encoding="ascii")
    code, out, _ = run_cli(
        ["convert", "--in", str(el_file), "--format", "edge-list", "--out", "g6"], capsys
    )
    assert code == 0
    assert out.strip() == C4


def test_convert_corpus_passthrough(capsys, monkeypatch):
    stdin = K13 + "\n" + K5 + "\n"
    code, out, _ = run_cli(["convert"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == [K13, K5]


# -- verify / explore ----------------------------------------------------------------


def test_verify_quick_battery(capsys):
    code, out, err = run_cli(["verify", "--level", "quick", "--seed", "0"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) >= 15
    assert all(rec["status"] == "pass" for rec in records)
    assert "0 fail" in err


def test_verify_parallel_matches_sequential(capsys):
    code, out_seq, _ = run_cli(["verify", "--level", "quick"], capsys)
    assert code == 0
    code, out_par, _ = run_cli(["verify", "--level", "quick", "--parallel", "2"], capsys)
    assert code == 0
    assert out_seq == out_par


def test_parallel_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FACTOR_SPECTRA_THREADS", "2")
    stdin = "\n".join([K13, C4, K5, C4]) + "\n"
    code, out, _ = run_cli(["lambda"], capsys, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    ns = [json.loads(line)["n"] for line in out.splitlines()]
    assert ns == [4, 4, 5, 4]


def test_parallel_env_not_an_integer_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FACTOR_SPECTRA_THREADS", "two")
    code, out, err = run_cli(["lambda"], capsys, stdin=C4 + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error: FACTOR_SPECTRA_THREADS" in err


def test_explore_verb(capsys):
    code, out, _ = run_cli(
        ["explore", "--r", "2", "--k", "0", "--n", "8", "--budget", "60", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["check_id"] == "conjecture-explorer"
    assert rec["status"] == "pass"
    assert rec["metrics"]["evaluations"] <= 60


def test_explore_rejects_small_r(capsys):
    code, _, err = run_cli(
        ["explore", "--r", "1", "--k", "0", "--n", "8", "--budget", "10"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_missing_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
