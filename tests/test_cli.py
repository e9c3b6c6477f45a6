import csv

import pytest

from hodatalog.cli import main
from hodatalog.tm import ACCEPT_ALL, PARITY


@pytest.fixture
def parity_tm(tmp_path):
    p = tmp_path / "parity.tm"
    p.write_text(PARITY)
    return str(p)


@pytest.fixture
def union_hodl(tmp_path):
    p = tmp_path / "union.hodl"
    p.write_text("union R S X :- (R X). union R S X :- (S X).\n")
    return str(p)


def test_check_clean_prints_order(union_hodl, capsys):
    assert main(["check", union_hodl]) == 0
    assert capsys.readouterr().out.strip() == "order: 2"


def test_check_reports_e202(tmp_path, capsys):
    p = tmp_path / "bad.hodl"
    p.write_text("q a. r q.\n")
    assert main(["check", str(p)]) == 3
    assert "E202" in capsys.readouterr().out


def test_check_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.hodl"
    p.write_text("")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "order: 1"


def test_run_exit_codes(tmp_path, capsys):
    p = tmp_path / "accept_a.hodl"
    p.write_text("accept :- (input 0 a end).\n")
    assert main(["run", str(p), "--input", "a"]) == 0
    assert main(["run", str(p), "--input", "b"]) == 1
    out = capsys.readouterr().out
    assert "accept" in out and "reject" in out


def test_run_budget_exit_code(tmp_path):
    p = tmp_path / "loop.hodl"
    p.write_text("step X Y :- (input X S Y). reach X Y :- (step X Y). "
                 "reach X Y :- (step X Z), (reach Z Y). "
                 "accept :- (reach 0 end).\n")
    assert main(["run", str(p), "--input", "abab", "--budget", "3"]) == 2


def test_run_budget_exit_code_seminaive(tmp_path, capsys):
    p = tmp_path / "chain4.hodl"
    p.write_text("edge a b. edge b c. edge c d. edge d e. "
                 "path X Y :- (edge X Y). path X Y :- (edge X Z), (path Z Y). "
                 "accept :- (path a e).\n")
    args = ["run", str(p), "--input", "", "--engine", "seminaive"]
    assert main(args + ["--budget", "1"]) == 2
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "accept"


def test_naive_budget_exit_code(tmp_path, capsys):
    # three productive T_P applications: p, then q, then accept
    p = tmp_path / "steps3.hodl"
    p.write_text("p a. q X :- (p X). accept :- (q a).\n")
    for args in (["run", str(p), "--engine", "naive"], ["model", str(p)]):
        assert main(args + ["--budget", "2"]) == 2
        assert capsys.readouterr().out == ""
        assert main(args + ["--budget", "3"]) == 0
        assert "accept" in capsys.readouterr().out


def test_run_trace_goes_to_stderr(tmp_path, capsys):
    p = tmp_path / "p.hodl"
    p.write_text("p a. accept :- (p a).\n")
    assert main(["run", str(p), "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "accept\n"
    assert "accept -> true" in captured.err


def test_crash_is_not_a_verdict(tmp_path, capsys):
    p = tmp_path / "deep.hodl"
    p.write_text("p " + "(" * 3000 + "a" + ")" * 3000 + ".\n")
    assert main(["check", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: RecursionError") and err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--d", "0"], "error: d must be >= 1"),
    (["--order", "0"], "error: order must be >= 1")],
    ids=["d0", "order0"])
def test_compile_tm_rejects_bad_parameters(parity_tm, flags, message, capsys):
    assert main(["compile-tm", parity_tm] + flags) == 3
    assert capsys.readouterr().err == message + "\n"


def test_crosscheck_rejects_order_0(parity_tm, capsys):
    assert main(["crosscheck", parity_tm, "--order", "0"]) == 3
    assert capsys.readouterr().err == "error: order must be >= 1\n"


def test_crosscheck_budget_exit_code(parity_tm, capsys):
    assert main(["crosscheck", parity_tm, "--order", "1", "--d", "2",
                 "--max-len", "1", "--budget", "1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_model_dump(tmp_path, capsys):
    p = tmp_path / "ex.hodl"
    p.write_text("p a. q R :- (R b).\n")
    assert main(["model", str(p)]) == 0
    out = capsys.readouterr().out
    assert "q = { {b} ; {a,b} }" in out


def test_compile_run_pipeline(parity_tm, tmp_path, capsys):
    out = str(tmp_path / "parity.hodl")
    assert main(["compile-tm", parity_tm, "--order", "1", "--d", "2",
                 "--out", out]) == 0
    assert main(["run", out, "--input", "aa", "--engine", "seminaive"]) == 0
    assert main(["run", out, "--input", "ab", "--engine", "seminaive"]) == 1


def test_naive_engine_hits_domain_cap_on_k2(parity_tm, tmp_path, capsys):
    out = str(tmp_path / "parity2.hodl")
    main(["compile-tm", parity_tm, "--order", "2", "--d", "1", "--out", out])
    assert main(["run", out, "--input", "ab", "--engine", "naive"]) == 3
    assert "E301" in capsys.readouterr().err


def test_tm_run_verdicts(parity_tm, capsys):
    assert main(["tm-run", parity_tm, "--input", "aa"]) == 0
    assert main(["tm-run", parity_tm, "--input", "a"]) == 1
    out = capsys.readouterr().out
    assert "accepted" in out and "rejected" in out


def test_crosscheck_first_order(parity_tm, tmp_path, capsys):
    csv_path = str(tmp_path / "rows.csv")
    code = main(["crosscheck", parity_tm, "--order", "1", "--d", "2",
                 "--max-len", "2", "--csv", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "7/7 agree" in out
    assert "steps (rounds)" in out
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 7
    assert all(r["agree"] == "true" for r in rows)
    assert all(r["steps_unit"] == "rounds" for r in rows)


def test_crosscheck_higher_order(tmp_path, capsys):
    p = tmp_path / "acc.tm"
    p.write_text(ACCEPT_ALL)
    code = main(["crosscheck", str(p), "--order", "2", "--d", "1",
                 "--max-len", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "7/7 agree" in out
    assert "steps (goal runs)" in out


def test_crosscheck_parallel_rows(parity_tm, capsys):
    code = main(["crosscheck", parity_tm, "--order", "1", "--d", "2",
                 "--max-len", "1", "--jobs", "2"])
    assert code == 0
    assert "3/3 agree" in capsys.readouterr().out


def test_crosscheck_left_edge_abort(tmp_path, capsys):
    p = tmp_path / "edge.tm"
    p.write_text("states: s0 yes\nstart: s0\ntrans: s0 a -> s0 left\n")
    code = main(["crosscheck", str(p), "--order", "1", "--d", "2",
                 "--max-len", "1"])
    assert code == 3
    assert "left" in capsys.readouterr().err


def test_error_exit_on_missing_file(capsys):
    assert main(["check", "/nonexistent/prog.hodl"]) == 3
