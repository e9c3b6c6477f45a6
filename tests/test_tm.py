import pytest

from hodatalog.tm import (BLANK, MoveLeft, MoveRight, TmFormatError, Write,
                          parse_tm, sample_machine, tm_run)

LEFT_EDGE = """\
states: s0 yes
start: s0
trans: s0 a -> s0 left
"""

LOOPER = """\
states: s0 yes
start: s0
trans: s0 a -> s0 write a
"""


def test_parse_actions():
    m = sample_machine("accept_all")
    assert m.start == "s0"
    assert m.transitions[("s0", "a")] == Write("yes", "a")


def test_yes_loops_auto_completed():
    m = sample_machine("accept_all")
    for sym in ("a", "b", BLANK):
        assert m.transitions[("yes", sym)] == Write("yes", sym)


def test_parse_errors():
    with pytest.raises(TmFormatError):
        parse_tm("start: s0\n")  # missing states
    with pytest.raises(TmFormatError):
        parse_tm("states: s0 yes\nstart: s1\n")  # unknown start
    with pytest.raises(TmFormatError):
        parse_tm("states: s0\nstart: s0\n")  # no yes state
    with pytest.raises(TmFormatError):
        parse_tm("states: s0 yes\nstart: s0\nbogus: x\n")  # unknown key
    with pytest.raises(TmFormatError):
        parse_tm("states: s0 yes\nstart: s0\n"
                 "trans: s0 a -> yes right\ntrans: s0 a -> yes left\n")


def test_accept_all():
    m = sample_machine("accept_all")
    for w in ("", "a", "b", "ab", "bbbb"):
        assert tm_run(m, w, 100).accepted


def test_reject_all():
    m = sample_machine("reject_all")
    for w in ("", "a", "abab"):
        res = tm_run(m, w, 100)
        assert res.verdict == "rejected"
        assert res.steps_used == 0


def test_parity_oracle():
    m = sample_machine("parity")
    for w in ("", "a", "b", "aa", "ab", "aab", "abab", "babab"):
        want = w.count("a") % 2 == 0
        res = tm_run(m, w, 1000)
        assert res.accepted == want
        if want:
            assert res.steps_used == len(w) + 1


def test_out_of_steps():
    m = parse_tm(LOOPER)
    assert tm_run(m, "a", 10).verdict == "out_of_steps"


def test_left_edge_violation():
    m = parse_tm(LEFT_EDGE)
    res = tm_run(m, "a", 10)
    assert res.verdict == "left_edge_violation"


def test_accept_checked_before_budget():
    m = sample_machine("accept_all")
    res = tm_run(m, "a", 1)
    assert res.accepted and res.steps_used == 1


def test_move_actions():
    text = ("states: s0 s1 yes\nstart: s0\n"
            "trans: s0 a -> s1 right\ntrans: s1 b -> s0 left\n"
            "trans: s0 _ -> yes write _\n")
    m = parse_tm(text)
    assert m.transitions[("s0", "a")] == MoveRight("s1")
    assert m.transitions[("s1", "b")] == MoveLeft("s0")
    assert tm_run(m, "", 10).accepted
