"""The traffic probe (``tests/traffic.py``) on three requests."""

import traffic

REQUESTS = [
    ("gordon", "--group", "2,1,2"),
    ("jack", "--group", "1,1,3", "--mu", "2,0,1", "--check-both"),
    ("verify", "--group", "2,1,2", "--max-deg", "2", "--suite", "relations"),
]


def test_three_requests_leave_the_parser_unreached():
    gaps = traffic.unreached(traffic.reach(REQUESTS))
    # no request parses a polynomial or a scalar, so parsing.py is listed,
    # whether another test imported it or not
    assert "parsing.py" in gaps
    assert "\nparsing.py: " in traffic.report(gaps)
    # cli.main ran, so some of cli.py's function-body lines were reached
    body = traffic.body_lines(traffic.SRC / "cli.py")
    missed = {line for line in body
              if any(a <= line <= b for a, b in gaps["cli.py"])}
    assert missed and missed < body
