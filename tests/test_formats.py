"""Text formats: .ine/.ext round trips, DOT output, JSON reports."""

import json
from fractions import Fraction

import pytest

from dantzigfig.formats import dump_report, write_dot, write_ext, write_ine
from dantzigfig.grlex_family import grlex_graph, grlex_hrep, grlex_vertices, make_grlex
from dantzigfig.polytope_core import HRep, VRep
from referees import FormatError, parse_ext, parse_ine

F = Fraction


GRLEX_222_INE = """H-representation
begin
 6 4 rational
 0 1 0 0
 0 0 1 0
 0 0 0 1
 50 -7 -8 -10
 20 -3 -3 -4
 6 -1 -1 -1
end
"""


def test_write_ine_frozen():
    assert write_ine(grlex_hrep(make_grlex((2, 2, 2)))) == GRLEX_222_INE


def test_ine_round_trip():
    h = grlex_hrep(make_grlex((2, 1, 3, 2)))
    back = parse_ine(write_ine(h))
    assert back.same_polytope_rows(h)


def test_parse_ine_scales_a_rational_row_to_integers():
    # x <= 1/2 is stored as 2x <= 1
    h = parse_ine("H-representation\nbegin\n 2 2 rational\n 1/2 -1\n 3 1\nend\n")
    assert h.rows() == [((2,), 1), ((-1,), 3)]
    assert all(type(a) is int for n, b in h.rows() for a in (*n, b))


def test_parse_ine_skips_comments_and_blanks():
    text = "* produced elsewhere\n\n" + GRLEX_222_INE + "\n* trailing note\n"
    h = parse_ine(text)
    assert h.same_polytope_rows(grlex_hrep(make_grlex((2, 2, 2))))


def test_parse_ine_errors():
    with pytest.raises(FormatError):
        parse_ine("V-representation\nbegin\n 0 3 rational\nend\n")
    with pytest.raises(FormatError):
        parse_ine("H-representation\n 1 2 rational\n 0 1\n")
    with pytest.raises(FormatError):
        parse_ine("H-representation\nbegin\n 1 3 rational\n 0 1\nend\n")
    with pytest.raises(FormatError):
        parse_ine("H-representation\nbegin\n 2 3 rational\n 0 1 0\nend\n")
    # end before begin, a size line that is not integers, an entry that is
    # not a number
    for bad in (
        "H-representation\nend\nbegin\n",
        "H-representation\nbegin\n 1.5 2 rational\n 0 1\nend\n",
        "H-representation\nbegin\n one 2 rational\n 0 1\nend\n",
        "H-representation\nbegin\n 1 2 rational\n 0 x\nend\n",
        "H-representation\nbegin\n 1 2 rational\n 1/0 1\nend\n",
    ):
        with pytest.raises(FormatError):
            parse_ine(bad)
        with pytest.raises(FormatError):
            parse_ext(bad.replace("H-", "V-"))


def test_ext_round_trip():
    v = grlex_vertices(make_grlex((2, 2, 2)))
    pts = parse_ext(write_ext(v))
    assert set(pts) == {coords for _, coords in v}


def test_parse_ext_rejects_rays():
    text = "V-representation\nbegin\n 1 3 rational\n 0 1 0\nend\n"
    with pytest.raises(FormatError):
        parse_ext(text)


def test_ext_preserves_rationals():
    v = VRep([("half", (0, 0))])
    text = write_ext(v).replace(" 1 0 0", " 1 1/2 0")
    assert parse_ext(text) == [(F(1, 2), 0)]


def test_write_dot():
    g = grlex_graph(make_grlex((2, 2, 2)))
    dot = write_dot(g)
    assert dot.startswith("graph G {")
    assert '"theta";' in dot
    assert dot.count("--") == g.edge_count()
    # undirected edges are not emitted twice; 0 and theta never share a
    # facet, so that pair must be absent
    assert '"0" -- "w";' in dot or '"w" -- "0";' in dot
    assert '"0" -- "theta";' not in dot and '"theta" -- "0";' not in dot


def test_dump_report_writes_fractions_and_refuses_the_rest():
    report = {"whole": F(4, 2), "ratio": F(3, 7), "negative": F(-1, 2)}
    assert json.loads(dump_report(report)) == {"whole": 2, "ratio": "3/7", "negative": "-1/2"}
    with pytest.raises(TypeError):
        dump_report({"set": {1, 2}})
    with pytest.raises(TypeError):
        dump_report({"rows": HRep([((1,), 1)])})


def test_dump_report_is_valid_json():
    report = {"value": F(7, 3), "witness": ("0", "u(3)"), "ok": True}
    parsed = json.loads(dump_report(report))
    assert parsed == {"value": "7/3", "witness": ["0", "u(3)"], "ok": True}
