"""Referees that only the tests read: the cdd text parsers, which read back
what `formats.write_ine` / `write_ext` print, and the adjacency test that
takes a rank on every pair the facet masks leave, which
`polytope_core._adjacent` does without on a certified-complete vertex
list."""

from fractions import Fraction

from dantzigfig.exactmath import rank_of_rows
from dantzigfig.polytope_core import HRep, IncidenceMatrix


class FormatError(ValueError):
    """Malformed .ine/.ext input."""


def _token_blocks(text: str, expected_header: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    if not lines or lines[0] != expected_header:
        raise FormatError(f"missing {expected_header!r} header")
    try:
        begin = lines.index("begin")
        end = lines.index("end")
    except ValueError as exc:
        raise FormatError("missing begin/end") from exc
    if end < begin:
        raise FormatError("end before begin")
    try:
        m, cols = map(int, lines[begin + 1].split()[:2])
    except ValueError as exc:  # also fewer than two entries
        raise FormatError(f"malformed size line {lines[begin + 1]!r}") from exc
    rows = []
    for ln in lines[begin + 2 : end]:
        toks = ln.split()
        if len(toks) != cols:
            raise FormatError(f"expected {cols} entries per row, got {len(toks)}")
        try:
            rows.append([Fraction(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a number in row {ln!r}") from exc
    if len(rows) != m:
        raise FormatError(f"expected {m} rows, got {len(rows)}")
    return rows


def parse_ine(text: str) -> HRep:
    """The HRep of a cdd .ine text: a row "b -a1 ... -ad" is a.x <= b."""
    rows = _token_blocks(text, "H-representation")
    pairs = [([-a for a in row[1:]], row[0]) for row in rows]
    return HRep(pairs)


def parse_ext(text: str) -> list[tuple]:
    """The points of a cdd .ext text, ints where integral; rays raise."""
    rows = _token_blocks(text, "V-representation")
    points = []
    for row in rows:
        if row[0] != 1:
            raise FormatError("rays are not supported, leading entry must be 1")
        points.append(tuple(int(c) if c.denominator == 1 else c for c in row[1:]))
    return points


def mask_survivor(inc: IncidenceMatrix, i: int, j: int) -> bool:
    """Whether no third vertex is on every row tight at both i and j."""
    common = inc.vertex_masks[i] & inc.vertex_masks[j]
    shared = (1 << len(inc.labels)) - 1
    for f, fm in enumerate(inc.facet_masks):
        if common >> f & 1:
            shared &= fm
    return shared == 1 << i | 1 << j


def adjacent_by_rank(h: HRep, inc: IncidenceMatrix, i: int, j: int) -> bool:
    """Vertices i and j span an edge iff at least d-1 rows are tight at
    both, no third vertex is on all of them, and their normals have rank
    d-1: the rank is taken on every pair the masks leave."""
    common = inc.vertex_masks[i] & inc.vertex_masks[j]
    if common.bit_count() < h.dim - 1 or not mask_survivor(inc, i, j):
        return False
    return rank_of_rows([n for f, n in enumerate(h.normals) if common >> f & 1]) == h.dim - 1


def adjacency_by_rank(h: HRep, inc: IncidenceMatrix) -> list[tuple]:
    """`adjacency_from_incidence` with `adjacent_by_rank` as its pair test."""
    n = len(inc.labels)
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if adjacent_by_rank(h, inc, i, j)
    ]
