"""Planar link diagrams as PD codes, with checkerboard and Goeritz machinery.

A crossing stores the four incident arc labels counterclockwise starting
from the incoming under-arc, plus the crossing sign.  With the strands
oriented, the under-strand occupies slots 0 (in) and 2 (out) and the
over-strand occupies slots 1 and 3; at a positive crossing slot 1 is the
incoming over-arc, at a negative crossing slot 3 is.

Faces are traced combinatorially from the counterclockwise slot order, so
a diagram built here carries its planar embedding with it.  The signature
comes from a checkerboard coloring: the Goeritz matrix of the white faces
corrected by the number and sign of crossings whose local orientation
matches their coloring type; the determinant of that same matrix is the
link determinant.  The sign conventions are pinned by the
anchor values sigma(right trefoil) = -2 and sigma(unknot) = 0.

For the quotient words of the certificates the checkerboard regions are
known from the word alone, and ``_quotient_tail_invariants`` eliminates
their Goeritz matrix in one streaming pass, with no diagram and no face
trace; any other braid word reads the diagram path,
``signature_and_determinant(braid_closure(w))``.
"""

from __future__ import annotations

import dataclasses
import itertools

from ._matrix import _exact, symmetric_inertia
from .braid import BraidWord, _check_integers, _check_size, _shown

__all__ = [
    "Crossing",
    "LinkDiagram",
    "GoeritzData",
    "braid_closure",
    "pretzel_diagram",
    "seifert_circle_count",
    "writhe",
    "component_count",
    "is_positive",
    "mirror",
    "faces",
    "goeritz",
    "signature_and_determinant",
    "determinant",
    "to_pd_text",
    "from_pd_text",
]


@dataclasses.dataclass(frozen=True)
class Crossing:
    """Arc labels counterclockwise from the incoming under-arc, and the sign."""

    arcs: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if type(self.arcs) is not tuple or len(self.arcs) != 4:
            raise ValueError("a crossing has a tuple of exactly four incident arcs")
        _check_integers("crossing arcs and signs", *self.arcs, self.sign)
        if self.sign not in (1, -1):
            raise ValueError(f"crossing sign must be +1 or -1, got {_shown(self.sign)}")


@dataclasses.dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram: crossings plus crossing-free circles."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self):
        _check_integers("free loop counts", self.free_loops)
        if self.free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        counts: dict[int, int] = {}
        for c in self.crossings:
            for a in c.arcs:
                counts[a] = counts.get(a, 0) + 1
        bad = tuple(a for a, k in counts.items() if k != 2)
        if bad:
            raise ValueError(f"every arc must occur exactly twice; offending arcs: {_shown(bad)}")


def _across(d: LinkDiagram) -> list[int]:
    """The stub table: stub 4c + k, slot k of crossing c, to the stub at
    the other end of its arc."""
    across = [0] * (4 * len(d.crossings))
    first: dict[int, int] = {}  # arc to its first stub
    s = 0
    for c in d.crossings:
        for a in c.arcs:
            t = first.setdefault(a, s)
            if t != s:
                across[s], across[t] = t, s
            s += 1
    return across


def _cycle_count(d: LinkDiagram, masks: list[int]) -> int:
    """Cycles of stubs that join stub s to s ^ masks[c] inside its crossing
    c and then run along the arc: mask 2 joins the through strands, 3 and
    1 the oriented smoothing of a positive and a negative crossing.  Free
    loops are not counted."""
    across = _across(d)
    seen = [False] * len(across)
    cycles = 0
    for start in range(len(across)):
        if not seen[start]:
            cycles += 1
            s = start
            while not seen[s]:
                t = s ^ masks[s >> 2]
                seen[s] = seen[t] = True
                s = across[t]
    return cycles


def braid_closure(w: BraidWord) -> LinkDiagram:
    """Trace the standard closure of a braid word, top to bottom.

    Strands are oriented downward; letter i gives a positive crossing where
    the strand entering from position i passes over the one from i+1.
    """
    n = w.strands
    current = list(range(n))
    next_arc = n
    raw: list[tuple[tuple[int, int, int, int], int]] = []
    for e in w.letters:
        i = abs(e) - 1
        a, b = current[i], current[i + 1]
        c, d = next_arc, next_arc + 1
        next_arc += 2
        if e > 0:
            raw.append(((b, a, c, d), 1))
        else:
            raw.append(((a, c, d, b), -1))
        current[i], current[i + 1] = c, d
    # Closing joins bottom arc current[pos] to top arc pos, and no other arc.
    closing = {current[pos]: pos for pos in range(n)}
    touched = {abs(e) - 1 for e in w.letters} | {abs(e) for e in w.letters}
    free_loops = sum(1 for pos in range(n) if pos not in touched)
    used_roots = sorted({closing.get(a, a) for arcs, _s in raw for a in arcs})
    relabel = {root: idx for idx, root in enumerate(used_roots)}
    crossings = tuple(
        Crossing(tuple(relabel[closing.get(a, a)] for a in arcs), s) for arcs, s in raw)
    return LinkDiagram(crossings, free_loops)


def pretzel_diagram(twists: list[int] | tuple[int, ...]) -> LinkDiagram:
    """Pretzel diagram: vertical twist regions of the given signed sizes,
    joined side by side and closed into a circle.

    In a region with positive count the strand running top-left to
    bottom-right passes over at each crossing; negative counts mirror that.
    More than braid.MAX_INPUT_LETTERS crossings are refused before any is built.
    """
    twists = tuple(twists)
    _check_integers("twist counts", *twists)
    if not twists or 0 in twists:
        raise ValueError("a pretzel needs one or more twist regions, none of count 0")
    _check_size("pretzel of", sum(map(abs, twists)), "crossings")
    # Crossings are numbered region by region, top to bottom; stub 4c + k
    # is corner k of crossing c, counterclockwise 0 TL, 1 BL, 2 BR, 3 TR,
    # and a strand passes straight through from corner k to k ^ 2.
    starts = list(itertools.accumulate(map(abs, twists), initial=0))
    tops = [4 * c for c in starts[:-1]]
    bottoms = [4 * c - 4 for c in starts[1:]]
    wires = []  # stub pairs, one per arc, in the order of the arc labels
    for i in range(len(twists)):
        for c in range(starts[i], starts[i + 1] - 1):
            wires += [(4 * c + 1, 4 * c + 4), (4 * c + 2, 4 * c + 7)]
    for i in range(len(twists)):
        j = (i + 1) % len(twists)
        wires += [(tops[i] + 3, tops[j]), (bottoms[i] + 2, bottoms[j] + 1)]
    label = [0] * (4 * starts[-1])
    across = [0] * (4 * starts[-1])
    for idx, (s, t) in enumerate(wires):
        label[s] = label[t] = idx
        across[s], across[t] = t, s
    incoming: list[bool | None] = [None] * len(across)
    for start in range(len(across)):
        s = start
        while incoming[s] is None:
            incoming[s], incoming[s ^ 2] = True, False
            s = across[s ^ 2]
    crossings = []
    for i, a in enumerate(twists):
        under = 1 if a > 0 else 0  # the under-strand's corners are under and under ^ 2
        for c in range(starts[i], starts[i + 1]):
            u = under if incoming[4 * c + under] else under ^ 2
            # Slot 1 is the incoming over-arc exactly at a positive crossing.
            sign = 1 if incoming[4 * c + (u + 1) % 4] else -1
            crossings.append(Crossing(tuple(label[4 * c + (u + k) % 4] for k in range(4)), sign))
    return LinkDiagram(tuple(crossings))


def writhe(d: LinkDiagram) -> int:
    return sum(c.sign for c in d.crossings)


def is_positive(d: LinkDiagram) -> bool:
    return all(c.sign == 1 for c in d.crossings)


def component_count(d: LinkDiagram) -> int:
    """Number of link components (through-strand tracing)."""
    return _cycle_count(d, [2] * len(d.crossings)) + d.free_loops


def seifert_circle_count(d: LinkDiagram) -> int:
    """Circles left by the orientation-respecting smoothing of every crossing."""
    return _cycle_count(d, [3 if c.sign == 1 else 1 for c in d.crossings]) + d.free_loops


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Swap over and under strands everywhere, keeping orientations."""
    out = []
    for c in d.crossings:
        a = c.arcs
        if c.sign == 1:
            out.append(Crossing((a[1], a[2], a[3], a[0]), -1))
        else:
            out.append(Crossing((a[3], a[0], a[1], a[2]), 1))
    return LinkDiagram(tuple(out), d.free_loops)


def _piece_count(d: LinkDiagram) -> int:
    """Connected pieces of the crossing graph, free loops not counted: the
    classes of crossings joined by an arc."""
    across = _across(d)
    seen = [False] * len(d.crossings)
    pieces = 0
    for start in range(len(seen)):
        if not seen[start]:
            pieces += 1
            stack = [start]
            while stack:
                c = stack.pop()
                if not seen[c]:
                    seen[c] = True
                    stack.extend(s >> 2 for s in across[4 * c:4 * c + 4])
    return pieces


def faces(d: LinkDiagram) -> list[list[tuple[int, int]]]:
    """Complementary regions of the diagram on the sphere.

    Each face is a cyclic list of corners (crossing, k), the quadrant
    between slots k and k+1.  Face tracing follows the arc leaving slot
    k+1 and continues at the landing slot's quadrant.
    """
    across = _across(d)
    seen = [False] * len(across)
    out: list[list[tuple[int, int]]] = []
    for start in range(len(across)):
        s = start
        face = []
        while not seen[s]:
            seen[s] = True
            face.append(divmod(s, 4))
            s = across[s + 1 if s & 3 != 3 else s - 3]
        if face:
            out.append(face)
    return out


@dataclasses.dataclass(frozen=True)
class GoeritzData:
    """Checkerboard data: the reduced white-face matrix (white face 0
    deleted; white is the smaller colour class) as sparse rows
    ``{i: {j: value}}`` of its nonzeros, one row per remaining white face,
    and the orientation correction term."""

    matrix: dict[int, dict[int, int]]
    correction: int


def goeritz(d: LinkDiagram) -> GoeritzData:
    """Goeritz matrix of the white faces and the signature correction term.

    White is the smaller colour class of the checkerboard coloring, class
    0 on a tie; the Gordon-Litherland formula holds for either checkerboard
    surface, so the smaller one gives the smaller matrix.  At each
    crossing the incidence sign is +1 when the white quadrants are the two
    flanking the over-strand, -1 otherwise; the correction adds the signs
    of the crossings whose crossing sign equals their incidence sign.  The
    rows are summed in one pass over the crossings; a diagram in more than
    one piece shows as faces the coloring does not reach.
    """
    if d.free_loops or not d.crossings:
        raise ValueError("Goeritz data needs a connected diagram with a crossing")
    face_list = faces(d)
    face_of: dict[tuple[int, int], int] = {}
    for fi, face in enumerate(face_list):
        for corner in face:
            face_of[corner] = fi
    colors: list[int | None] = [None] * len(face_list)
    colors[0] = 0
    queue = [0]
    while queue:
        fi = queue.pop()
        for ci, k in face_list[fi]:
            for neighbor_corner in ((ci, (k + 1) % 4), (ci, (k + 3) % 4)):
                nf = face_of[neighbor_corner]
                if colors[nf] is None:
                    colors[nf] = 1 - colors[fi]
                    queue.append(nf)
                elif colors[nf] == colors[fi]:
                    raise AssertionError("checkerboard coloring failed; embedding corrupt")
    if None in colors:
        raise ValueError("Goeritz data needs a connected diagram with a crossing")
    if len(face_list) != len(d.crossings) + 2:
        raise AssertionError("face count disagrees with Euler's formula; embedding corrupt")
    white_class = 0 if 2 * colors.count(0) <= len(colors) else 1
    white = [fi for fi, col in enumerate(colors) if col == white_class]
    # white face 0 gets index -1: its row and column are deleted
    white_index = {fi: wi - 1 for wi, fi in enumerate(white)}
    rows: dict[int, dict[int, int]] = {i: {} for i in range(len(white) - 1)}
    correction = 0
    for ci, c in enumerate(d.crossings):
        if colors[face_of[(ci, 1)]] == white_class:
            eta = 1
            white_corners = (1, 3)
        else:
            eta = -1
            white_corners = (0, 2)
        if c.sign == eta:
            correction += c.sign
        f1 = face_of[(ci, white_corners[0])]
        f2 = face_of[(ci, white_corners[1])]
        if f1 != f2:
            i, j = white_index[f1], white_index[f2]
            for x, y, v in ((i, i, eta), (j, j, eta), (i, j, -eta), (j, i, -eta)):
                if x >= 0 and y >= 0:
                    rows[x][y] = rows[x].get(y, 0) + v
    matrix = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    return GoeritzData(matrix=matrix, correction=correction)


def signature_and_determinant(d: LinkDiagram) -> tuple[int, int]:
    """Signature and determinant of the knot presented by the diagram, both
    read from one Goeritz matrix (Gordon-Litherland).  A knot's
    determinant is odd, so an even one is an AssertionError."""
    if component_count(d) != 1:
        raise ValueError("signature is only computed for single-component diagrams")
    if not d.crossings:
        return 0, 1
    data = goeritz(d)
    sig, det = symmetric_inertia(data.matrix)
    return sig - data.correction, _odd(det)


def _check_knot(letters: tuple[int, ...], strands: int):
    """ValueError unless the braid word closes to a knot: its strand
    permutation is one cycle."""
    at = list(range(strands))  # start position of the strand now at each position
    for e in letters:
        j = abs(e)
        at[j - 1], at[j] = at[j], at[j - 1]
    length, pos = 1, at[0]
    while pos != 0:
        length, pos = length + 1, at[pos]
    if length != len(at):
        raise ValueError("signature is only computed for braids closing to a knot")


def _odd(det: int) -> int:
    """|det| of a knot's Goeritz matrix, which is odd."""
    if det % 2 == 0:
        raise AssertionError("a knot has an even determinant")
    return abs(det)


def _eliminate(a: list[list[int]], live: list[int], held: list[int], free: list[int],
               d: int, sig: int) -> tuple[int, int]:
    """Bareiss-eliminate from the frontier a, d times the Schur complement
    of the eliminated block, the first slot of held with a nonzero pivot,
    moved from held and live to free, until none is left: each live entry
    becomes (a_pp a_ij - a_ip a_pj) / d, checked exact, upper triangle
    mirrored, and d becomes a_pp.  Returns d and the block's sigma."""
    while True:
        for p in held:
            if a[p][p]:
                break
        else:
            return d, sig
        held.remove(p)
        live.remove(p)
        free.append(p)
        prow = a[p]
        pivot = prow[p]
        sig += 1 if (pivot > 0) == (d > 0) else -1
        for n, i in enumerate(live):
            row = a[i]
            x = row[p]
            for j in live[n:]:
                if x or row[j]:  # else the entry stays 0
                    value, rest = divmod(pivot * row[j] - x * prow[j], d)
                    if rest:
                        raise AssertionError("Bareiss step left a remainder")
                    row[j] = a[j][i] = value
        d = pivot


def _add_slot(a: list[list[int]], live: list[int], i: int, j: int):
    """Add row j of the frontier a to row i, then column j to column i, over
    the live slots: a congruence, or, with slot j then dropped, i and j as one."""
    for s in live:
        a[i][s] += a[j][s]
    for s in live:
        a[s][i] += a[s][j]


def _frontier_inertia(f: list[list[int]], live: list[int], d: int, sig: int, tail: int
                      ) -> tuple[int, int, int]:
    """sigma(M'), det M' and det M, M' being M less the tail slot, where M
    has an eliminated block of determinant d and signature sig and f is d
    times its Schur complement on the live slots (both consumed).
    ``_eliminate`` takes the other slots with nonzero pivots; once none is
    left, det M' is the last d and the tail entry is det M.  When every
    pivot left is 0 but two such slots meet, the second is added to the
    first, a congruence of M' with pivot 2 a_ij != 0; when only zero rows
    of M' remain, det M' = 0, and det M is -b^2 / d for one row with tail
    entry b, 0 for more."""
    rest = [i for i in live if i != tail]
    while True:
        d, sig = _eliminate(f, live, rest, [], d, sig)
        if not rest:
            return sig, d, f[tail][tail]
        meet = next(((i, j) for i in rest for j in rest if f[i][j]), None)
        if meet is None:  # only zero rows of M' remain
            return sig, 0, _exact(-f[rest[0]][tail] ** 2, d) if len(rest) == 1 else 0
        _add_slot(f, live, *meet)


def _frontier_tails(f: list[list[int]], live: list[int], d: int, sig: int, tail: int,
                    tails: list[int]) -> list[tuple[int, int]]:
    """sigma(M_k) and |det M_k| for each k in tails, M_k being M of
    ``_frontier_inertia`` plus k on the tail diagonal: det M_k = det M +
    k det M', so sigma(M_k) = sigma(M') + sign(det M_k det M') (Sylvester;
    if det M' = 0, no eigenvalue crosses 0 while det M_k stays the same).
    A knot's determinant is odd, so an even one is an AssertionError."""
    sig_minor, det_minor, det_m = _frontier_inertia(f, live, d, sig, tail)
    values = []
    for k in tails:
        det_k = det_m + k * det_minor
        sign = (det_k * det_minor > 0) - (det_k * det_minor < 0)
        values.append((sig_minor + sign, _odd(det_k)))
    return values


def _quotient_tail_invariants(powers: list[int], middle: int, tails: list[int]
                              ) -> list[list[tuple[int, int]]]:
    """Signature and determinant of the knot closing A^j B^middle s1^k,
    A = s2 s3 s1 s2 and B = s2 s3^2 s2, for each block power j >= 1 in
    the ascending list powers, then each tail k >= 0 in tails, from one
    pass over the blocks of the rotation B^middle s1^k A^j (same closure).

    White is the even class: column 0 is the deleted region, column 4 a
    hub, and column 2 one region per s2.  A block is read in three steps:
    its first s2, its two middle letters as one diagonal update (+2d on
    the current region; +2d on the hub and -2d between them for B's s3
    s3, +d and -d for A's s3 s1), and its last s2.  The frontier keeps
    the regions not yet eliminated: the wrap region (before the first s2,
    so after the last), the tail region (where each tail letter adds 1 to
    the diagonal and to the correction), the hub, the current region, and
    any complete region whose pivot is still zero.  Every other region
    goes by ``_eliminate`` once its closing s2 has passed.  The frontier
    is a dense symmetric table of D times the Schur complement, D the
    determinant of the eliminated block, indexed by slot: the wrap region
    and the hub hold slots 0 and 1, and every other region takes a freed
    slot, cleared, or a new one.

    After j blocks a copy of the frontier closes: the current region
    merges into the wrap region, and ``_frontier_tails`` finishes the
    elimination with the same Bareiss step, the tail region last.
    ValueError for a tail that closes to a link.
    """
    # A^2 and B are pure braids, so the closure's strand permutation is
    # that of A^(j mod 2) s1^(k mod 2).
    for j, k in {(j % 2, k % 2) for j in powers for k in tails}:
        _check_knot((2, 3, 1, 2) * j + (1,) * k, 4)
    wrap, hub, tail = 0, 1, None
    a = [[0, 0], [0, 0]]  # the frontier times d, by slot
    live, free = [wrap, hub], []  # slots of regions in the frontier; slots to reuse
    d = 1  # the determinant of the eliminated block
    sig = 0  # sigma of the eliminated block; the correction is 2 a block, 1 a tail letter
    cur, held = wrap, []  # held: complete regions not yet eliminated

    out = []
    closings = {middle + j for j in powers}
    for count, h in enumerate((2,) * middle + (1,) * powers[-1], 1):
        for opening in (True, False):
            # An s2: a new region starts; the one it ends is complete, and
            # goes once its pivot is nonzero unless the closing needs it.
            if free:
                new = free.pop()
                for i in live:
                    a[new][i] = a[i][new] = 0
            else:
                new = len(a)
                for r in a:
                    r.append(0)
                a.append([0] * (new + 1))
            live.append(new)
            row = a[cur]
            row[cur] -= d
            a[new][new] = -d
            row[new] = a[new][cur] = d
            if cur != wrap and cur != tail:
                held.append(cur)
            cur = new
            d, sig = _eliminate(a, live, held, free, d, sig)
            if opening:  # the middle letters: s3 s3 (h = 2) or s3 s1 (h = 1)
                row = a[cur]
                row[cur] += 2 * d
                a[hub][hub] += h * d
                row[hub] = a[hub][cur] = row[hub] - h * d
        if count == middle:  # B^middle is read: the current region holds the tail
            tail = cur
        elif count in closings:  # close a copy: the current region is the wrap region
            f = [row[:] for row in a]
            _add_slot(f, live, wrap, cur)
            values = _frontier_tails(f, [i for i in live if i != cur], d, sig, tail, tails)
            out.append([(s - 2 * count - k, det) for (s, det), k in zip(values, tails)])
    return out


def determinant(d: LinkDiagram) -> int:
    """Link determinant, the order (or 0) of the first homology of the
    double branched cover."""
    if not d.crossings:
        return 1 if d.free_loops == 1 else 0
    if d.free_loops or _piece_count(d) != 1:
        return 0
    return abs(symmetric_inertia(goeritz(d).matrix)[1])


def to_pd_text(d: LinkDiagram) -> str:
    """One crossing per line: X a b c d s with s in {+, -}."""
    if d.free_loops:
        raise ValueError("crossing-free circles have no PD representation")
    lines = []
    for c in d.crossings:
        s = "+" if c.sign == 1 else "-"
        lines.append("X " + " ".join(str(a) for a in c.arcs) + f" {s}")
    return "\n".join(lines) + ("\n" if lines else "")


def from_pd_text(text: str) -> LinkDiagram:
    """Parse the X-line format produced by to_pd_text."""
    crossings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "X" or len(parts) != 6:
            raise ValueError(f"line {lineno}: expected 'X a b c d s', got {_shown(line)}")
        try:
            arcs = tuple(int(tok) for tok in parts[1:5])
        except ValueError:
            raise ValueError(f"line {lineno}: arc labels must be integers") from None
        if parts[5] not in ("+", "-"):
            raise ValueError(f"line {lineno}: sign must be '+' or '-', got {_shown(parts[5])}")
        crossings.append(Crossing(arcs, 1 if parts[5] == "+" else -1))
    d = LinkDiagram(tuple(crossings))
    # Each piece drawn on its own sphere has V + 2 faces; fewer means the
    # slot order does not describe a planar embedding.
    if len(faces(d)) != len(d.crossings) + 2 * _piece_count(d):
        raise ValueError("PD code is not planar: face count fails Euler's formula")
    # An oriented arc leaves one crossing and enters another.  There are as
    # many leaving slots as arcs, so no arc may fill two of them.
    leaving = [a for c in d.crossings for a in (c.arcs[2], c.arcs[3 if c.sign == 1 else 1])]
    if len(set(leaving)) != len(leaving):
        raise ValueError("PD code is not oriented: some arc leaves two crossings")
    return d
