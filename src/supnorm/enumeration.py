"""Exact enumeration of modular-group elements by displacement, and the
direct series evaluations built on it.

The ball {gamma : sigma(z, gamma z) <= R} is enumerated over the bottom-row
entry c.  Expanding 4 y^2 (sigma - 1) = |c z^2 + (d-a) z - b|^2 and
discarding nonnegative squares gives sigma >= |c z + d|^2 / 4 + 1/2, so c and
then d run over finite ranges.  Row c = 0 is the translation coset of the
identity, and sigma(z, z + n) = 1 + n^2 / (4 y^2) gives its range of n in
closed form.  For c >= 1 each coprime (c, d) is one coset T^n gamma_0 of the
translations T, and with s = Re(z - gamma_0 z) and v = Im gamma_0 z,
    sigma(z, gamma_0 z + n) = 1 + ((s - n)^2 + (y - v)^2) / (4 y v)
(cosh d(z, w) = 1 + |z - w|^2 / (2 Im z Im w); Beardon, The Geometry of
Discrete Groups, ch. 7), which confines n to an interval around s and gives
each element's displacement from its coset's s and v.  Coprimality and
d^-1 mod c depend only on c and d mod c, so they come from one process-wide
table of every residue of every modulus up to the largest row needed so far,
each new row filled from the rows below it by one Euclid step.  An element
with c >= 1 and its inverse lie in the same row with the same displacement
and opposite traces, so only the elements with trace a + d >= 0 are
enumerated, each with the number of ball elements it stands for.  The rows
of one or many balls go in one row array, each row carrying its ball, and
in blocks of whole rows with a fixed cap on their (c, d) candidates; each
block is one array pass reading the table: coset bases, their images, shift
intervals from the trace >= 0 on, and the elements' shifts and
displacements, cut at their ball's R.  A block of one ball reads its z and R
as scalars, a block of several per coset.  The entry identity (_sigma_batch)
gives row 0 and decides the elements within a rounding band of R.  _scan
builds the entries for enumerate_ball and is the one whole-ball array;
ball_counts counts many balls in one pass, the other checks sum or repeat
the _blocks of one, and _translation_sums both translation sums, at most
_BLOCK shifts an array.  A raw entry-bounded search stays in the test suite
as the oracle for this enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EffectiveConstants, poincare_bound_compact
from .geometry import require_point

__all__ = [
    "VerificationFailure",
    "IntegerMoebius",
    "enumerate_ball",
    "displacement_values",
    "ball_counts",
    "CountingCheck",
    "counting_check",
    "PoincareCheck",
    "poincare_direct",
    "parabolic_direct",
]


class VerificationFailure(AssertionError):
    """A direct numerical check contradicted a claimed bound."""


@dataclass(frozen=True)
class IntegerMoebius:
    """Integer matrix of determinant one, sign-normalized for PSL(2,Z).

    The canonical representative makes the first nonzero entry among
    (c, d, a, b) positive.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"integer matrix determinant must be 1, got {det}")
        for entry in (self.c, self.d, self.a, self.b):
            if entry != 0:
                if entry < 0:
                    object.__setattr__(self, "a", -self.a)
                    object.__setattr__(self, "b", -self.b)
                    object.__setattr__(self, "c", -self.c)
                    object.__setattr__(self, "d", -self.d)
                break

    def apply(self, z: complex) -> complex:
        z = require_point(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


#: Most (c, d) candidates one array pass takes, or shifts one translation chunk,
#: which bounds their arrays.  A row has at most about 4 sqrt(R) candidates, so
#: only above R = 1.05e6 can it be longer than the cap, and a pass of its own.
_BLOCK = 4096

#: (C, inverse, coprime): d^-1 mod c and gcd(d, c) == 1 for each residue d
#: of each modulus c <= C, at index c (c - 1) / 2 + d.  Empty at import.
_TABLE = (0, np.zeros(0, np.int64), np.zeros(0, bool))


def _sigma_batch(a, b, c, d, z: complex) -> np.ndarray:
    """Displacement via 4 y^2 (sigma - 1) = |c z^2 + (d - a) z - b|^2, in real parts.

    a, b, c, d are integers or integer arrays, read only as c, d - a and b,
    so an element and its inverse (-d, b, c, -a) get the same bits.  It
    gives _max_shift, _scan's row 0 and _translation_sums their values, and
    the blocks the values of the elements in the band at R (see _shifts);
    every other element takes its coset's form.  The raw-entry test oracle
    evaluates the same identity in complex arithmetic.
    """
    x, y = z.real, z.imag
    e = d - a
    re = c * (x * x - y * y) + e * x - b
    im = y * (2.0 * c * x + e)
    return 1.0 + (re * re + im * im) / (4.0 * y * y)


def _padded_rows(y: float, R: float) -> tuple[float, int]:
    """(pad, last): R padded against rounding, and the last row c of its ball at height y.

    sigma >= c^2 y^2 / 4 + 1/2 bounds c by sqrt(4 pad - 2) / y.  Raises
    ValueError at 2^32 rows or more, where the table index c (c - 1) / 2
    leaves int64.
    """
    pad = R * (1.0 + 1e-9) + 1e-9
    last = math.sqrt(max(4.0 * pad - 2.0, 0.0)) / y
    if last >= 2**32:
        raise ValueError(f"Im z = {y} is too small for R = {R}: 2^32 rows or more")
    return pad, math.floor(last)


def _max_shift(z: complex, R: float) -> int:
    """Largest n >= 0 with sigma(z, z + n) <= R, or -1 when R < 1.

    On (1, n, 0, 1) _sigma_batch evaluates 1 + n^2 / (4 y^2), which is
    monotone in |n| in floating point, so its values at the estimate
    floor(2 y sqrt(R - 1)) and one above it settle the exact cut.  Every
    ball starts here, so R not finite, 4 y^2 = 0, or the 2^32 rows that
    _padded_rows refuses raise ValueError before the residue table grows.
    """
    if not math.isfinite(R):
        raise ValueError(f"ball radius R must be finite, got R = {R}")
    if 4.0 * z.imag * z.imag == 0.0:
        raise ValueError(f"Im z = {z.imag} is too small: 4 (Im z)^2 underflows to 0")
    _padded_rows(z.imag, R)
    if R < 1.0:
        return -1
    n = math.floor(2.0 * z.imag * math.sqrt(R - 1.0))
    if _sigma_batch(1, n + 1, 0, 1, z) <= R:
        return n + 1
    return n if _sigma_batch(1, n, 0, 1, z) <= R else n - 1


def _translation_sums(z: complex, power: float, m: int) -> list:
    """2 np.sum(sigma(z, z + n)^power) over each run of at most _BLOCK shifts n in 1..m."""
    return [2.0 * np.sum(_sigma_batch(1, np.arange(lo, min(lo + _BLOCK, m + 1)), 0, 1, z) ** power)
            for lo in range(1, m + 1, _BLOCK)]


def _runs(first, sizes):
    """The integers of the runs first[i] + [0, sizes[i]), run after run."""
    values = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
    values += np.arange(len(values))
    return values


def _residues(C: int):
    """_TABLE, first grown to the moduli up to C if short.

    Each missing row c is one Euclid step c = q d + (c mod d) on the rows
    below it, for its residues d = 1, ..., c - 1, reading row d's entry at
    d (d - 1) / 2 + c mod d:
    - gcd(d, c) = gcd(c mod d, d), so coprime copies that entry;
    - its inverse u is c^-1 mod d, so d divides 1 - c u, and
      d^-1 mod c = (1 - c u) / d mod c is an exact division.
    The residue 0 is coprime only to c = 1, where its inverse is 0.  An
    inverse where coprime is False means nothing.  The rows go into new
    arrays, bound in one assignment, so a concurrent call keeps reading its
    own snapshot.
    """
    global _TABLE
    table = _TABLE
    if table[0] < C:
        size = C * (C + 1) // 2
        inverse = np.zeros(size, np.int64)
        coprime = np.zeros(size, bool)
        inverse[:len(table[1])] = table[1]
        coprime[:len(table[2])] = table[2]
        coprime[0] = True  # the residue 0 of c = 1
        for c in range(max(table[0] + 1, 2), C + 1):
            d = np.arange(1, c)
            source = d * (d - 1) // 2 + c % d
            row = slice(c * (c - 1) // 2 + 1, c * (c + 1) // 2)
            coprime[row] = coprime[source]
            inverse[row] = (1 - c * inverse[source]) // d % c
        _TABLE = table = (C, inverse, coprime)
    return table


def _images(z: complex, a0, c, d):
    """(s, v) = (Re(z - gamma_0 z), Im gamma_0 z) for coset bases (a0, *, c, d) with c >= 1.

    From gamma_0 z = a0 / c - 1 / (c (c z + d)) and |c z + d|^2 = norm.
    """
    x, y = z.real, z.imag
    t = c * x + d
    norm = t * t + (c * y) ** 2
    return x - a0 / c + t / (c * norm), y / norm


def _at(values, i):
    """values[i] of an array with one entry per coset or element; a one-ball scalar as is."""
    return values[i] if isinstance(values, np.ndarray) else values


def _shifts(z, R, a0, c, d, s, v, lo, counts):
    """(counts, n, sigmas) of the shifts T^n gamma_0 of the cosets with sigma <= R.

    Coset i has base (a0, *, c, d)[i], image (s, v)[i] from _images and
    shifts n in lo[i] + [0, counts[i]); the counts returned are those of the
    shifts kept, and n and sigmas run coset after coset.  z and R are
    scalars when the cosets belong to one ball, else arrays with the entries
    of each coset's ball.  Each element w = gamma_0 z + n takes its sigma
    from its coset's image,
        sigma = 1 + ((s - n)^2 + (y - v)^2) / (4 y v),
    the identity cosh d(z, w) = 1 + |z - w|^2 / (2 y v) with
    sigma = cosh^2(d / 2): three coset arrays repeated and five operations
    per element, and no entries.

    Rounding, with u = 2^-53, and y and R those of the element's ball.  s
    and v come from a few roundings of numbers of size at most about 1, so
    s is off by a few u and v by a few u of itself.  In
    4 y v sigma = 4 y v + (s - n)^2 + (y - v)^2 an error e in s
    moves (s - n)^2 by 2 e |s - n| <= 2 e sqrt(4 y v sigma), and as
    sigma >= (y + v)^2 / (4 y v) >= y / (4 v), that is at most 2 e / y of
    4 y v sigma, whatever R is.  _sigma_batch's real and imaginary parts are
    short sums of terms the size of the entries, about sqrt(sigma), against
    a modulus 2 y sqrt(sigma - 1), so its value is also within a few dozen u
    of sigma.  Measured, the two are within 9.8e-16 relative of each other
    over the trace >= 0 halves of whole balls at R = 1e4 and 1.1e-15 at
    R = 1e5, and the tests hold them to 1e-14.  So an element whose coset
    value lies more than 1e-12 R from R, about 900 times that, is on the
    same side of R in both; the band is per ball.  In that band the coset
    form alone would split ties sigma = R (at z = i, R = 5 it drops 2
    elements of the half, and so 4 of the closed ball), so there
    _sigma_batch is evaluated on the element's entries, decides the cut and
    is the value kept: the cut is the one the entry identity makes on every
    element.
    """
    y = z.imag
    n = _runs(lo, counts)
    sigmas = np.repeat(s, counts) - n
    sigmas *= sigmas
    sigmas += np.repeat((y - v) ** 2, counts)
    sigmas /= np.repeat(4.0 * y * v, counts)
    sigmas += 1.0
    if isinstance(R, np.ndarray):
        R = np.repeat(R, counts)
    width = 1e-12 * R
    high = np.flatnonzero(sigmas > R - width)
    if len(high):
        ends = np.cumsum(counts)
        band = high[sigmas[high] <= _at(R + width, high)]
        i = np.searchsorted(ends, band, "right")
        a = a0[i] + n[band] * c[i]
        sigmas[band] = _sigma_batch(a, (a * d[i] - 1) // c[i], c[i], d[i], _at(z, i))
        out = high[sigmas[high] > _at(R, high)]
        if len(out):
            counts = counts - np.bincount(np.searchsorted(ends, out, "right"),
                                          minlength=len(counts))
            n, sigmas = np.delete(n, out), np.delete(sigmas, out)
    return counts, n, sigmas


def _block(z, pad, R, ball, c, first, sizes, inverse, coprime):
    """(ball, a0, c, d, counts, n, sigmas, mult) of the trace >= 0 half of rows c, d in first + [0, sizes).

    Rows of one ball take its point z, padded radius pad, radius R and index
    ball as scalars.  Rows of several balls take z, pad and R as arrays over
    the balls and ball as an array per row, and only then does each coset
    gather its ball's entries; numpy broadcasting runs the same arithmetic
    on both.  inverse and coprime are the residue table's, read at
    c (c - 1) / 2 + d mod c, the offset taken once per row.  The coprime
    (c, d) get their coset bases gamma_0 (a0 = d^-1 mod c) and images, and
    the padded necessary condition sigma <= pad, its discriminant clipped
    at zero, leaves the shifts n of T^n gamma_0 in [lo, hi].  _shifts cuts
    them at R, rounding band included.  The elements come in ascending c,
    then d, then shift; (a0, c, d) are per coset, with counts[i] shifts
    each, and n, sigmas and mult per element.  ball is the scalar given or
    the ball of each coset.

    Pairs.  For c >= 1 the inverse of (a, b, c, d) is (-d, b, c, -a) after
    sign normalization: the same row, trace -(a + d) and the same sigma.
    _sigma_batch reads only c, d - a and b, which the two share, so their
    entry values agree bit for bit and the band at R decides both alike.  So
    the block keeps the elements with trace a + d >= 0, and the ball is
    those and the inverses of those with trace > 0; the trace-0 elements,
    the involutions, are their own inverses.  mult, all the consumers read
    of this, is the number of ball elements each kept element stands for:
    2.0 for trace > 0, 1.0 for an involution.  Shift n of coset (c, d) has
    trace a0 + d + n c, which is >= 0 for n >= n0 = -floor((a0 + d) / c);
    at n0 the trace is (a0 + d) mod c, so a trace-0 element exists only
    where c divides a0 + d, and it is kept exactly when the coset's first
    kept shift is n0, every kept shift being at least lo >= n0.
    """
    d = _runs(first, sizes)
    pick = np.repeat(c * (c - 1) // 2, sizes)
    c = np.repeat(c, sizes)
    pick += d % c
    keep = coprime[pick]
    a0, c, d = inverse[pick[keep]], c[keep], d[keep]
    if isinstance(ball, np.ndarray):
        ball = np.repeat(ball, sizes)[keep]
        z, pad, R = z[ball], pad[ball], R[ball]
    s, v = _images(z, a0, c, d)
    y = z.imag
    spread = np.sqrt(np.maximum(4.0 * pad * y * v - (y + v) ** 2, 0.0))
    n0, trace = np.divmod(a0 + d, c)
    n0 = -n0
    lo = np.maximum(np.ceil(s - spread).astype(np.int64), n0)
    counts = np.maximum(np.floor(s + spread).astype(np.int64) - lo + 1, 0)
    counts, n, sigmas = _shifts(z, R, a0, c, d, s, v, lo, counts)
    mult = np.full(len(n), 2.0)
    pairs = np.flatnonzero((trace == 0) & (counts > 0))
    if len(pairs):
        starts = np.cumsum(counts)[pairs] - counts[pairs]
        mult[starts[n[starts] == n0[pairs]]] = 1.0
    return ball, a0, c, d, counts, n, sigmas, mult


def _chunks(sizes, cap: int):
    """(start, stop) of consecutive runs of sizes summing to at most cap, or of one size."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        stop = max(int(np.searchsorted(ends, ends[start] - sizes[start] + cap, "right")),
                   start + 1)
        yield start, stop
        start = stop


def _blocks(points, radii):
    """Yield the _block of each run of whole rows c >= 1 with at most _BLOCK candidates.

    The balls are the pairs (points[j], radii[j]), and the rows of all of
    them go in one row array, ball after ball, each row carrying its ball
    index j; a block may hold the rows of several balls, and a long ball
    spans several blocks.  A block of one ball's rows gets that ball's z,
    pad, R and j as scalars, and so does every row of a single ball; a block
    of several gets them as arrays over the balls, with j per row (see
    _block).  The points are require_point's.  The candidates d of row c
    come from sigma >= |c z + d|^2 / 4 + 1/2, padded; every block reads the
    residue table, grown to the last row first.  A row longer than the cap
    is a block of its own.  Each block holds the half of its rows with
    trace >= 0 (see _block), so the candidates start at a column bound.
    With p = c x + d, q = c x - a and C = c^2 y^2, multiplying out
    c (c z^2 + (d - a) z - b) = (c z - a)(c z + d) + 1 gives
        4 C (sigma - 1) = (p q + 1 - C)^2 + C (p + q)^2.
    Trace >= 0 is q <= p.  For p < 0 the right side decreases in q on
    q <= p, its minimum lying at q = -p / (p^2 + C) > 0, so it is at least
    its value at q = p, (p^2 + 1 + C)^2 - 4 C, and sigma <= R forces
    p^2 <= 2 c y sqrt(R) - 1 - C.  Row c's candidates start there, the
    radius padded and the bound capped by the spread above.
    """
    pads, lasts = [], []
    for z, R in zip(points, radii, strict=True):
        pad, last = _padded_rows(z.imag, R)
        pads.append(pad)
        lasts.append(last)
    if len(points) == 1:
        z, pad, R, ball = points[0], pads[0], radii[0], 0
        rows = np.arange(1, lasts[0] + 1)
    else:
        z, pad, R = np.array(points, complex), np.array(pads), np.array(radii, float)
        ball = np.repeat(np.arange(len(points)), lasts)
        rows = _runs(np.ones(len(points), np.int64), np.array(lasts, np.int64))
    x, y, row_pad = _at(z.real, ball), _at(z.imag, ball), _at(pad, ball)
    cy = rows * y
    spread = np.sqrt(np.maximum(4.0 * row_pad - 2.0 - cy * cy, 0.0))
    column = np.sqrt(np.maximum((2.0 * np.sqrt(row_pad) - cy) * cy - 1.0, 0.0))
    first = np.ceil(-rows * x - np.minimum(column, spread)).astype(np.int64)
    sizes = np.maximum(np.floor(-rows * x + spread).astype(np.int64) - first + 1, 0)
    _, inverse, coprime = _residues(max(lasts, default=0))
    for start, stop in _chunks(sizes, _BLOCK):
        block = slice(start, stop)
        j = _at(ball, start)
        if j == _at(ball, stop - 1):
            one = points[j], pads[j], radii[j], int(j)
        else:
            one = z, pad, R, ball[block]
        yield _block(*one, rows[block], first[block], sizes[block], inverse, coprime)


def _scan(z: complex, R: float):
    """Yield (a, b, c, d, sigmas) over the ball: row 0, then per block its half and their inverses.

    The one place that builds a whole ball, entries included, for
    enumerate_ball: row 0 is T^n for |n| up to _max_shift, ascending.  Each
    of the _blocks gives its elements with trace >= 0, with a = a0 + n c and b = (a d - 1) / c, an
    exact division, and then the inverses (-d, b, c, -a) of those of mult
    2.0 in the same order with the same sigmas.
    """
    z = require_point(z)
    m = _max_shift(z, R)
    n = np.arange(-m, m + 1)
    ones = np.ones_like(n)
    yield ones, n, np.zeros_like(n), ones, _sigma_batch(1, n, 0, 1, z)
    for _, a0, c, d, counts, n, sigmas, mult in _blocks([z], [R]):
        c, d = np.repeat(c, counts), np.repeat(d, counts)
        a = np.repeat(a0, counts) + n * c
        b = (a * d - 1) // c
        yield a, b, c, d, sigmas
        mirror = mult == 2.0
        yield -d[mirror], b[mirror], c[mirror], -a[mirror], sigmas[mirror]


def enumerate_ball(z: complex, R: float) -> list[IntegerMoebius]:
    """All modular-group elements with displacement(z, gamma z) <= R, in _scan's order.

    That is the translations T^n, n ascending, then block by block the
    elements with c >= 1 and trace a + d >= 0 (ascending c, then d, then a),
    each block followed by the inverses _scan adds.
    Returns the empty list for R < 1 (the displacement never drops below 1).
    """
    return [
        IntegerMoebius(*entries)
        for a, b, c, d, _ in _scan(z, R)
        for entries in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())
    ]


def displacement_values(z: complex, R: float) -> np.ndarray:
    """Displacements sigma(z, gamma z) <= R over the ball without the identity, sorted.

    Row 0's sigmas for |n| up to _max_shift, and each of the _blocks'
    sigmas repeated mult times, sorted, less the first: the identity's 1.0,
    the least displacement there is.  No entries are built.  A view for the
    tests and tracing.
    """
    z = require_point(z)
    m = _max_shift(z, R)
    parts = [_sigma_batch(1, np.arange(-m, m + 1), 0, 1, z)]
    parts += [np.repeat(sigmas, mult.astype(np.int64)) for *_, sigmas, mult in _blocks([z], [R])]
    values = np.concatenate(parts)
    values.sort()
    return values[1:]


def ball_counts(points, radii) -> list[int]:
    """Exact size of each ball {gamma : sigma(z, gamma z) <= R}, z and R taken pairwise.

    Row 0 of each ball is counted in closed form by _max_shift, so no array
    of its translations is built, however high z is.  The other rows of all
    the balls go through the _blocks together, and each ball adds up the
    mult of its elements: np.bincount over a block of several balls, a sum
    over a block of one.  Every point and radius is checked, by _max_shift,
    before the residue table grows.
    """
    points = [require_point(z) for z in points]
    total = [max(2 * _max_shift(z, R) + 1, 0) for z, R in zip(points, radii, strict=True)]
    for ball, *_, counts, _, _, mult in _blocks(points, radii):
        if isinstance(ball, np.ndarray):
            weights = np.bincount(np.repeat(ball, counts), mult, len(total)).tolist()
            total = [t + int(w) for t, w in zip(total, weights)]
        else:
            total[ball] += int(mult.sum())
    return total


@dataclass(frozen=True)
class CountingCheck:
    count: int
    bound: float


def _checked_count(z: complex, r: float, count: int,
                   constants: EffectiveConstants) -> CountingCheck:
    """count against the counting bound 4 pi B_Y r; raises VerificationFailure above it."""
    bound = 4.0 * math.pi * constants.B_Y * r
    if count > bound:
        raise VerificationFailure(
            f"ball count {count} exceeds counting bound {bound:.6g} at z={z}, r={r}"
        )
    return CountingCheck(count=count, bound=bound)


def counting_check(z: complex, r: float, constants: EffectiveConstants) -> CountingCheck:
    """Compare the exact ball count (ball_counts) against the counting bound 4 pi B_Y r.

    Valid for z in the truncated region the constants were computed on;
    raises VerificationFailure when the enumeration exceeds the bound.
    """
    z = require_point(z)
    return _checked_count(z, r, ball_counts([z], [r])[0], constants)


@dataclass(frozen=True)
class PoincareCheck:
    partial: float
    tail_bound: float
    series_bound: float


def poincare_direct(
    z: complex,
    k: int,
    eps: float,
    R_cut: float,
    constants: EffectiveConstants,
) -> PoincareCheck:
    """Directly summed displacement series against its compact-region bound.

    partial sums sigma^{-(k+eps)} over the enumerated nontrivial elements with
    sigma <= R_cut, block by block: row 0 without the identity by
    _translation_sums (one chunk in F_Y), then each of the _blocks by
    np.sum of its terms weighted by mult, and math.fsum adds the sums.  Block
    order and _BLOCK are fixed, so the partial is reproducible.  The
    remainder is dominated Stieltjes-style by 4 pi B_Y (2+eps)/(1+eps)
    R_cut^{-(k+eps-1)}.  Raises VerificationFailure if partial + tail exceeds
    the closed-form series bound.  The bound comes first, so a k or eps it
    refuses raises ValueError before any enumeration.
    """
    if R_cut < max(constants.sigma_Y, 1.0):
        raise ValueError(f"cutoff {R_cut} below the displacement floor")
    bound = poincare_bound_compact(k, eps, constants)
    z = require_point(z)
    power = -(k + eps)
    sums = _translation_sums(z, power, _max_shift(z, R_cut))
    for *_, sigmas, mult in _blocks([z], [R_cut]):
        sums.append(np.sum(mult * sigmas ** power))
    partial = math.fsum(sums)
    tail = (
        4.0
        * math.pi
        * constants.B_Y
        * (2.0 + eps)
        / (1.0 + eps)
        * R_cut ** -(k + eps - 1.0)
    )
    if partial + tail > bound:
        raise VerificationFailure(
            f"direct series {partial:.6g} + tail {tail:.6g} exceeds bound {bound:.6g} "
            f"at z={z}, k={k}, eps={eps}"
        )
    return PoincareCheck(partial=partial, tail_bound=tail, series_bound=bound)


def parabolic_direct(z: complex, k: int, eps: float) -> float:
    """Two-sided translation sum 2 sum_{n>=1} sigma(z, z + n)^{-(k+eps)}, rest under half an ulp.

    With a = 2y and s = k + eps the terms f(n) = (1 + (n/a)^2)^{-s} decrease in
    n > 0, so sum_{n>N} f(n) <= int_N^inf (x/a)^{-2s} dx = a (N/a)^{1-2s} / (2s-1).
    N is the least integer with that at most 2^-54 f(1), and the sum is at
    least 2 f(1), so the rest is under half its ulp.  N is solved in logs,
    nudged by 1e-9 and rounded up so rounding can only raise it; math.fsum
    adds the _translation_sums to N, 0.0 if f(1) rounds to 0.  k < 2 and eps
    negative, NaN or infinite, where terms need not decrease, raise ValueError,
    as does log N past 53 ln 2, where the shifts stop being exact floats.  High
    points below that are slow: at k = 2, N is 4.6e9 at y = 1e3, 4.6e13 at 1e6.
    """
    z = require_point(z)
    if k < 2 or not 0.0 <= eps < math.inf:
        raise ValueError(f"need k >= 2 and finite eps >= 0, got k={k}, eps={eps}")
    s, a = k + eps, 2.0 * z.imag
    log_f1, log_a = -s * math.log1p(1.0 / a / a), math.log(a)
    log_n = log_a + (log_a - math.log(2 * s - 1) + 54 * math.log(2) - log_f1) / (2 * s - 1)
    if math.exp(log_f1) == 0.0:
        return 0.0
    if log_n > 53 * math.log(2):
        raise ValueError(f"Im z = {z.imag} is too large: the cutoff passes 2^53 shifts")
    return math.fsum(_translation_sums(z, -s, math.ceil(math.exp(log_n + 1e-9))))
