"""Tests for the displacement-ball enumeration and direct series sums."""

import functools
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supnorm import enumeration, verify
from supnorm.enumeration import (
    IntegerMoebius,
    VerificationFailure,
    ball_counts,
    counting_check,
    displacement_values,
    enumerate_ball,
    parabolic_direct,
    poincare_direct,
)
from supnorm.engine import parabolic_sum_bound, poincare_bound_compact
from supnorm.geometry import displacement
from supnorm.kernels import faddeev_transfer

from conftest import RHO, brute_force_ball, sigma_direct

BASE_POINTS = (1j, RHO, 0.1 + 1.2j)


def as_tuples(matrices):
    return {m.entries() for m in matrices}


class TestIntegerMoebius:
    def test_sign_normalization(self):
        m = IntegerMoebius(-1, 0, 0, -1)
        assert m.entries() == (1, 0, 0, 1)
        m = IntegerMoebius(0, 1, -1, 0)
        assert m.entries() == (0, -1, 1, 0)

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            IntegerMoebius(1, 0, 0, 2)

    def test_apply(self):
        s = IntegerMoebius(0, -1, 1, 0)
        assert s.apply(2j) == pytest.approx(0.5j)


class TestEnumerateBall:
    def test_stabilizer_of_i(self):
        got = as_tuples(enumerate_ball(1j, 1.0))
        assert got == {(1, 0, 0, 1), (0, -1, 1, 0)}
        assert got == brute_force_ball(1j, 1.0, entry_bound=20)

    def test_radius_five_quarters(self):
        got = as_tuples(enumerate_ball(1j, 1.25))
        assert (1, 1, 0, 1) in got and (1, -1, 0, 1) in got
        assert got == brute_force_ball(1j, 1.25, entry_bound=20)

    def test_below_one_is_empty(self):
        assert enumerate_ball(1j, 0.99) == []

    @pytest.mark.parametrize("z", BASE_POINTS)
    @pytest.mark.parametrize("R", [10.0, 50.0])
    def test_matches_raw_entry_search(self, z, R):
        got = as_tuples(enumerate_ball(z, R))
        want = brute_force_ball(z, R, entry_bound=42)
        assert got == want

    @pytest.mark.parametrize("z", BASE_POINTS)
    def test_all_within_radius(self, z):
        R = 30.0
        for m in enumerate_ball(z, R):
            assert displacement(z, m.apply(z)) <= R * (1 + 1e-12)

    def test_order_three_stabilizer(self):
        # the corner point has two nontrivial stabilizer elements at
        # displacement exactly 1
        sigmas = displacement_values(RHO, 1.0)
        assert len(sigmas) == 2
        assert np.allclose(sigmas, 1.0)

    def test_partial_sums_monotone_in_cutoff(self):
        z, k, eps = 0.1 + 1.2j, 3, 0.2
        totals = []
        for R in (5.0, 20.0, 100.0, 400.0):
            sig = displacement_values(z, R)
            totals.append(float(np.sum(sig ** -(k + eps))))
        assert all(b >= a for a, b in zip(totals, totals[1:]))


#: The fuzzed points lie in the standard domain below this height.
FUZZ_HEIGHT = 2.0


@st.composite
def standard_domain_points(draw):
    """z = x + iy with |x| <= 1/2 and |z| >= 1, y <= FUZZ_HEIGHT; edges and floor drawn often."""
    x = draw(st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)))
    floor = math.sqrt(1.0 - x * x)
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    return complex(x, floor + t * (FUZZ_HEIGHT - floor))


def fuzz_entry_bound(z: complex, R: float) -> int:
    """Bound on |a|, |b|, |c|, |d| for every gamma with sigma(z, gamma z) <= R.

    sigma = cosh^2(D/2) for the hyperbolic distance D = d(z, gamma z), so
    cosh D = 2 sigma - 1 <= 2R - 1.  For an element of SL(2, R),
    a^2 + b^2 + c^2 + d^2 = 2 cosh d(i, gamma i), and the triangle inequality
    through z and gamma z, with d(gamma z, gamma i) = d(z, i), gives
    d(i, gamma i) <= 2 d(i, z) + D, where
    cosh d(i, z) = 1 + |z - i|^2 / (2 y).  Each entry is at most the square
    root of the sum of squares; the + 1 absorbs rounding.  Below the height 2
    and for R <= 20 the bound stays at most 20.
    """
    d_iz = math.acosh(1.0 + abs(z - 1j) ** 2 / (2.0 * z.imag))
    return int(math.sqrt(2.0 * math.cosh(2.0 * d_iz + math.acosh(2.0 * R - 1.0)))) + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(z=standard_domain_points(), R=st.floats(1.0, 20.0))
def test_scan_matches_raw_entry_search_fuzzed(z, R):
    got = as_tuples(enumerate_ball(z, R))
    want = brute_force_ball(z, R, entry_bound=fuzz_entry_bound(z, R))
    # the oracle evaluates sigma by complex arithmetic, the scan by real parts,
    # so the two may only split a tie sigma = R differently
    for entries in got ^ want:
        assert sigma_direct(*entries, z) == pytest.approx(R, rel=1e-12)


def row_scan(z: complex, R: float):
    """Yield (a, b, c, d, sigmas) per bottom row c = 0, 1, ..., c_max.

    The per-row enumeration that the block passes replaced, kept as their
    oracle: one array pass per row over every element, both halves, with
    the coset bases a0 = pow(d, -1, c) of the coprime d (np.gcd) and the
    shift ranges from the images gamma_0 z in complex arithmetic, the
    translation row taken from the same padded range as the other rows.
    Row 0 takes its displacements from the library's entry evaluator
    _sigma_batch, as the library's row 0 does, and the rows c >= 1 from its
    coset evaluator (_images, then _shifts with its band at R) applied to
    these cosets and ranges; the library evaluates only the elements with
    trace a + d >= 0 and gives each inverse (-d, b, c, -a) their value, so
    each element of trace < 0 here takes the value scanned for its
    inverse.  The values are the library's bit for bit, and which elements
    come, in which order, is this scan's own.
    """
    x, y = z.real, z.imag
    pad = R * (1.0 + 1e-9) + 1e-9
    c_max = math.floor(math.sqrt(max(4.0 * pad - 2.0, 0.0)) / y)
    for c in range(c_max + 1):
        if c == 0:
            a0, b0, d = np.ones(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.int64)
        else:
            spread = math.sqrt(max(4.0 * pad - 2.0 - (c * y) ** 2, 0.0))
            d = np.arange(math.ceil(-c * x - spread), math.floor(-c * x + spread) + 1)
            d = d[np.gcd(d, c) == 1]
            a0 = np.array([pow(v, -1, c) for v in d.tolist()], dtype=np.int64)
            b0 = (a0 * d - 1) // c
        w = (a0 * z + b0) / (c * z + d)
        spread = np.sqrt(np.maximum(4.0 * pad * y * w.imag - (y + w.imag) ** 2, 0.0))
        lo = np.ceil(x - w.real - spread).astype(np.int64)
        counts = np.maximum(np.floor(x - w.real + spread).astype(np.int64) - lo + 1, 0)
        if c == 0:
            n = lo[0] + np.arange(counts[0])
            sigmas = enumeration._sigma_batch(1, n, 0, 1, z)
            n, sigmas = n[sigmas <= R], sigmas[sigmas <= R]
            counts = np.array([len(n)])
        else:
            rows = np.full_like(d, c)
            s, v = enumeration._images(z, a0, rows, d)
            counts, n, sigmas = enumeration._shifts(z, R, a0, rows, d, s, v, lo, counts)
        a = np.repeat(a0, counts) + n * c
        d = np.repeat(d, counts)
        b = np.repeat(b0, counts) + n * d
        if c:
            value = dict(zip(zip(a.tolist(), b.tolist(), d.tolist()), sigmas.tolist()))
            mirror = np.flatnonzero(a + d < 0)
            sigmas = sigmas.copy()
            sigmas[mirror] = [value[-d[i], b[i], -a[i]] for i in mirror.tolist()]
        yield a, b, c, d, sigmas


@functools.lru_cache(maxsize=None)
def row_scan_arrays(z: complex, R: float):
    """The row scan's (a, b, c, d) in its order, and its sorted sigmas without the identity."""
    rows = list(row_scan(z, R))
    entries = tuple(
        np.concatenate([np.broadcast_to(row[i], row[0].shape) for row in rows]) for i in range(4)
    )
    chunks = [sigmas if c else sigmas[b != 0] for _, b, c, _, sigmas in rows]
    return entries, np.sort(np.concatenate(chunks))


def in_scan_order(z: complex, R: float):
    """The row scan's (a, b, c, d) in _scan's order.

    Row 0, then for each of the library's _blocks, whose lengths are all
    this takes from the library, the next run of the scan's elements with
    trace a + d >= 0 in the scan's order, then their inverses
    (-d, b, c, -a) of trace other than 0.
    """
    (a, b, c, d), _ = row_scan_arrays(z, R)
    half = [m[a + d >= 0] for m in (a, b, c, d)]
    start = int(np.count_nonzero(c == 0))
    parts = [[m[:start] for m in half]]
    for *_, n, _, _ in enumeration._blocks([z], [R]):
        ha, hb, hc, hd = (m[start:start + len(n)] for m in half)
        start += len(n)
        pair = ha + hd != 0
        parts += [[ha, hb, hc, hd], [-hd[pair], hb[pair], hc[pair], -ha[pair]]]
    assert start == len(half[0])
    return [np.concatenate([part[i] for part in parts]) for i in range(4)]


def scanned_entries(z: complex, R: float):
    """_scan's (a, b, c, d), joined over its blocks."""
    return [np.concatenate([np.broadcast_to(block[i], block[0].shape)
                            for block in enumeration._scan(z, R)]) for i in range(4)]


#: One point per height stratum of the benchmark's ball workload, then i, rho
#: and a point left of the standard domain.
ORACLE_POINTS = (
    0.3275651631014973 + 1.1393006658420468j,
    -0.3977738758773809 + 1.3670755580293943j,
    0.391287729589304 + 2.01758519508985j,
    -0.14606035885434743 + 2.935001881403346j,
    1j,
    RHO,
    0.6 + 0.9j,
)


def empty_table():
    """The residue table as a fresh import leaves it."""
    return (0, np.zeros(0, np.int64), np.zeros(0, bool))


@pytest.fixture(autouse=True)
def fresh_table(monkeypatch):
    """Every test starts from an empty residue table, and the module's own comes back after it."""
    monkeypatch.setattr(enumeration, "_TABLE", empty_table())


@pytest.fixture(params=["default", "tiny"])
def block_cap(request, monkeypatch):
    """The module's block cap, then a cap of 2 candidates (every longer row a pass of its own)."""
    if request.param == "tiny":
        monkeypatch.setattr(enumeration, "_BLOCK", 2)
    return request.param


class TestBlocksAgainstRowScan:
    @pytest.mark.parametrize("z", ORACLE_POINTS)
    @pytest.mark.parametrize("R", [1.0, 2.5, 30.0, 1e4])
    def test_displacement_values_bit_identical(self, block_cap, z, R):
        _, want = row_scan_arrays(z, R)
        assert np.array_equal(displacement_values(z, R), want)
        # the one value displacement_values drops is the identity's exact 1.0
        scanned = np.concatenate([sigmas for *_, sigmas in enumeration._scan(z, R)])
        assert np.array_equal(np.sort(scanned), np.sort(np.append(want, 1.0)))

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    @pytest.mark.parametrize("R", [1.0, 2.5, 30.0, 1e4])
    def test_same_elements_in_same_order(self, block_cap, z, R):
        got = scanned_entries(z, R)
        want = in_scan_order(z, R)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        if R <= 30.0:
            ball = [m.entries() for m in enumerate_ball(z, R)]
            assert ball == list(zip(*(w.tolist() for w in want)))

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    def test_counting_check_counts_the_ball(self, block_cap, psl2z_constants, z):
        for r in (1.0, 2.5, 30.0):
            _, sigmas = row_scan_arrays(z, r)
            assert counting_check(z, r, psl2z_constants).count == len(sigmas) + 1

    def test_below_one(self, block_cap):
        assert len(displacement_values(1j, 0.99)) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(z=standard_domain_points(), R=st.floats(1.0, 50.0))
def test_inverse_pairs_and_column_bound(z, R):
    # the lemmas behind the blocks' half, on the row scan's elements c >= 1
    none = np.zeros(0, np.int64)
    rows = [(a, b, np.full_like(a, c), d) for a, b, c, d, _ in row_scan(z, R) if c]
    rows = rows or [(none, none, none, none)]
    a, b, c, d = (np.concatenate(m) for m in zip(*rows))
    ball = set(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))
    # each inverse (-d, b, c, -a) is in the ball, with the same entry value
    assert set(zip((-d).tolist(), b.tolist(), c.tolist(), (-a).tolist())) == ball
    assert np.array_equal(enumeration._sigma_batch(a, b, c, d, z),
                          enumeration._sigma_batch(-d, b, c, -a, z))
    # trace >= 0 and p = c x + d < 0 give (p^2 + 1 + C)^2 <= 4 C sigma with
    # C = c^2 y^2, in exact rationals: p^2 <= 2 c y sqrt(R) - 1 - C in the ball
    x, y = Fraction(z.real), Fraction(z.imag)
    for ai, bi, ci, di in ball:
        re = ci * (x * x - y * y) + (di - ai) * x - bi
        im = y * (2 * ci * x + di - ai)
        sigma = 1 + (re * re + im * im) / (4 * y * y)
        assert sigma <= Fraction(R) * (1 + Fraction(1, 10**12))
        p, C = ci * x + di, (ci * y) ** 2
        if ai + di >= 0 and p < 0:
            assert (p * p + 1 + C) ** 2 <= 4 * C * sigma
    # the blocks hold the elements of trace >= 0, each of mult 2.0 but the
    # involutions a = -d of the ball, of mult 1.0
    ones = 0
    for _, a0, c, d, counts, n, _, mult in enumeration._blocks([z], [R]):
        a, d = np.repeat(a0, counts) + n * np.repeat(c, counts), np.repeat(d, counts)
        assert np.all(a + d >= 0)
        assert mult.dtype == np.float64 and len(mult) == len(n)
        assert np.array_equal(mult, np.where(a == -d, 1.0, 2.0))
        ones += int(np.count_nonzero(mult == 1.0))
    assert ones == sum(ai == -di for ai, _, _, di in ball)


@pytest.mark.parametrize("z", ORACLE_POINTS[:4])
def test_blocks_hold_half_the_ball(psl2z_constants, z):
    # the blocks' mults plus the 2 m + 1 translations of row 0 are the ball,
    # and the blocks hold about half of it; a count, not a timing
    R = 1e4
    blocks = list(enumeration._blocks([z], [R]))
    held = sum(len(n) for *_, n, _, _ in blocks)
    weight = sum(mult.sum() for *_, mult in blocks)
    count = counting_check(z, R, psl2z_constants).count
    assert weight + 2 * enumeration._max_shift(z, R) + 1 == count
    assert held <= 0.51 * count


@pytest.mark.parametrize("z", ORACLE_POINTS)
@pytest.mark.parametrize("R", [2.5, 30.0, 1e4])
def test_mults_repeat_to_the_ball(block_cap, z, R):
    # row 0 and each block's sigmas, each repeated mult times, are the row
    # scan's sigmas with the identity's 1.0, as a multiset
    m = enumeration._max_shift(z, R)
    parts = [enumeration._sigma_batch(1, np.arange(-m, m + 1), 0, 1, z)]
    parts += [np.repeat(sigmas, mult.astype(int))
              for *_, sigmas, mult in enumeration._blocks([z], [R])]
    got = np.sort(np.concatenate(parts))
    assert np.array_equal(got, np.sort(np.append(row_scan_arrays(z, R)[1], 1.0)))


#: At each ORACLE_POINTS entry, the moduli the residue table holds after one
#: displacement_values(z, 1e4): the last row of that ball.
ROWS_AT_1E4 = (175, 146, 99, 68, 199, 230, 222)


class TestResidueTable:
    def test_matches_pow_and_gcd(self):
        C, inverse, coprime = enumeration._residues(300)
        assert C == 300
        entries = list(zip(inverse.tolist(), coprime.tolist()))
        assert len(entries) == 300 * 301 // 2
        for c in range(1, 301):
            for d in range(c):
                inv, co = entries[c * (c - 1) // 2 + d]
                assert co == (math.gcd(d, c) == 1)
                if co:
                    assert inv == pow(d, -1, c)

    @pytest.mark.parametrize("z,rows", zip(ORACLE_POINTS, ROWS_AT_1E4))
    def test_rows_at_1e4(self, z, rows):
        first = displacement_values(z, 1e4)
        table = enumeration._TABLE
        assert table[0] == rows
        assert len(table[1]) == len(table[2]) == rows * (rows + 1) // 2
        # a repeated call reads the grown table and leaves it as it is
        again = displacement_values(z, 1e4)
        assert enumeration._TABLE is table
        assert np.array_equal(first, again)

    def test_grown_in_steps_equals_one_go(self, monkeypatch):
        enumeration._residues(7)
        small = enumeration._residues(50)
        stepped = enumeration._residues(230)
        # the table never shrinks; growth fills new arrays and leaves the
        # entries of the moduli it had, and the old snapshot, as they were
        assert enumeration._residues(50) is stepped is enumeration._TABLE
        head = 50 * 51 // 2
        assert small[0] == 50 and len(small[1]) == len(small[2]) == head
        assert np.array_equal(stepped[1][:head], small[1])
        assert np.array_equal(stepped[2][:head], small[2])
        monkeypatch.setattr(enumeration, "_TABLE", empty_table())
        whole = enumeration._residues(230)
        assert stepped[0] == whole[0] == 230
        assert np.array_equal(stepped[1], whole[1]) and np.array_equal(stepped[2], whole[2])

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    @pytest.mark.parametrize("step", [1, 37])
    def test_stepped_growth_matches_row_scan(self, block_cap, monkeypatch, z, step):
        # grow the table a few moduli per call, so that each new row reads
        # rows made by earlier calls; at a step of 1 every modulus is a call
        rows = ROWS_AT_1E4[ORACLE_POINTS.index(z)]
        for c in range(step, rows, step):
            assert enumeration._residues(c)[0] == c
        for R in (30.0, 1e4):
            assert np.array_equal(displacement_values(z, R), row_scan_arrays(z, R)[1])
            got = scanned_entries(z, R)
            assert all(np.array_equal(g, w) for g, w in zip(got, in_scan_order(z, R)))
        stepped = enumeration._TABLE
        monkeypatch.setattr(enumeration, "_TABLE", empty_table())
        whole = enumeration._residues(rows)
        assert stepped[0] == whole[0] == rows
        assert np.array_equal(stepped[1], whole[1]) and np.array_equal(stepped[2], whole[2])

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    def test_grown_table_matches_row_scan(self, psl2z_constants, z):
        # the oracle tests above start from an empty table; here every row
        # is already there, so nothing grows
        enumeration._residues(300)
        for R in (1.0, 2.5, 30.0, 1e4):
            assert np.array_equal(displacement_values(z, R), row_scan_arrays(z, R)[1])
        for r in (1.0, 2.5, 30.0):
            assert counting_check(z, r, psl2z_constants).count == len(row_scan_arrays(z, r)[1]) + 1
        assert enumeration._TABLE[0] == 300

    def test_threads_growing_at_once(self):
        # growth rebinds one tuple, so each call reads its own snapshot even
        # while other threads grow the table past it or bind a smaller one
        radii = (30.0, 300.0, 3000.0, 1e4) * 2
        results = [None] * len(radii)

        def work(i):
            results[i] = displacement_values(1j, radii[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(radii))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for R, values in zip(radii, results):
            assert np.array_equal(values, row_scan_arrays(1j, R)[1])
        C, inverse, coprime = enumeration._TABLE
        assert len(inverse) == len(coprime) == C * (C + 1) // 2

    def test_fresh_import_leaves_table_empty(self):
        code = ("import supnorm.enumeration as e\n"
                "print(e._TABLE[0], e._TABLE[1].size, e._TABLE[2].size)\n")
        src = str(Path(enumeration.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), check=True)
        assert proc.stdout.split() == ["0", "0", "0"]


@pytest.fixture
def band_sizes(monkeypatch):
    """Sizes of the entry arrays _sigma_batch gets from the blocks' band at R.

    Row 0 and _max_shift pass the scalar c = 0; the band passes an array of
    the bottom rows of the elements it re-evaluates.
    """
    sizes = []
    exact = enumeration._sigma_batch

    def record(a, b, c, d, z):
        if np.ndim(c):
            sizes.append(np.size(c))
        return exact(a, b, c, d, z)

    monkeypatch.setattr(enumeration, "_sigma_batch", record)
    return sizes


def sum_of_squares_ball(bound: int) -> set:
    """Canonical PSL(2, Z) matrices with a^2 + b^2 + c^2 + d^2 <= bound, in exact integers."""
    B = math.isqrt(bound)
    a, b, c, d = np.meshgrid(*[np.arange(-B, B + 1)] * 4, indexing="ij")
    lead = np.where(c != 0, c, np.where(d != 0, d, np.where(a != 0, a, b)))
    keep = (a * d - b * c == 1) & (a * a + b * b + c * c + d * d <= bound) & (lead > 0)
    return set(zip(*(m[keep].tolist() for m in (a, b, c, d))))


class TestExactTiesAtI:
    """At z = i, sigma = (a^2 + b^2 + c^2 + d^2) / 4 + 1/2 exactly.

    So the closed ball sigma <= r is the ball a^2 + b^2 + c^2 + d^2 <= 4 r - 2
    in exact integers, and at these radii a whole shell of elements lies on
    its boundary, sigma = r: ties that the coset values alone split (62
    elements at r = 5 instead of 66) and the band at R decides.
    """

    @pytest.mark.parametrize("r", [2.5, 5.0, 10.0, 50.0])
    def test_count_is_the_integer_ball(self, psl2z_constants, r):
        want = sum_of_squares_ball(int(4 * r - 2))
        assert counting_check(1j, r, psl2z_constants).count == len(want)

    def test_ball_at_five_is_the_integer_ball(self):
        want = sum_of_squares_ball(18)
        assert len(want) == 66
        assert as_tuples(enumerate_ball(1j, 5.0)) == want

    def test_band_takes_the_boundary_shell(self, band_sizes):
        # the shell sigma = 5 has 16 elements; row 0 holds (1, +-4, 0, 1) and
        # cuts on entries anyway, the 14 in the blocks are 7 inverse pairs
        # (no trace 0), and the band re-evaluates the one of each pair with
        # trace > 0
        shell = sum_of_squares_ball(18) - sum_of_squares_ball(17)
        values = displacement_values(1j, 5.0)
        assert sum(c >= 1 for _, _, c, _ in shell) == 14
        assert sum(band_sizes) == sum(c >= 1 and a + d >= 0 for a, _, c, d in shell) == 7
        assert np.count_nonzero(values == 5.0) == len(shell) == 16


class TestCosetValues:
    """The blocks' coset values against exact and entry evaluations."""

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    def test_sampled_elements_against_exact(self, z):
        # z is a binary number, so sigma(z, gamma z) has an exact value that
        # 50 digits resolve far below the 2e-15 asked
        rng = np.random.default_rng(30)
        with mpmath.workdps(50):
            x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)
            for block in enumeration._scan(z, 1e4):
                sigmas = block[-1]
                picks = {int(np.argmin(sigmas)), int(np.argmax(sigmas))}
                picks.update(rng.integers(len(sigmas), size=24).tolist())
                for i in picks:
                    a, b, c, d = (int(m[i]) for m in block[:4])
                    re = c * (x * x - y * y) + (d - a) * x - b
                    im = y * (2 * c * x + d - a)
                    exact = 1 + (re * re + im * im) / (4 * y * y)
                    assert abs(sigmas[i] - exact) <= 2e-15 * exact, (a, b, c, d)

    @pytest.mark.parametrize("z,R", [(z, 1e4) for z in ORACLE_POINTS]
                             + [(ORACLE_POINTS[0], 1e5), (1j, 1e5)])
    def test_whole_balls_against_entries(self, z, R):
        # the margin behind the band: 1e-14 here, 1e-12 R there
        for a, b, c, d, sigmas in enumeration._scan(z, R):
            entries = enumeration._sigma_batch(a, b, c, d, z)
            assert np.all(np.abs(sigmas - entries) <= 1e-14 * sigmas)

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    def test_no_entries_in_the_blocks_at_1e4(self, band_sizes, psl2z_constants, z):
        displacement_values(z, 1e4)
        counting_check(z, 30.0, psl2z_constants)
        assert band_sizes == []

    def test_near_tie_pair_at_radius_ten(self, band_sizes):
        # sigma = 10 - 3.3e-16 for both: inside the ball, and decided by the
        # band; they are each other's inverses, so the band evaluates the one
        # of trace >= 0
        ball = as_tuples(enumerate_ball(0.1 + 1.2j, 10.0))
        assert {(-1, -1, 4, 3), (-3, -1, 4, 1)} <= ball
        band_sizes.clear()
        displacement_values(0.1 + 1.2j, 10.0)
        assert band_sizes == [1]


class TestNonFiniteRadius:
    @pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
    def test_refused_before_the_table_grows(self, psl2z_constants, R):
        # inf and nan used to end in an OverflowError or an opaque ValueError
        # from float-to-integer conversion
        for call in (displacement_values, enumerate_ball,
                     lambda z, r: counting_check(z, r, psl2z_constants)):
            with pytest.raises(ValueError, match="radius R must be finite"):
                call(1j, R)
        assert enumeration._TABLE[0] == 0

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_poincare_cutoff(self, psl2z_constants, R):
        with pytest.raises(ValueError, match="radius R must be finite"):
            poincare_direct(1j, 2, 0.1, R, psl2z_constants)


@pytest.mark.parametrize("z", [0.1 - 1j, 0.5, complex(math.nan, 1.0), complex(0.0, math.inf)])
@pytest.mark.parametrize("call", ["counting_check", "poincare_direct", "displacement_values",
                                  "enumerate_ball", "parabolic_direct"])
def test_bad_point_refused_before_the_table_grows(psl2z_constants, call, z):
    calls = {
        "counting_check": lambda z: counting_check(z, 10.0, psl2z_constants),
        "poincare_direct": lambda z: poincare_direct(z, 2, 0.1, 1e4, psl2z_constants),
        "displacement_values": lambda z: displacement_values(z, 10.0),
        "enumerate_ball": lambda z: enumerate_ball(z, 10.0),
        "parabolic_direct": lambda z: parabolic_direct(z, 6, 0.1),
    }
    refusal = "^point (has non-finite coordinates|must have positive imaginary part)"
    with pytest.raises(ValueError, match=refusal):
        calls[call](z)
    assert enumeration._TABLE[0] == 0


BALL_CALLS = ["counting_check", "poincare_direct", "displacement_values", "enumerate_ball"]


@pytest.mark.parametrize("call,y", [pytest.param(c, 1e-200, id=c) for c in BALL_CALLS]
                         + [pytest.param(c, 1e-150, id=f"{c}-1e-150") for c in BALL_CALLS])
def test_underflowing_height_refused_before_the_table_grows(psl2z_constants, call, y):
    # at 1e-200 4 y^2 underflows to 0, and _max_shift used to raise
    # ZeroDivisionError; at 1e-150 the ball has about 6e150 rows, and numpy
    # used to refuse their np.arange with "Maximum allowed size exceeded"
    z = complex(0.1, y)
    calls = {
        "counting_check": lambda: counting_check(z, 10.0, psl2z_constants),
        "poincare_direct": lambda: poincare_direct(z, 2, 0.1, 1e4, psl2z_constants),
        "displacement_values": lambda: displacement_values(z, 10.0),
        "enumerate_ball": lambda: enumerate_ball(z, 10.0),
    }
    with pytest.raises(ValueError, match=rf"^Im z = {y} is too small"):
        calls[call]()
    assert enumeration._TABLE[0] == 0


@st.composite
def moduli_and_residues(draw):
    """(c, d) with 0 <= d < c <= 2000; c = 1 and d = 0 drawn often."""
    c = draw(st.one_of(st.just(1), st.integers(1, 2000)))
    d = draw(st.one_of(st.just(0), st.integers(0, c - 1)))
    return c, d


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs=st.lists(moduli_and_residues(), min_size=1, max_size=30))
@example(pairs=[(1, 0), (2, 0), (2, 1), (6, 0), (6, 4), (7, 6), (89, 55), (144, 89)])
def test_table_matches_gcd_and_pow(pairs):
    # the table grows across examples, from whatever the earlier ones left
    _, inverse, coprime = enumeration._residues(max(c for c, _ in pairs))
    for c, d in pairs:
        index = c * (c - 1) // 2 + d
        assert coprime[index] == (math.gcd(d, c) == 1)
        if coprime[index]:
            assert inverse[index] == pow(d, -1, c)


def materialised_translations(z: complex, R: float) -> int:
    """Elements T^n with sigma <= R, counted on an explicit row of n."""
    n_far = math.ceil(2.0 * z.imag * math.sqrt(max(R - 1.0, 0.0))) + 3
    n = np.arange(-n_far, n_far + 1)
    return int(np.count_nonzero(enumeration._sigma_batch(1, n, 0, 1, z) <= R))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(-0.5, 0.5), y=st.floats(0.05, 500.0), R=st.floats(0.5, 1000.0))
def test_translation_count_matches_materialised_row(x, y, R):
    z = complex(x, y)
    assert max(2 * enumeration._max_shift(z, R) + 1, 0) == materialised_translations(z, R)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(y=st.floats(0.05, 500.0), n=st.integers(0, 5000))
def test_translation_count_with_radius_on_a_displacement(y, n):
    # R = sigma(z, z + n) and the float just below it, so the estimate
    # floor(2 y sqrt(R - 1)) often lands one off the exact cut on either side
    z = complex(0.0, y)
    R = float(enumeration._sigma_batch(1, n, 0, 1, z))
    assert enumeration._max_shift(z, R) >= n
    for radius in (R, math.nextafter(R, 0.0)):
        count = max(2 * enumeration._max_shift(z, radius) + 1, 0)
        assert count == materialised_translations(z, radius)


@pytest.mark.parametrize("n", range(0, 41))
def test_translation_count_at_ties(n):
    # at y = 1, sigma(z, z + n) = 1 + (n/2)^2 is exact, so R sits on a tie
    z, R = complex(0.2, 1.0), 1.0 + (n / 2.0) ** 2
    assert enumeration._max_shift(z, R) == n
    assert materialised_translations(z, R) == 2 * n + 1


class TestCountingCheck:
    def test_example_bound(self, psl2z_constants):
        res = counting_check(1j, 10.0, psl2z_constants)
        assert res.bound == pytest.approx(4 * math.pi * psl2z_constants.B_Y * 10.0)
        assert res.bound == pytest.approx(652.8, abs=0.5)
        assert res.count < res.bound / 5.0

    def test_below_one_counts_nothing(self, psl2z_constants):
        assert counting_check(0.3 + 1.4j, 0.99, psl2z_constants).count == 0

    def test_identity_always_counted(self, psl2z_constants):
        res = counting_check(0.3 + 1.4j, 1.0, psl2z_constants)
        assert res.count >= 1
        assert res.bound > 1.0

    def test_fifty_pairs(self, psl2z_constants):
        rng = np.random.default_rng(424242)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5)
            lo = math.sqrt(max(1.0 - x * x, 0.0))
            y = rng.uniform(lo, psl2z_constants.Y)
            r = rng.uniform(1.0, 30.0)
            counting_check(complex(x, y), r, psl2z_constants)  # raises on failure


def verify_pairs(constants, monkeypatch):
    """The 50 (z, r) pairs verify's counting item draws, in its order."""
    seen = []

    def record(points, radii):
        seen.append((list(points), list(radii)))
        return ball_counts(points, radii)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "ball_counts", record)
        verify._counting_item(constants, np.random.default_rng(20260809))
    [(points, radii)] = seen
    return points, radii


#: Balls at the edges of the enumeration: the corner stabilizer at (rho, 1),
#: R < 1, a ball with no row c >= 1 (sqrt(4 R - 2) < y), the exact ties at
#: (i, 5) and a ball of several blocks at R = 1e4.  rho's elements come first
#: in a block of several balls, so a band taken at their R would cut the ties.
EDGE_BALLS = ((RHO, 1.0), (0.3 + 1.4j, 0.99), (0.05 + 3.9j, 1.5), (1j, 5.0),
              (0.1 + 1.2j, 1e4))


class TestBallCounts:
    @pytest.fixture(params=["default", 16])
    def cap(self, request, monkeypatch):
        """The module's block cap, then 16: blocks of several balls, and a ball over several."""
        if request.param != "default":
            monkeypatch.setattr(enumeration, "_BLOCK", request.param)
        return request.param

    def test_verify_pairs(self, cap, psl2z_constants, monkeypatch):
        points, radii = verify_pairs(psl2z_constants, monkeypatch)
        assert len(points) == 50
        want = [counting_check(z, r, psl2z_constants).count for z, r in zip(points, radii)]
        assert ball_counts(points, radii) == want

    def test_mixed_balls(self, cap, psl2z_constants, monkeypatch):
        points, radii = verify_pairs(psl2z_constants, monkeypatch)
        balls = list(EDGE_BALLS[:4]) + list(zip(points[:10], radii[:10])) + [EDGE_BALLS[4]]
        points, radii = [z for z, _ in balls], [r for _, r in balls]
        want = [counting_check(z, r, psl2z_constants).count for z, r in balls]
        # R < 1 counts nothing, the ball with no row c >= 1 its 11 translations
        assert want[:4] == [3, 0, 11, 66] and enumeration._padded_rows(3.9, 1.5)[1] == 0
        assert ball_counts(points, radii) == want
        # the pass these counts came from: blocks of several balls, and at
        # cap 16 a ball in several blocks
        owners = [ball for ball, *_ in enumeration._blocks(points, radii)]
        assert any(isinstance(ball, np.ndarray) for ball in owners)
        if cap == 16:
            singles = [ball for ball in owners if not isinstance(ball, np.ndarray)]
            assert len(singles) > len(set(singles))

    def test_one_ball_blocks_read_scalars(self):
        # a block of one ball takes its z, pad and R as scalars, never per candidate
        owners = [ball for ball, *_ in enumeration._blocks([1j], [1e4])]
        assert len(owners) > 1 and all(ball == 0 and isinstance(ball, int) for ball in owners)

    def test_empty_and_unpaired(self):
        assert ball_counts([], []) == []
        with pytest.raises(ValueError):
            ball_counts([1j, RHO], [10.0])

    @pytest.mark.parametrize("z,r", [(1j, math.nan), (0.1 + 1e-200j, 10.0), (0.5, 10.0)],
                             ids=["nan", "underflow", "real"])
    def test_bad_last_ball_refused_before_the_table_grows(self, z, r):
        with pytest.raises(ValueError):
            ball_counts([1j, 0.2 + 1.3j, z], [30.0, 12.0, r])
        assert enumeration._TABLE[0] == 0


class TestPoincareDirect:
    def test_weight_four_reference_point(self, psl2z_constants):
        res = poincare_direct(1j, 2, 0.1, 1e4, psl2z_constants)
        assert res.partial + res.tail_bound <= res.series_bound
        # near-identity terms dominate: the two stabilizer/translation blocks
        # contribute 1 + 2 * 1.25^{-2.1} of the total
        assert res.partial > 1.0 + 2.0 * 1.25**-2.1

    def test_corner_stabilizer_terms(self, psl2z_constants):
        res = poincare_direct(RHO, 3, 0.1, 1e3, psl2z_constants)
        sig = displacement_values(RHO, 1.0)
        assert len(sig) == 2  # order-3 stabilizer contributes n-1 terms at sigma 1
        assert res.partial >= 2.0

    def test_weight_twenty(self, psl2z_constants):
        res = poincare_direct(1j, 10, 0.1, 1e3, psl2z_constants)
        cap = poincare_bound_compact(10, 0.1, psl2z_constants)
        assert res.partial + res.tail_bound <= cap

    @pytest.mark.parametrize("z", [1j, RHO, 0.3 + 2.5j])
    @pytest.mark.parametrize("k,eps", [(2, 0.1), (3, 0.5)])
    def test_tail_bound_covers_next_decade(self, psl2z_constants, z, k, eps):
        # the Stieltjes tail bound at R_cut = 1e4 dominates the terms with
        # 1e4 < sigma <= 1e5
        near = poincare_direct(z, k, eps, 1e4, psl2z_constants)
        far = poincare_direct(z, k, eps, 1e5, psl2z_constants)
        assert far.partial - near.partial <= near.tail_bound

    def test_cutoff_guard(self, psl2z_constants):
        with pytest.raises(ValueError):
            poincare_direct(1j, 2, 0.1, 0.5, psl2z_constants)

    @pytest.mark.parametrize("z", ORACLE_POINTS)
    @pytest.mark.parametrize("k,eps", [(2, 0.1), (3, 0.1), (10, 0.5)])
    @pytest.mark.parametrize("R", [2.5, 30.0, 1e4])
    def test_partial_against_exactly_rounded_sum(self, block_cap, psl2z_constants, z, k, eps, R):
        # the same terms as the row scan's, so the partial differs from their
        # exactly rounded sum only by np.sum within each block and the fsum
        want = math.fsum((row_scan_arrays(z, R)[1] ** -(k + eps)).tolist())
        got = poincare_direct(z, k, eps, R, psl2z_constants).partial
        assert abs(got - want) <= 1e-15 * want

    def test_sums_the_blocks_not_the_sorted_ball(self, psl2z_constants, monkeypatch):
        def refuse(z, R):
            raise AssertionError("poincare_direct asked for the whole sorted ball")

        monkeypatch.setattr(enumeration, "displacement_values", refuse)
        res = poincare_direct(1j, 2, 0.1, 1e4, psl2z_constants)
        assert res.partial + res.tail_bound <= res.series_bound

    @pytest.mark.parametrize("eps", [-0.5, math.nan, math.inf])
    def test_bad_eps_refused_before_enumeration(self, psl2z_constants, eps):
        # a NaN eps used to come back as PoincareCheck(nan, nan, nan)
        with pytest.raises(ValueError, match="eps"):
            poincare_direct(1j, 2, eps, 1e4, psl2z_constants)
        assert enumeration._TABLE[0] == 0


class TestParabolicDirect:
    @pytest.mark.parametrize("k,eps", [(0, 0.1), (-1, 0.5), (1, math.nan), (2, -2.5),
                                       (2, math.inf), (1, 0.0), (1, 0.5)])
    def test_divergent_arguments_refused_at_once(self, k, eps):
        # the finite ones used to loop forever, with terms that never fall
        # below the stop ratio or NaN terms that compare False against it;
        # at k = 1 the stop came after about 1e9 terms; an infinite eps used
        # to return 0.0
        errors = []

        def call():
            try:
                parabolic_direct(1j, k, eps)
            except ValueError as exc:
                errors.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1 and "k >= 2 and finite eps >= 0" in str(errors[0])

    @pytest.mark.parametrize("y", [1e-150, 1e-200, 5e-324])
    @pytest.mark.parametrize("k", [4, 60])
    def test_underflowing_first_term_gives_zero(self, k, y):
        # f(1) = (1 + 1/(4 y^2))^-(k+eps) rounds to 0; at 1e-200 this used to
        # raise ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parabolic_direct(complex(0.1, y), k, 0.1) == 0.0

    @pytest.mark.parametrize("y", [1e100, 1e300])
    @pytest.mark.parametrize("k", [2, 26])
    def test_great_height_refused(self, k, y):
        # the cutoff passes 2^53 shifts, past exact float shifts; at 1e300
        # math.exp used to raise OverflowError, and at 1e100 the sum would
        # have run for longer than the age of the universe
        with pytest.raises(ValueError, match=rf"^Im z = {re.escape(str(y))} is too large"):
            parabolic_direct(complex(0.1, y), k, 0.0)

    def test_vanishes_at_small_height(self):
        # every term carries (n/2y)^2 -> infinity as y -> 0
        at_001 = parabolic_direct(0.2 + 0.01j, 4, 0.1)
        at_0001 = parabolic_direct(0.2 + 0.001j, 4, 0.1)
        assert at_001 < 1e-10
        assert at_0001 < at_001

    def test_real_part_irrelevant(self):
        a = parabolic_direct(0.0 + 2.3j, 5, 0.2)
        b = parabolic_direct(-0.49 + 2.3j, 5, 0.2)
        assert a == b

    def test_band_bound(self):
        k, eps = 26, 0.01
        y = k / (2 * math.pi)
        assert parabolic_direct(complex(0.0, y), k, eps) <= parabolic_sum_bound(k, eps)

    @pytest.mark.parametrize("k,eps,y", [(26, 0.01, 26 / (2 * math.pi)), (5, 0.2, 2.3),
                                         (30, 0.05, None), (30, 0.05, 30 / (2 * math.pi)),
                                         (2, 0.0, 1.0), (2, 0.0, None)])
    def test_against_mpmath(self, psl2z_constants, k, eps, y):
        # the oracle takes the float exponent k + eps the library uses
        y = psl2z_constants.Y if y is None else y
        with mpmath.workdps(40):
            s, a = mpmath.mpf(k + eps), 2 * mpmath.mpf(y)
            want = 2 * mpmath.nsum(lambda n: (1 + (n / a) ** 2) ** -s, [1, mpmath.inf])
        got = parabolic_direct(complex(0.0, y), k, eps)
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("k", [2, 6, 26, 60])
    @pytest.mark.parametrize("height", ["0.5", "k/(2 pi)", "Y"])
    def test_cutoff_leaves_a_proven_rest(self, monkeypatch, psl2z_constants, k, height):
        # the rest past the cutoff m is at most 2^-54 f(1), and m is the
        # least integer whose integral bound a (m/a)^(1-2s)/(2s-1) says so
        y = {"0.5": 0.5, "k/(2 pi)": k / (2 * math.pi), "Y": psl2z_constants.Y}[height]
        cutoffs = []
        sums = enumeration._translation_sums

        def record(z, power, m):
            cutoffs.append(m)
            return sums(z, power, m)

        monkeypatch.setattr(enumeration, "_translation_sums", record)
        parabolic_direct(complex(0.0, y), k, 0.0)
        [m] = cutoffs
        with mpmath.workdps(30):
            s, a = mpmath.mpf(k), 2 * mpmath.mpf(y)
            f = lambda n: (1 + (n / a) ** 2) ** -s
            rest = mpmath.nsum(f, [m + 1, mpmath.inf], method="euler-maclaurin")
            bound = lambda n: a * (n / a) ** (1 - 2 * s) / (2 * s - 1)
            assert rest <= bound(m) <= mpmath.mpf(2) ** -54 * f(1) < bound(m - 1)

    def test_no_array_longer_than_a_block(self, monkeypatch, psl2z_constants):
        # the translation sums go in chunks of _BLOCK shifts: about 4e6 terms
        # at y = 5, k = 2, and row 0's 2e5 shifts at y = 1e3, R_cut = 1e4,
        # which used to be one array
        sizes = []
        exact = enumeration._sigma_batch

        def record(a, b, c, d, z):
            values = exact(a, b, c, d, z)
            sizes.append(np.size(values))
            return values

        monkeypatch.setattr(enumeration, "_sigma_batch", record)
        parabolic_direct(5j, 2, 0.0)
        assert sum(sizes) > 3_000_000 and max(sizes) <= enumeration._BLOCK
        sizes.clear()
        with pytest.raises(VerificationFailure, match="direct series 3025.73"):
            poincare_direct(0.1 + 1e3j, 2, 0.1, 1e4, psl2z_constants)
        assert sum(sizes) > 190_000 and max(sizes) <= enumeration._BLOCK

    def test_bound_across_band(self, psl2z_constants):
        k, eps = 30, 0.05
        for y in np.linspace(psl2z_constants.Y, k / (2 * math.pi), 7):
            assert parabolic_direct(complex(0.0, y), k, eps) <= parabolic_sum_bound(k, eps)


class TestFaddeevAgainstSums:
    @pytest.mark.parametrize("y0", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d1,d2", [(1.1, 2.1), (1.5, 3.0), (2.0, 3.5)])
    def test_transfer_dominates_common_terms(self, y0, d1, d2):
        # the transfer inequality holds element by element, so summing either
        # side over the same finite set preserves it
        x = 0.3
        z = complex(x, 2.0 * y0)
        z0 = complex(x, y0)
        lhs = rhs = 0.0
        for m in enumerate_ball(z, 60.0):
            if m.c == 0:
                continue  # translations stabilize the cusp at infinity
            lhs += sigma_direct(*m.entries(), z) ** -d2
            rhs += sigma_direct(*m.entries(), z0) ** -(d1 + 1.0)
        factor = faddeev_transfer(y0, z.imag, d1, d2)
        assert lhs <= factor * rhs * (1 + 1e-12)
        assert lhs > 0.0


def test_verification_failure_is_loud(psl2z_constants):
    # shrinking the counting constant far enough must trip the check
    import dataclasses

    broken = dataclasses.replace(psl2z_constants, B_Y=1e-4)
    with pytest.raises(VerificationFailure):
        counting_check(1j, 10.0, broken)
