import functools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evlhts import engine
from evlhts.engine import (
    ball_first_hit_digits,
    block_substreams,
    conditional_digit_starts,
    digit_window_min_distance,
    draw_digits,
    iid_min_distance_uniform,
    mp_first_hit,
    mp_min_distance,
    rotation_first_hit,
    rotation_min_distance,
    run_blocked,
    word_first_hit,
    word_hit_count,
)
from evlhts.errors import DomainError
from evlhts.measures import Lebesgue1D
from evlhts.rng import BLOCK, block_slices, substream
from evlhts.systems import (FIXED_ONE, WINDOW_BITS, Metric, manneville_pomeau,
                            rotation)
from reference import (
    BitStreamPoint,
    FloatPoint,
    RecordingGen,
    byte_cdf,
    exact_ball_pieces,
    in_exact_ball,
    inverted_byte,
    iterate,
    lane_bytes,
    no_entry_probability,
    pack_digits,
    reference_digits,
    unpack_digits,
    window_from_digits,
)


def grid_starts(gen, count):
    """Uniform starts on the rotation's 2^63 grid, as ``hts.orbit_starts``
    draws them."""
    return gen.integers(0, FIXED_ONE, size=count, dtype=np.uint64)


class ScriptedDigits:
    """A stand-in for ``engine.draw_digits`` that deals out a fixed digit
    table: each call returns the next ``cols`` digits of every row, packed.

    Kernels then run on a given digit stream whatever the draw rule, so
    these tests check kernel logic; ``TestDrawDigits`` checks the rule.
    """

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.cursor = 0

    def __call__(self, gen, rows, cols, p_zero, scratch=None, out=None):
        assert rows == len(self.rows), "lane count changed mid-stream"
        # Kernels draw full-width chunks but only read the columns that
        # remain, so pad past the scripted table with digit 0.
        table = np.zeros((rows, cols), dtype=bool)
        for i, row in enumerate(self.rows):
            chunk = row[self.cursor:self.cursor + cols]
            table[i, :len(chunk)] = chunk
        self.cursor += cols
        if out is None:
            return pack_digits(table)
        out[...] = pack_digits(table)
        return out


@pytest.fixture
def script(monkeypatch):
    """``script(rows)`` makes the engine draw the digit table ``rows``."""
    def install(rows):
        monkeypatch.setattr(engine, "draw_digits", ScriptedDigits(rows))
    return install


def one_block(kernel):
    """A digit kernel that takes every block's generator, called as a
    one-block kernel: ``gen`` is the generator of the run's only block."""
    @functools.wraps(kernel)
    def run(gen, count, **kw):
        return kernel([gen], count, **kw)
    return run


def metric_of(circle):
    return Metric.CIRCLE if circle else Metric.INTERVAL


# ``ball_first_hit_digits`` on the ball of radius ``eta`` as Lebesgue lays
# it out on the interval or the circle; it keeps the kernel's name, which
# names the test cases it runs in
@functools.wraps(ball_first_hit_digits)
def radius_ball_first_hit(gens, count, *, eta, zeta, circle, **kw):
    arcs = Lebesgue1D(metric_of(circle)).ball_arcs(zeta, eta)
    return ball_first_hit_digits(gens, count, arcs=arcs, zeta=zeta, **kw)


def random_digit_rows(n_rows, n_digits, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_rows, n_digits)).tolist()


def scalar_min_distance(digits, n_steps, tent, zeta, circle):
    point = BitStreamPoint.from_digits(digits)
    best = math.inf
    cur = point
    for _ in range(n_steps):
        t = cur.value(53)
        d = abs(t - zeta)
        if circle:
            d = min(d, 1.0 - d)
        best = min(best, d)
        cur = cur.shifted(1, tent=tent)
    return best


class TestWindowKernel:
    @pytest.mark.parametrize("tent", [False, True])
    @pytest.mark.parametrize("circle", [False, True])
    def test_matches_scalar_stream_exactly(self, tent, circle, script):
        n_steps = 25
        rows = random_digit_rows(7, 53 + n_steps - 1, seed=42 + tent)
        script(rows)
        got = digit_window_min_distance(
            [None], 7, n_steps=n_steps, p_zero=0.5, tent=tent,
            zeta=0.71234, circle=circle,
        )
        want = [
            scalar_min_distance(r, n_steps, tent, 0.71234, circle)
            for r in rows
        ]
        assert got.tolist() == want  # bit-identical, not approximately

    def test_single_step_is_start_distance(self, script):
        rows = random_digit_rows(5, 53, seed=3)
        script(rows)
        got = digit_window_min_distance(
            [None], 5, n_steps=1, p_zero=0.5, tent=False,
            zeta=0.3, circle=False,
        )
        starts = window_from_digits(pack_digits(rows))
        assert got.tolist() == [abs(s - 0.3) for s in starts]

    def test_orbit_of_deterministic_point(self, script):
        # all-ones digits = the point 1 - 2^-53; tent sends it next to 0
        rows = [[1] * 60]
        script(rows)
        got = digit_window_min_distance(
            [None], 1, n_steps=8, p_zero=0.5, tent=True,
            zeta=0.0, circle=False,
        )
        # the orbit min distance to 0 is reached at the second step
        assert got[0] <= 2.0 ** -52

    def test_far_branch_holds_the_float_minimum(self, script):
        # zeta = 2^-54 lies halfway between the windows 0 and 1.  The orbit
        # visits the window 2^53 - 1 at j = 0 and the window 3 at j = 53:
        # both lie two windows from c = 1, one on each side.  On the circle
        # the fold rounds the far one to 2^-52, below the 2.5 * 2^-53 of
        # window 3, so one nearest-window candidate could miss the minimum.
        zeta = 2.0 ** -54
        rows = [[1] * 53 + [0] * 51 + [1, 1]]
        script(rows)
        got = digit_window_min_distance(
            [None], 1, n_steps=54, p_zero=0.5, tent=False, zeta=zeta,
            circle=True,
        )
        want = scalar_min_distance(rows[0], 54, False, zeta, True)
        assert got[0] == want == 2.0 ** -52


class TestWordKernels:
    def brute_first(self, letters, word, depth, start_j, cap):
        for j in range(start_j, cap):
            if tuple(letters[j:j + depth]) == word:
                return j
        return cap

    def letters_of(self, digits, tent):
        if not tent:
            return list(digits)
        out, prev = [], 0
        for b in digits:
            out.append(b ^ prev)
            prev = b
        return out

    @pytest.mark.parametrize("tent", [False, True])
    def test_first_hit_matches_brute_force(self, tent, script):
        depth, cap, start_j = 3, 40, 1
        word = (1, 0, 1)
        word_int = 0b101
        rows = random_digit_rows(50, cap - 1 + depth, seed=7)
        script(rows)
        times, hit = word_first_hit(
            [None], 50, word_int=word_int, depth=depth, tent=tent,
            p_zero=0.5, cap=cap, start_j=start_j,
        )
        for i, row in enumerate(rows):
            letters = self.letters_of(row, tent)
            want = self.brute_first(letters, word, depth, start_j, cap)
            assert times[i] == want
            assert hit[i] == (want < cap)

    def test_start_zero_counts_the_start_itself(self, script):
        # lane whose first letters are the word: j = 0 is a hit
        depth = 4
        rows = [[1, 1, 1, 1] + [0] * 20, [0, 1, 1, 1] + [1] * 20]
        script(rows)
        times, hit = word_first_hit(
            [None], 2, word_int=0b1111, depth=depth, tent=False,
            p_zero=0.5, cap=20, start_j=0,
        )
        assert times[0] == 0 and hit[0]
        assert times[1] != 0

    def test_preload_waits_for_genuine_return(self, script):
        # preloaded = start inside the cylinder; returns are j >= 1
        depth = 2
        rows = [
            [1, 0, 1, 1, 0, 0, 0, 0, 0, 0],  # letters 10 11 -> return at 3
            [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],  # immediate re-entry at j = 1
        ]
        script(rows)
        times, hit = word_first_hit(
            [None], 2, word_int=0b11, depth=depth, tent=False,
            p_zero=0.5, cap=9, start_j=1, preload=True,
        )
        # preloaded letters are (1, 1); lane letters continue from there:
        # lane 0: positions 1.. form 11 again first at j = 3 (1,0,1,1 ...)
        brute = []
        for row in rows:
            letters = [1, 1] + row
            brute.append(self.brute_first(letters, (1, 1), 2, 1, 9))
        assert times.tolist() == brute

    def test_count_matches_brute_force(self, script):
        depth, window = 2, 30
        word = (1, 1)
        rows = random_digit_rows(40, window + depth, seed=11)
        script(rows)
        counts = word_hit_count(
            [None], 40, word_int=0b11, depth=depth, tent=False,
            p_zero=0.5, window=window, start_j=1,
        )
        for i, row in enumerate(rows):
            want = sum(
                1
                for j in range(1, window + 1)
                if tuple(row[j:j + depth]) == word
            )
            assert counts[i] == want

    def test_geometric_law_with_compaction(self):
        # depth-1 target: hits are iid coin flips, so T is geometric(1/2)
        gens = block_substreams(8192, 99, ("geom",))
        times, hit = word_first_hit(
            gens, 8192, word_int=0b1, depth=1, tent=False, p_zero=0.5,
            cap=200, start_j=1,
        )
        assert hit.all()
        assert abs(times.mean() - 2.0) < 0.1  # E[T] = 2, sigma/sqrt(n) ~ 0.016
        assert abs((times == 1).mean() - 0.5) < 0.02

    def test_kac_mean_return_for_cylinder(self):
        # conditional starts inside a depth-3 cell: E[return] = 1/mass = 8
        gens = block_substreams(8192, 7, ("kac-unit",))
        times, hit = word_first_hit(
            gens, 8192, word_int=0b101, depth=3, tent=True, p_zero=0.5,
            cap=800, start_j=1, preload=True,
        )
        assert hit.all()
        assert abs(times.mean() - 8.0) < 0.4  # 3 sigma ~ 0.3 for n = 8192

    def test_register_depth_cap(self):
        with pytest.raises(DomainError):
            word_first_hit(
                [substream(1, "x")], 4, word_int=0, depth=64, tent=False,
                p_zero=0.5, cap=10,
            )

    @pytest.mark.parametrize("word_int", [-1, 0b1000])
    def test_word_must_fit_its_depth(self, word_int):
        for kernel, horizon in ((one_block(word_first_hit), "cap"),
                                (one_block(word_hit_count), "window")):
            with pytest.raises(DomainError, match="fit"):
                kernel(substream(1, "x"), 4, word_int=word_int, depth=3,
                       tent=False, p_zero=0.5, **{horizon: 10})


def reference_word_first_hit(gen, count, *, word_int, depth, tent, p_zero,
                             cap, start_j=1, preload=False, chunk=256):
    """Per-step reference for ``word_first_hit``: one register update per
    orbit step over every live lane, digits from ``reference_digits``."""
    mask = np.uint64((1 << depth) - 1)
    target = np.uint64(word_int)
    one = np.uint64(1)
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    reg = np.zeros(count, dtype=np.uint64)
    prev = np.zeros(count, dtype=np.uint64)
    done = np.zeros(count, dtype=bool)
    consumed = 0
    if preload:
        reg[:] = target
        prev[:] = np.uint64(bin(word_int).count("1") & 1)
        consumed = depth
    total_letters = cap - 1 + depth
    match_from = depth + start_j
    while consumed < total_letters and lane.size:
        cols = min(chunk, total_letters - consumed)
        digits = unpack_digits(reference_digits(gen, lane.size, chunk, p_zero),
                               chunk).astype(np.uint64)
        for c in range(cols):
            b = digits[:, c]
            if tent:
                letter = b ^ prev
                prev = b
            else:
                letter = b
            reg = ((reg << one) | letter) & mask
            consumed += 1
            if consumed >= match_from:
                hits = (reg == target) & ~done
                if hits.any():
                    times[lane[hits]] = consumed - depth
                    done |= hits
        if done.mean() > 0.25:
            keep = ~done
            lane, reg, prev, done = lane[keep], reg[keep], prev[keep], done[keep]
    return times, times < cap


def reference_word_hit_count(gen, count, *, word_int, depth, tent, p_zero,
                             window, start_j=1, preload=False, chunk=256):
    """Per-step reference for ``word_hit_count``."""
    mask = np.uint64((1 << depth) - 1)
    target = np.uint64(word_int)
    one = np.uint64(1)
    counts = np.zeros(count, dtype=np.int64)
    reg = np.zeros(count, dtype=np.uint64)
    prev = np.zeros(count, dtype=np.uint64)
    consumed = 0
    if preload:
        reg[:] = target
        prev[:] = np.uint64(bin(word_int).count("1") & 1)
        consumed = depth
    total_letters = window + depth
    match_from = depth + start_j
    while consumed < total_letters:
        cols = min(chunk, total_letters - consumed)
        digits = unpack_digits(reference_digits(gen, count, cols, p_zero),
                               cols).astype(np.uint64)
        for c in range(cols):
            b = digits[:, c]
            if tent:
                letter = b ^ prev
                prev = b
            else:
                letter = b
            reg = ((reg << one) | letter) & mask
            consumed += 1
            if consumed >= match_from:
                counts += reg == target
    return counts


_TOP = 1.0 - 2.0 ** -53
_POWERS = 2.0 ** -np.arange(1, 54)


def reference_window(packed):
    """The float windows 0.b1...b53 of packed 53-digit rows, as a dot
    product of the digits with 2^-1 .. 2^-53 (every partial sum of
    distinct powers is representable, so it is exact)."""
    return unpack_digits(packed, 53).astype(np.float64) @ _POWERS


def _reference_distances(pos, zeta, circle):
    d = np.abs(pos - zeta)
    if circle:
        np.minimum(d, 1.0 - d, out=d)
    return d


def _reference_step(v, new_bit_float):
    # v <- (2 v mod 1) + b * 2^-53, all exact on the 2^-53 grid
    v *= 2.0
    v -= v >= 1.0
    v += new_bit_float * 2.0 ** -53


def reference_digit_window_min_distance(gen, count, *, n_steps, p_zero, tent,
                                        zeta, circle, chunk=256,
                                        draw=reference_digits):
    """Per-step reference for ``digit_window_min_distance``: one float
    window update per orbit step over every lane, digits from ``draw``
    (``reference_digits`` unless a test passes an equal, faster rule)."""
    v = reference_window(draw(gen, count, 53, p_zero))
    parity = np.zeros(count, dtype=bool)  # digit left of the window; b_0 = 0
    pos = np.where(parity, _TOP - v, v) if tent else v
    best = _reference_distances(pos, zeta, circle)
    remaining = n_steps - 1
    while remaining > 0:
        cols = min(chunk, remaining)
        fresh = unpack_digits(draw(gen, count, cols, p_zero),
                              cols).astype(np.float64)
        for c in range(cols):
            if tent:
                parity = v >= 0.5  # the digit shifted out of the window
            _reference_step(v, fresh[:, c])
            pos = np.where(parity, _TOP - v, v) if tent else v
            np.minimum(best, _reference_distances(pos, zeta, circle), out=best)
        remaining -= cols
    return best


def reference_ball_first_hit_digits(gen, count, *, eta, zeta, tent, p_zero,
                                    circle, cap, start_j=1, cdfs=None,
                                    chunk=256):
    """Per-step reference for ``ball_first_hit_digits``: with ``cdfs`` the
    conditional starts come first, on the same generator.  A position is
    inside when it lies in [zeta - eta, zeta + eta) in exact arithmetic,
    clipped on the interval and split at 0 on the circle."""
    metric = metric_of(circle)

    def inside(pos):
        return in_exact_ball(np.ldexp(pos, 53).astype(np.int64), metric,
                             zeta, eta)

    if cdfs is None:
        v = reference_window(reference_digits(gen, count, 53, p_zero))
    else:
        v = reference_window(conditional_digit_starts(gen, count, cdfs=cdfs,
                                                      p_zero=p_zero))
    parity = np.zeros(count, dtype=bool)
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    if start_j == 0:
        hits = inside(v)
        times[lane[hits]] = 0
        done |= hits
    j = 0
    while j < cap - 1 and lane.size:
        cols = min(chunk, cap - 1 - j)
        fresh = unpack_digits(reference_digits(gen, lane.size, chunk, p_zero),
                              chunk).astype(np.float64)
        for c in range(cols):
            if tent:
                parity = v >= 0.5
            _reference_step(v, fresh[:, c])
            j += 1
            if j < start_j:
                continue
            pos = np.where(parity, _TOP - v, v) if tent else v
            hits = inside(pos) & ~done
            if hits.any():
                times[lane[hits]] = j
                done |= hits
        if done.mean() > 0.25:
            keep = ~done
            lane, v, done = lane[keep], v[keep], done[keep]
            if tent:
                parity = parity[keep]
    return times, times < cap


# (depth, word) by id.  Mixed letters, so both the letters and their
# complements are sliced.  The words of depth 32, 33 and 63 have period 4 or
# 3: preloaded lanes re-enter them within the caps.  Depth 32 is the deepest
# whose letters all lie in one letter row of ``_word_chunk``; from depth 33
# on, letters 32 back and more are read off the row above.  The runs of
# equal letters from 4 on, which ``_word_chunk`` ANDs by doubling, come as
# the gate's cylinder words (0^10, 1 0^11, 1 0^9), an all-ones word, and
# runs of 5, 9, 16 and 17 letters (a power of two, or one topped up), beside
# runs of 2 and 3, taken letter by letter; the constant words re-enter at
# once when preloaded.
WORDS = {1: (1, 0b0), 3: (3, 0b101), 12: (12, 0b110111011110),
         32: (32, int("1011" * 8, 2)), 33: (33, int("110" * 11, 2)),
         63: (63, int("110" * 21, 2)),
         "0^10": (10, 0), "1.0^11": (12, 1 << 11), "1.0^9": (10, 1 << 9),
         "11.000.11111": (10, 0b1100011111), "1^16": (16, (1 << 16) - 1),
         "0^17": (17, 0)}
LATE_START = 300  # beyond one chunk at either chunk width
GRID = [
    (word, tent, preload, start_j, p_zero, chunk)
    for word in WORDS
    for tent in (False, True)
    for preload in (False, True)
    for start_j in (0, 1, LATE_START)
    for p_zero in (0.5, 0.3)
    for chunk in (7, 256)
    if not (preload and start_j == 0)  # a preloaded start is inside at j = 0
]


class TestWordStreamEquivalence:
    """The chunked word kernels reproduce the per-step scan bit for bit,
    drawing the same digit matrices from the same Philox substream."""

    LANES = 160

    def kwargs(self, word, tent, preload, p_zero, chunk):
        depth, word_int = WORDS[word]
        return dict(word_int=word_int, depth=depth, tent=tent,
                    p_zero=p_zero, preload=preload, chunk=chunk)

    @pytest.mark.parametrize("word,tent,preload,start_j,p_zero,chunk", GRID)
    def test_first_hit(self, word, tent, preload, start_j, p_zero, chunk):
        kw = self.kwargs(word, tent, preload, p_zero, chunk)
        label = ("word-eq", word, tent, preload, start_j, p_zero, chunk)
        cap = start_j + 400
        want_gen = RecordingGen(substream(2024, *label))
        got_gen = RecordingGen(substream(2024, *label))
        want = reference_word_first_hit(want_gen, self.LANES, cap=cap,
                                        start_j=start_j, **kw)
        got = word_first_hit([got_gen], self.LANES, cap=cap, start_j=start_j,
                             **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize("word,tent,preload,start_j,p_zero,chunk", GRID)
    def test_hit_count(self, word, tent, preload, start_j, p_zero, chunk):
        kw = self.kwargs(word, tent, preload, p_zero, chunk)
        label = ("count-eq", word, tent, preload, start_j, p_zero, chunk)
        window = start_j + 400
        want_gen = RecordingGen(substream(2024, *label))
        got_gen = RecordingGen(substream(2024, *label))
        want = reference_word_hit_count(want_gen, self.LANES, window=window,
                                        start_j=start_j, **kw)
        got = word_hit_count([got_gen], self.LANES, window=window,
                             start_j=start_j, **kw)
        assert np.array_equal(got, want)
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize("p_zero", [0.5, 0.3])
    def test_hit_count_runs_each_block_on_its_generator(self, p_zero):
        # a full block and a partial one, over two chunks
        lanes, label = BLOCK + 37, ("count-blocks", p_zero)
        kw = self.kwargs(3, True, True, p_zero, 256)
        got_gens = [RecordingGen(g)
                    for g in block_substreams(lanes, 8, label)]
        want_gens = [RecordingGen(g)
                     for g in block_substreams(lanes, 8, label)]
        got = word_hit_count(got_gens, lanes, window=300, **kw)
        want = np.concatenate([
            reference_word_hit_count(gen, size, window=300, **kw)
            for gen, (_, _, size) in zip(want_gens, block_slices(lanes))])
        assert np.array_equal(got, want)
        assert [g.shapes for g in got_gens] == [g.shapes for g in want_gens]

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("tent", [False, True])
    def test_compaction_shrinks_draws_identically(self, tent, chunk):
        # most lanes hit within a few hundred steps: the live set is
        # compacted between chunks, and both scans must draw the same
        # shrinking digit matrices
        kw = dict(word_int=0b11011011, depth=8, tent=tent, p_zero=0.3,
                  chunk=chunk, cap=3 * 256 + 5, start_j=1)
        want_gen = RecordingGen(substream(5, "compact", tent, chunk))
        got_gen = RecordingGen(substream(5, "compact", tent, chunk))
        want = reference_word_first_hit(want_gen, 2048, **kw)
        got = word_first_hit([got_gen], 2048, **kw)
        assert np.array_equal(got[0], want[0])
        assert got_gen.shapes == want_gen.shapes
        # (rows, words) main draws; a byte-lane draw's tie words are 1-d
        rows = [shape[0] for shape in got_gen.shapes
                if isinstance(shape, tuple)]
        assert len(rows) > 1 and rows[-1] < rows[0]


@pytest.mark.parametrize("chunk", [64, 256])
@pytest.mark.parametrize("tent", [False, True])
@pytest.mark.parametrize("depth", range(1, engine.MAX_WORD_DEPTH + 1))
def test_word_scans_at_every_depth(depth, tent, chunk):
    # every letter-row layout: span 64 - depth down to 32, then the row
    # above; preloaded lanes re-enter the period-3 word within the cap
    for preload in (False, True):
        kw = dict(word_int=int(("110" * 21)[:depth], 2), depth=depth,
                  tent=tent, p_zero=0.5, preload=preload, chunk=chunk)
        label = ("every-depth", depth, tent, chunk, preload)
        for kernel, reference, horizon in (
                (word_first_hit, reference_word_first_hit, {"cap": 300}),
                (word_hit_count, reference_word_hit_count, {"window": 300})):
            want_gen = RecordingGen(substream(2024, *label))
            got_gen = RecordingGen(substream(2024, *label))
            want = reference(want_gen, 16, **horizon, **kw)
            got = kernel([got_gen], 16, **horizon, **kw)
            assert np.array_equal(np.asarray(got), np.asarray(want))
            assert got_gen.shapes == want_gen.shapes


def planted_letters(gen, lanes, cols, word_int, depth, tent):
    """Each lane's 64 carried digits then ``cols`` chunk digits, as Python
    bit lists, with the word's letters written to end at a random column
    of the chunk: the digits themselves for the doubling map, and for the
    tent map, whose letter t is digit t XOR digit t - 1, the digits after
    the one before the word."""
    digits = gen.integers(0, 2, size=(lanes, 64 + cols)).tolist()
    for row, end in zip(digits, gen.integers(0, cols, size=lanes).tolist()):
        for k in reversed(range(depth)):  # k letters back from the end
            t = 64 + end - k
            letter = word_int >> k & 1
            row[t] = row[t - 1] ^ letter if tent else letter
    return digits


def letter_buffer(digits, cols):
    """``engine._word_letters``' buffer of the digit lists: the carried
    digits, latest in bit 0, the chunk's digits packed, and a zero row."""
    lanes = len(digits)
    ext = np.zeros(((cols + 63) // 64 + 2, lanes), dtype=np.uint64)
    for lane, row in enumerate(digits):
        ext[0, lane] = int("".join(map(str, row[:64])), 2)
        chunk = "".join(map(str, row[64:]))
        for w in range(0, cols, 64):
            ext[1 + w // 64, lane] = int(chunk[w:w + 64].ljust(64, "0"), 2)
    return ext


def reference_match_columns(digits, cols, first, word_int, depth, tent):
    """Each lane's chunk columns c in first .. cols - 1 at which the
    ``depth`` letters ending there spell the word, read one by one."""
    def letter(row, t):
        return row[t] ^ row[t - 1] if tent else row[t]
    return [[c for c in range(first, cols)
             if all(letter(row, 64 + c - k) == word_int >> k & 1
                    for k in range(depth))]
            for row in digits]


@pytest.mark.parametrize("tent", [False, True])
@pytest.mark.parametrize("depth", [4, 10, 12, 17, 32, 33, 40, 63])
def test_word_chunk_runs_spell_the_word(depth, tent):
    # runs of equal letters of every length the doubling takes, some
    # crossing to the row above past 32 letters, planted in every lane
    half = depth // 2
    words = {0, (1 << depth) - 1, 1 << depth - 1, (1 << half) - 1,
             int(("1" * 5 + "0" * 9) * 5, 2) & (1 << depth) - 1}
    span, cols = 64 - min(depth, 32), 200
    for word_int in sorted(words):
        for first in (0, 37):
            gen = substream(9, "planted", depth, tent, word_int, first)
            digits = planted_letters(gen, 40, cols, word_int, depth, tent)
            match, _ = engine._word_chunk(
                letter_buffer(digits, cols), cols, first, word_int, depth,
                tent, engine._Scratch())
            got = [[c for c in range(cols)
                    if int(match[c // span, lane]) >> span - 1 - c % span & 1]
                   for lane in range(match.shape[1])]
            want = reference_match_columns(digits, cols, first, word_int,
                                           depth, tent)
            assert got == want
            assert sum(map(len, want)) >= 20  # most planted words count


def reference_first_set_column(raw, span, cols, first):
    """Per-lane scan of match rows: the lanes with a set bit at a column in
    first .. cols - 1, column q span + i being bit span - 1 - i of row q,
    and each one's first such column."""
    found = [(lane, next((c for c in range(first, cols)
                          if int(raw[c // span, lane]) >> span - 1 - c % span
                          & 1), None))
             for lane in range(raw.shape[1])]
    return [lane for lane, c in found if c is not None], [
        c for _, c in found if c is not None]


@pytest.mark.parametrize("depth", [10, 32, 33, 63])
def test_first_set_column_matches_per_lane_scan(depth):
    span, cols, first = 64 - min(depth, 32), 250, 5
    masks = engine._column_masks(depth, cols, first)
    gen = substream(5, "first-set", depth)
    raw = gen.integers(0, 2**63, size=(len(masks), 300), dtype=np.uint64)
    raw[gen.random(raw.shape) < 0.8] = 0
    raw[:, :5] = 0  # lane 0 has no set bit
    raw[0, 1] = ((1 << first) - 1) << (span - first)  # only before first
    raw[2, 2] = 1  # only below the first row, at bit 0
    raw[1, 3] = 1 << span - 1  # bit P - 1
    # every bit of a row: at span 54 the float conversion of 2^54 - 1
    # rounds up to 2^54
    raw[1, 4] = (1 << span) - 1
    lanes, columns = engine._first_set_column(raw & masks, span)
    want_lanes, want_columns = reference_first_set_column(raw, span, cols,
                                                          first)
    assert lanes.tolist() == want_lanes
    assert columns.tolist() == want_columns
    assert lanes[:3].tolist() == [2, 3, 4]
    assert columns[:3].tolist() == [3 * span - 1, span, span]


class TestWordTiles:
    """The word scans step whole blocks side by side in tiles; how many
    blocks a tile holds groups the draws and moves none of them."""

    LANES = 3 * BLOCK + 17

    def run(self, monkeypatch, blocks, kernel, label, **kw):
        monkeypatch.setattr(engine, "_WORD_TILE", blocks * BLOCK)
        gens = [RecordingGen(g)
                for g in block_substreams(self.LANES, 11, label)]
        return kernel(gens, self.LANES, **kw), [g.shapes for g in gens]

    @pytest.mark.parametrize("preload", [False, True])
    @pytest.mark.parametrize("p_zero", [0.5, 0.3])
    @pytest.mark.parametrize("tent", [False, True])
    def test_tile_width_moves_no_draw(self, monkeypatch, tent, p_zero,
                                      preload):
        # depth 8: some lanes hit in each chunk, so blocks compact apart,
        # and some are censored at a cap (and a window) that ends mid-chunk
        kw = dict(word_int=0b10110011, depth=8, tent=tent, p_zero=p_zero,
                  preload=preload)
        label = ("word-tiles", tent, p_zero, preload)
        runs = [
            (self.run(monkeypatch, blocks, word_first_hit, label,
                      cap=2 * 256 + 77, **kw),
             self.run(monkeypatch, blocks, word_hit_count, label,
                      window=256 + 77, **kw))
            for blocks in (1, 2, 3)
        ]
        (want_first, want_shapes), (want_counts, want_count_shapes) = runs[0]
        assert 0 < want_first[1].mean() < 1
        for (first, shapes), (counts, count_shapes) in runs[1:]:
            assert np.array_equal(first[0], want_first[0])  # times
            assert np.array_equal(first[1], want_first[1])  # hit flags
            assert shapes == want_shapes
            assert np.array_equal(counts, want_counts)
            assert count_shapes == want_count_shapes

    def test_hit_count_memory_is_per_tile(self):
        # the D' run of ``conditions``: window 100 at depth 10 on fair
        # digits.  The peak grows by the int64 counts per added lane; a
        # run holding its letters or carried digits for every lane at once
        # would add at least 8 bytes more.
        peaks = []
        for lanes in (50_000, 100_000):
            gens = block_substreams(lanes, 7, ("count-memory",))
            tracemalloc.start()
            try:
                word_hit_count(gens, lanes, word_int=0, depth=10, tent=False,
                               p_zero=0.5, window=100, preload=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 16 * 50_000


@st.composite
def word_scans(draw):
    """Arguments of one word-kernel run: any depth and word, the chunk
    widths around a packed word's 64 columns, and every start rule."""
    depth = draw(st.integers(1, 63))
    preload = draw(st.booleans())
    return dict(
        word_int=draw(st.integers(0, (1 << depth) - 1)), depth=depth,
        tent=draw(st.booleans()), p_zero=draw(st.sampled_from([0.5, 0.3])),
        preload=preload, start_j=draw(st.integers(int(preload), 200)),
        chunk=draw(st.sampled_from([1, 7, 63, 64, 65, 256])),
    )


class TestWordKernelProperties:
    """Random words, depths and chunk widths: the packed Shift-And scans
    equal the per-step register scans, draw for draw."""

    SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                        database=None)

    @SETTINGS
    @given(kw=word_scans(), lanes=st.integers(1, 40),
           horizon=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_first_hit(self, kw, lanes, horizon, seed):
        cap = kw["start_j"] + horizon
        want_gen = RecordingGen(substream(seed, "word-prop"))
        got_gen = RecordingGen(substream(seed, "word-prop"))
        want = reference_word_first_hit(want_gen, lanes, cap=cap, **kw)
        got = word_first_hit([got_gen], lanes, cap=cap, **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got_gen.shapes == want_gen.shapes

    @SETTINGS
    @given(kw=word_scans(), lanes=st.integers(1, 40),
           horizon=st.integers(0, 300), seed=st.integers(0, 2 ** 32))
    def test_hit_count(self, kw, lanes, horizon, seed):
        window = kw["start_j"] + horizon
        want_gen = RecordingGen(substream(seed, "count-prop"))
        got_gen = RecordingGen(substream(seed, "count-prop"))
        want = reference_word_hit_count(want_gen, lanes, window=window, **kw)
        got = word_hit_count([got_gen], lanes, window=window, **kw)
        assert np.array_equal(got, want)
        assert got_gen.shapes == want_gen.shapes


ZETAS = (0.0, 0.5, 1.0 - 2.0 ** -53)
BALL_GRID = [
    (tent, circle, zeta, start_j, p_zero, chunk, conditional)
    for tent in (False, True)
    for circle in (False, True)
    for zeta in ZETAS
    for start_j in (0, 1, LATE_START)
    for p_zero in (0.5, 0.3)
    for chunk in (7, 256)
    for conditional in (False, True)
]
WINDOW_GRID = [
    (tent, circle, zeta, p_zero, chunk)
    for tent in (False, True)
    for circle in (False, True)
    for zeta in ZETAS
    for p_zero in (0.5, 0.3)
    for chunk in (7, 256)
]


class TestBallStreamEquivalence:
    """The chunked ball kernels reproduce the per-step float-window scan
    bit for bit, drawing the same digit matrices from the same substream:
    the least float distance, and the first position in the exact ball
    [zeta - eta, zeta + eta).

    Every horizon (403 orbit points, or a cap of start_j + 403) ends
    mid-chunk at both chunk widths, and radius 0.001 leaves some lanes
    censored while enough hit for compaction."""

    LANES = 160
    ETA = 0.001

    def check(self, reference, kernel, label, **kw):
        """The kernel's outputs and draw shapes equal the reference's."""
        want_gen = RecordingGen(substream(2024, *label))
        got_gen = RecordingGen(substream(2024, *label))
        want = reference(want_gen, self.LANES, **kw)
        got = kernel(got_gen, self.LANES, **kw)
        if isinstance(want, tuple):  # a first-hit kernel's (times, hit)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            assert np.array_equal(got, want)
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize("tent,circle,zeta,p_zero,chunk", WINDOW_GRID)
    def test_min_distance(self, tent, circle, zeta, p_zero, chunk):
        label = ("window-eq", tent, circle, zeta, p_zero, chunk)
        self.check(reference_digit_window_min_distance,
                   one_block(digit_window_min_distance), label, n_steps=403,
                   p_zero=p_zero, tent=tent, zeta=zeta, circle=circle,
                   chunk=chunk)

    @pytest.mark.parametrize("tent,circle,zeta,eta", [
        # zeta with bits below 2^-53
        (False, True, 0.3, ETA), (True, False, 0.3, ETA),
        # zeta = 1 on the interval: every window lies below it
        (False, False, 1.0, ETA), (True, False, 1.0, ETA),
        # a radius of one window: the windows at zeta and zeta - 2^-53
        (False, True, 0.5, 2.0 ** -53), (True, False, 0.25, 2.0 ** -53),
        # radius 1/2 on the circle takes in the antipode 0.75, and so the
        # whole circle, as radius 0.6 does
        (False, True, 0.25, 0.5), (True, True, 0.3, 0.6),
    ])
    def test_ball_edges(self, tent, circle, zeta, eta):
        label = ("ball-edge", tent, circle, zeta, eta)
        common = dict(zeta=zeta, tent=tent, p_zero=0.3, circle=circle)
        self.check(reference_ball_first_hit_digits,
                   one_block(radius_ball_first_hit),
                   label, eta=eta, cap=403, start_j=0, **common)
        self.check(reference_digit_window_min_distance,
                   one_block(digit_window_min_distance), label, n_steps=403,
                   **common)

    @pytest.mark.parametrize("tent", [False, True])
    def test_horizon_one_past_a_byte(self, tent):
        # the last chunk has 9 steps: 7 of its second byte's 8 steps pad
        label = ("ball-horizon", tent)
        common = dict(zeta=0.5, tent=tent, p_zero=0.3, circle=True)
        self.check(reference_ball_first_hit_digits,
                   one_block(radius_ball_first_hit),
                   label, eta=0.002, cap=1 + 256 + 9, **common)
        self.check(reference_digit_window_min_distance,
                   one_block(digit_window_min_distance), label,
                   n_steps=1 + 256 + 9, **common)

    @pytest.mark.parametrize("n_steps", [1, 2, 9])
    def test_min_distance_short_horizons(self, n_steps):
        kw = dict(n_steps=n_steps, p_zero=0.3, tent=True, zeta=0.5,
                  circle=False, chunk=7)
        want_gen = RecordingGen(substream(3, "window-short", n_steps))
        got_gen = RecordingGen(substream(3, "window-short", n_steps))
        want = reference_digit_window_min_distance(want_gen, self.LANES, **kw)
        got = digit_window_min_distance([got_gen], self.LANES, **kw)
        assert np.array_equal(got, want)
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize(
        "tent,circle,zeta,start_j,p_zero,chunk,conditional", BALL_GRID
    )
    def test_first_hit(self, tent, circle, zeta, start_j, p_zero, chunk,
                       conditional):
        label = ("ball-eq", tent, circle, zeta, start_j, p_zero, chunk,
                 conditional)
        kw = dict(eta=self.ETA, zeta=zeta, tent=tent, p_zero=p_zero,
                  circle=circle, cap=start_j + 403, start_j=start_j,
                  chunk=chunk)
        if conditional:
            # starts drawn from the measure restricted to two CDF intervals
            kw["cdfs"] = ([0.2, 0.7], [0.3, 0.95])
        self.check(reference_ball_first_hit_digits,
                   one_block(radius_ball_first_hit),
                   label, **kw)

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("tent", [False, True])
    def test_compaction_shrinks_draws_identically(self, tent, chunk):
        kw = dict(eta=0.002, zeta=0.5, tent=tent, p_zero=0.3, circle=True,
                  cap=3 * 256 + 5, start_j=1, chunk=chunk)
        want_gen = RecordingGen(substream(5, "ball-compact", tent, chunk))
        got_gen = RecordingGen(substream(5, "ball-compact", tent, chunk))
        want = reference_ball_first_hit_digits(want_gen, 2048, **kw)
        got = radius_ball_first_hit([got_gen], 2048, **kw)
        assert np.array_equal(got[0], want[0])
        assert got_gen.shapes == want_gen.shapes
        # (rows, words) main draws; a byte-lane draw's tie words are 1-d
        rows = [shape[0] for shape in got_gen.shapes
                if isinstance(shape, tuple)]
        assert len(rows) > 2 and rows[-1] < rows[1]


def fast_reference_digits(gen, rows, cols, p_zero):
    """``reference_digits`` by ``draw_digits``, which ``TestDrawDigits``
    holds equal to it, at numpy speed for runs of thousands of steps."""
    return draw_digits(gen, rows, cols, p_zero, engine._Scratch())


#: ``ball-scan``'s Bernoulli(0.3) ball centre at seed 7
#: (``benchmarks/workloads.bernoulli_centre``)
SEED_7_CENTRE = 0.9293204839727804
#: a centre on a 12-bit window prefix edge: the window 1365 * 2^41
PREFIX_EDGE = 1365 / 4096


class TestLongHorizonMinDistance:
    """``digit_window_min_distance`` over a full block and a partial one,
    long enough that every chunk after the first lifts only its prefix-table
    candidates, equals the per-step float recursion block by block, with
    the same draws.  3004 fresh digits end the last chunk mid-byte."""

    LANES = BLOCK + 301
    N_STEPS = 3005

    @pytest.mark.parametrize("tent,p_zero,circle,zeta", [
        (False, 0.5, False, 0.0), (True, 0.3, True, 0.0),
        (True, 0.5, False, 1.0), (False, 0.3, True, 1.0),
        (False, 0.5, True, PREFIX_EDGE), (True, 0.3, False, PREFIX_EDGE),
        (False, 0.3, False, SEED_7_CENTRE), (True, 0.5, True, SEED_7_CENTRE),
    ])
    def test_matches_the_per_step_scan_per_block(self, tent, p_zero, circle,
                                                 zeta):
        label = ("window-long", tent, p_zero, circle, zeta)
        kw = dict(n_steps=self.N_STEPS, p_zero=p_zero, tent=tent, zeta=zeta,
                  circle=circle)
        gens = [RecordingGen(gen)
                for gen in block_substreams(self.LANES, 31, label)]
        got = digit_window_min_distance(gens, self.LANES, **kw)
        for gen, (index, lo, count) in zip(gens, block_slices(self.LANES),
                                           strict=True):
            want_gen = RecordingGen(substream(31, *label, index))
            want = reference_digit_window_min_distance(
                want_gen, count, draw=fast_reference_digits, **kw)
            assert np.array_equal(got[lo:lo + count], want)
            assert gen.shapes == want_gen.shapes

    def test_peak_memory(self):
        # the run's own allocations at ball-scan's size, 4.6 MiB: the chunk
        # temporaries, which the filtered chunks share with the dense first
        # chunk, the 1 MiB distance table and the per-lane offsets
        lanes = 10_000
        gens = block_substreams(lanes, 7, ("window-memory",))
        tracemalloc.start()
        try:
            digit_window_min_distance(gens, lanes, n_steps=5000, p_zero=0.3,
                                      tent=False, zeta=SEED_7_CENTRE,
                                      circle=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


WINDOWS = 1 << 53


def float_distances(windows, zeta, circle):
    """The float distances of the integer windows to zeta, as the per-step
    reference scan computes them."""
    pos = np.array(windows, dtype=np.int64) * 2.0 ** -53
    return _reference_distances(pos, zeta, circle)


def zetas():
    """Centres at both ends, at 1/2, on the window grid and anywhere."""
    return st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -54]),
        st.integers(0, WINDOWS).map(lambda k: k * 2.0 ** -53),
        st.floats(0.0, 1.0),
    )


class TestBallWindows:
    """The window intervals of a ball's arcs accept exactly the windows of
    the exact ball, and the nearest-offset candidates hold the float
    minimum."""

    SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                        database=None)

    @SETTINGS
    @given(zeta=zetas(),
           eta=st.one_of(st.sampled_from([2.0 ** -54, 2.0 ** -53, 0.5, 0.6]),
                         st.floats(2.0 ** -60, 1.5)),
           circle=st.booleans(),
           windows=st.lists(st.integers(0, WINDOWS - 1), max_size=20),
           low_bits=st.one_of(st.sampled_from([0, 2 ** 11 - 1]),
                              st.integers(0, 2 ** 11 - 1)))
    def test_windows_are_the_arc_predicate(self, zeta, eta, circle, windows,
                                           low_bits):
        # a measure's centres lie on its 2^-128 grid
        assume(math.ldexp(zeta, 128).is_integer())
        metric = metric_of(circle)
        pieces = engine._arc_windows(Lebesgue1D(metric).ball_arcs(zeta, eta),
                                     WINDOW_BITS)
        ends = {0, math.ceil(zeta * WINDOWS)}
        ends |= {e for start, width in pieces for e in (start, start + width)}
        probes = sorted({(e + k) % WINDOWS for e in ends for k in range(-3, 4)}
                        | set(windows))
        # membership in [zeta - eta, zeta + eta), clipped on the interval
        # and split at 0 on the circle, in exact rationals
        want = [any(a <= Fraction(w, WINDOWS) < b
                    for a, b in exact_ball_pieces(metric, zeta, eta))
                for w in probes]
        assert [any((w - start) % WINDOWS < width for start, width in pieces)
                for w in probes] == want
        # the kernels test window words: the bits below a window do not count
        words = np.array([w << 11 | low_bits for w in probes], dtype=np.uint64)
        got = engine._in_ball(words, pieces, np.empty(words.size, dtype=bool),
                              np.empty_like(words))
        assert got.tolist() == want

    @SETTINGS
    @given(zeta=zetas(), circle=st.booleans(),
           picks=st.lists(st.tuples(st.booleans(), st.one_of(
               st.integers(-40, 40), st.integers(0, WINDOWS - 1))),
               min_size=1, max_size=20))
    def test_closest_window_is_at_an_extreme_offset(self, zeta, circle,
                                                    picks):
        # windows near c, near the seam 2^53 = 0, and anywhere
        c = math.ceil(zeta * WINDOWS)
        windows = [(c * near_c + k) % WINDOWS for near_c, k in picks]
        offsets = sorted((w - c) % WINDOWS for w in windows)
        extremes = [(c + o) % WINDOWS for o in (offsets[0], offsets[-1])]
        assert (float_distances(extremes, zeta, circle).min()
                == float_distances(windows, zeta, circle).min())


PREFIX_CELL = 1 << 41  # windows that share one 12-bit prefix
FIELD_MASK = (1 << 20) - 1
# a piece wrapping past 2^53, two that cover every prefix (the whole
# circle, and all but one prefix cell less a window), and one window
EDGE_PIECES = [(WINDOWS - 3, 10), (0, WINDOWS),
               (7, WINDOWS - PREFIX_CELL + 1), (12345, 1)]


@st.composite
def window_pieces(draw):
    """One or two cyclic window intervals (start, width) of a ball."""
    piece = st.one_of(
        st.sampled_from(EDGE_PIECES),
        st.tuples(st.integers(0, WINDOWS - 1), st.integers(1, WINDOWS)),
        st.integers(1, WINDOWS - 1).flatmap(lambda start: st.tuples(
            st.just(start), st.integers(WINDOWS - start + 1, WINDOWS))),
        st.tuples(st.integers(0, WINDOWS - 1), st.integers(1, 3)),
    )
    return draw(st.lists(piece, min_size=1, max_size=2))


def lifted_inside(word, s, tent, pieces):
    """Whether the window after step s + 1 of a byte-offset word is in a
    piece, by the kernels' own lift and interval test."""
    lifted = engine._lift(np.array([word], dtype=np.uint64),
                          engine._TOP_SHIFTS[s], tent,
                          np.empty(1, dtype=np.uint64),
                          np.empty(1, dtype=np.int64))
    return bool(engine._in_ball(lifted, pieces, np.empty(1, dtype=bool),
                                np.empty(1, dtype=np.uint64))[0])


@st.composite
def distance_centres(draw):
    """The centre word ceil(zeta 2^53) << 11 mod 2^64 of a centre on or
    beside a 12-bit prefix edge k 2^41, at either end, or at zeta = 1.0,
    whose window 2^53 wraps to the word 0."""
    window = draw(st.one_of(
        st.sampled_from([0, WINDOWS - 1, WINDOWS]),
        st.tuples(st.integers(0, (1 << 12) - 1), st.integers(-1, 1)).map(
            lambda ke: (ke[0] * PREFIX_CELL + ke[1]) % WINDOWS),
        st.integers(0, WINDOWS - 1)))
    zeta = window / WINDOWS
    return (math.ceil(zeta * 2.0 ** 53) << 11) % 2 ** 64


class TestPrefixTable:
    """The ball kernel's prefilter drops no window inside the ball: every
    byte-offset word whose window lies in a piece after one of its 8 steps
    has a prefix-distance table entry at most the ball's bound, whatever
    the centre."""

    SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                        database=None)

    @staticmethod
    def candidates(pieces, centre, tent):
        """Each field's flag: its entry is at most the ball's bound."""
        centre = np.uint64(centre)
        return (engine._distance_table(centre, tent)
                <= engine._ball_bound(pieces, centre))

    @SETTINGS
    @given(pieces=window_pieces(), centre=distance_centres(),
           tent=st.booleans(), data=st.data())
    def test_every_word_inside_is_a_candidate(self, pieces, centre, tent,
                                              data):
        flagged = self.candidates(pieces, centre, tent)
        for _ in range(8):
            start, width = data.draw(st.sampled_from(pieces))
            window = (start + data.draw(st.integers(0, width - 1))) % WINDOWS
            s = data.draw(st.integers(0, 7))
            parity = data.draw(st.integers(0, 1))
            raw = window ^ (WINDOWS - 1) if tent and parity else window
            # the bits of earlier steps above the parity, later digits below
            above = data.draw(st.integers(0, (1 << (3 + s)) - 1))
            below = data.draw(st.integers(0, (1 << (7 - s)) - 1))
            word = (above << (61 - s) | parity << (60 - s) | raw << (7 - s)
                    | below)
            assert lifted_inside(word, s, tent, pieces)
            assert flagged[(word >> 41) & FIELD_MASK]
        # and any word: a step inside means a candidate
        word = data.draw(st.integers(0, 2 ** 64 - 1))
        if any(lifted_inside(word, s, tent, pieces) for s in range(8)):
            assert flagged[(word >> 41) & FIELD_MASK]

    @pytest.mark.parametrize("tent", [False, True])
    def test_pieces_over_every_prefix_flag_every_field(self, tent):
        for piece in EDGE_PIECES[1:3]:
            for centre in (0, 12345 << 11, 2 ** 63, (WINDOWS - 1) << 11):
                assert self.candidates([piece], centre, tent).all()

    @pytest.mark.parametrize("tent", [False, True])
    def test_one_window_flags_few_fields(self, tent):
        # the centre in the window's prefix cell: one prefix at each step,
        # either parity, any other bits: at most 8 * 2 * 2^7 of the 2^20
        # fields
        window = EDGE_PIECES[3][0]
        flagged = self.candidates([EDGE_PIECES[3]], window << 11, tent)
        assert 0 < flagged.sum() <= 8 * 2 * 2 ** 7

    @pytest.mark.parametrize("tent", [False, True])
    def test_no_piece_flags_no_field(self, tent):
        assert engine._ball_bound([], np.uint64(0)) == -1
        assert not self.candidates([], 0, tent).any()


def lifted_offset(word, s, tent, centre):
    """The offset (w - C) mod 2^64 from the centre word C of the window w
    after step s + 1 of a byte-offset word, by the kernels' own lift."""
    lifted = engine._lift(np.array([word], dtype=np.uint64),
                          engine._TOP_SHIFTS[s], tent,
                          np.empty(1, dtype=np.uint64),
                          np.empty(1, dtype=np.int64))
    return (int(lifted[0]) - centre) % 2 ** 64


def offsets_past(offset):
    """Offsets just above ``offset``, a few prefix cells above it, or
    anywhere above it."""
    return st.one_of(st.sampled_from([1, 2]), st.integers(1, 1 << 53),
                     st.integers(1, 2 ** 64)).map(
        lambda gap: min(offset + gap, 2 ** 64 - 1))


def offsets_between(lo, hi):
    """Offsets in [lo, hi], in the prefix cell of either end or anywhere: a
    lane's least offset sits near 0 and its greatest near 2^64 once it has
    run a while."""
    return st.one_of(st.integers(lo, min(hi, lo + (1 << 52))),
                     st.integers(max(lo, hi - (1 << 52)), hi),
                     st.integers(lo, hi))


class TestDistanceTable:
    """The min-distance kernel's prefilter drops no step that moves an
    extreme offset: a step whose offset lies below a lane's least offset
    ``low`` or above its greatest ``high`` sits in a word whose distance
    table entry is at most the lane's threshold."""

    SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                        database=None)

    @staticmethod
    def threshold(low, high):
        return int(engine._thresholds(np.array([low], dtype=np.uint64),
                                      np.array([high], dtype=np.uint64))[0])

    @SETTINGS
    @given(centre=distance_centres(), tent=st.booleans(), data=st.data())
    def test_a_step_past_an_extreme_passes_the_threshold(self, centre, tent,
                                                          data):
        table = engine._distance_table(np.uint64(centre), tent)
        q, r = divmod(centre >> 11, PREFIX_CELL)
        for _ in range(6):
            # a window a few prefix cells from the centre's, or anywhere,
            # with the bits below its prefix below, at or above the centre's
            cell = data.draw(st.one_of(st.integers(-300, 300),
                                       st.integers(0, 4095)))
            rest = data.draw(st.one_of(
                st.sampled_from([0, PREFIX_CELL - 1]),
                st.integers(-1, 1).map(lambda e: (r + e) % PREFIX_CELL),
                st.integers(0, PREFIX_CELL - 1)))
            window = (q + cell) % 4096 * PREFIX_CELL + rest
            s = data.draw(st.integers(0, 7))
            parity = data.draw(st.integers(0, 1))
            raw = window ^ (WINDOWS - 1) if tent and parity else window
            above = data.draw(st.integers(0, (1 << (3 + s)) - 1))
            below = data.draw(st.integers(0, (1 << (7 - s)) - 1))
            word = (above << (61 - s) | parity << (60 - s) | raw << (7 - s)
                    | below)
            offset = lifted_offset(word, s, tent, centre)
            entry = table[(word >> 41) & FIELD_MASK]
            # a lane whose least offset lies above the step's
            if offset < 2 ** 64 - 1:
                low = data.draw(offsets_past(offset))
                high = data.draw(offsets_between(low, 2 ** 64 - 1))
                assert entry <= self.threshold(low, high)
            # a lane whose greatest offset lies below it
            if offset:
                high = 2 ** 64 - 1 - data.draw(
                    offsets_past(2 ** 64 - 1 - offset))
                low = data.draw(offsets_between(0, high))
                assert entry <= self.threshold(low, high)
        # and any word against any lane
        word = data.draw(st.integers(0, 2 ** 64 - 1))
        low = data.draw(st.integers(0, 2 ** 64 - 1))
        high = data.draw(st.integers(low, 2 ** 64 - 1))
        offsets = [lifted_offset(word, s, tent, centre) for s in range(8)]
        if any(o < low or o > high for o in offsets):
            assert table[(word >> 41) & FIELD_MASK] <= self.threshold(low,
                                                                      high)

    @pytest.mark.parametrize("tent", [False, True])
    def test_entries_are_the_least_step_distance(self, tent):
        # step s reads its tent parity at field bit 19 - s and its prefix
        # below it; a tent prefix under parity 1 is complemented
        fields = np.random.default_rng(5).integers(0, 1 << 20, 300).tolist()
        for centre in (0, 1365 << 52 | 12345 << 11, 2 ** 64 - 2 ** 11):
            table = engine._distance_table(np.uint64(centre), tent)
            q = centre >> 52
            for field in fields:
                least = 255
                for s in range(8):
                    prefix = field >> (7 - s) & 4095
                    if tent and field >> (19 - s) & 1:
                        prefix ^= 4095
                    d = (prefix - q) % 4096
                    least = min(least, d, 4096 - d)
                assert table[field] == least


def reference_rotation_first_hit(count, *, step_fixed, lo, hi, cap,
                                 start_j=1, starts, chunk=64):
    """Per-step reference for ``rotation_first_hit``: one rotation step per
    iteration over every live lane."""
    s = starts.copy()
    step = np.uint64(step_fixed)
    m = np.uint64(FIXED_ONE)
    lo_u, hi_u = np.uint64(lo), np.uint64(hi)
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    if start_j:
        s += np.uint64((start_j * step_fixed) % FIXED_ONE)
        s[s >= m] -= m
    j = start_j
    steps_since_compact = 0
    while j < cap and lane.size:
        hits = (s >= lo_u) & (s < hi_u) & ~done
        if hits.any():
            times[lane[hits]] = j
            done |= hits
        s += step
        s[s >= m] -= m
        j += 1
        steps_since_compact += 1
        if steps_since_compact >= chunk:
            steps_since_compact = 0
            if done.mean() > 0.25:
                keep = ~done
                lane, s, done = lane[keep], s[keep], done[keep]
    return times, times < cap


def reference_mp_first_hit(count, *, s_exp, lo, hi, cap, start_j,
                           starts, chunk=64):
    """Per-step reference for ``mp_first_hit``, comparing floats."""
    x = starts.copy()
    e = 1.0 + s_exp
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    j = 0
    steps_since_compact = 0
    while j < cap and lane.size:
        if j >= start_j:
            hits = (x >= lo) & (x < hi) & ~done
            if hits.any():
                times[lane[hits]] = j
                done |= hits
        x = x + x**e
        x -= x >= 1.0
        j += 1
        steps_since_compact += 1
        if steps_since_compact >= chunk:
            steps_since_compact = 0
            if done.mean() > 0.25:
                keep = ~done
                lane, x, done = lane[keep], x[keep], done[keep]
    return times, times < cap


def reference_first_inside(inside, first, cols):
    """Per-lane scan of a (cols, lanes) plane: ``engine._first_inside``."""
    return np.array([
        next((c for c in range(first, cols) if inside[c, lane]), cols)
        for lane in range(inside.shape[1])])


class TestFirstInside:
    """``engine._first_inside`` reads a (cols, lanes) plane, whose row c
    holds column c of every lane, from column ``first`` on, and returns
    only the lanes with an inside column."""

    @pytest.mark.parametrize("cols", [1, 7, 64])
    @pytest.mark.parametrize("first_at", ["zero", "middle", "last"])
    def test_matches_per_lane_scan(self, cols, first_at):
        first = {"zero": 0, "middle": cols // 2, "last": cols - 1}[first_at]
        scratch = engine._Scratch()
        # a chunk's plane, then a shorter one over its stale bytes, as a
        # scan's last chunk takes it
        scratch("inside", (64, 300), bool)[...] = True
        inside = scratch("inside", (cols, 300), bool)
        gen = substream(5, "first-inside", cols, first)
        np.less(gen.random(inside.shape), 0.05, out=inside)
        inside[:, :4] = False  # lane 0 has no hit
        inside[:first, 1] = True  # lane 1 hits only before first
        inside[first, 2] = True
        inside[cols - 1, 3] = True
        lanes, columns = engine._first_inside(inside, first)
        want = reference_first_inside(inside, first, cols)
        assert np.array_equal(lanes, np.flatnonzero(want < cols))
        assert np.array_equal(columns, want[want < cols])
        assert lanes[:2].tolist() == [2, 3]  # lanes 0 and 1 have no hit
        assert columns[:2].tolist() == [first, cols - 1]


# Blocks of 8, 6, 8, 5 and 8 lanes, numbered across the run, and the
# iterates at which each lane is inside the target; chunks of 4 iterates
# from j = 1 (1 .. 4, 5 .. 8, ...) up to the cap 23, whose last chunk is 2.
COMPACT_SIZES = (8, 6, 8, 5, 8)
COMPACT_HITS = (
    (2,), (3, 10), (4,), (9,), (), (12, 13), (18,), (23,),  # block 0
    (1,), (6,), (7,), (22,), (20,), (15,),  # block 1
    (5,), (6,), (7,), (8,), (5, 30), (6,), (8,), (7,),  # block 2
    (3,), (), (11,), (12,), (10,),  # block 3
    (14,), (15,), (16,), (13,), (14,), (16,), (13, 2), (15,),  # block 4
)
# block 2 is all inside at 5 .. 8 and block 4 at 13 .. 16


def model_first_hit(sizes, hits, cap, start_j, j, chunk, before):
    """Per-block model of ``engine._first_hit``'s rows: after each chunk, a
    block keeps only its lanes not done once more than a quarter of its
    live lanes are done.  Returns the times, the (chunk start, block,
    lanes) of every block that steps, and for each chunk the blocks that
    drop lanes, with how many each keeps, and the blocks that keep all."""
    times = [cap] * len(hits)
    done = set(before)
    for lane in before:
        times[lane] = j - 1
    edges = np.cumsum((0, *sizes))
    blocks = [list(range(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    steps, chunks = [], []
    while j < cap and any(blocks):
        cols = min(chunk, cap - j)
        for k, lanes in enumerate(blocks):
            if lanes:
                steps.append((j, k, tuple(lanes)))
            for lane in set(lanes) - done:
                inside = [t for t in hits[lane]
                          if max(start_j, j) <= t < j + cols]
                if inside:
                    times[lane] = min(inside)
                    done.add(lane)
        dropped, kept = {}, []
        for k, lanes in enumerate(blocks):
            if lanes and 4 * len(done.intersection(lanes)) > len(lanes):
                blocks[k] = [lane for lane in lanes if lane not in done]
                dropped[k] = len(blocks[k])
            elif lanes:
                kept.append(k)
        chunks.append((dropped, kept))
        j += cols
    return times, steps, chunks


class TestCompaction:
    """``engine._first_hit`` under a scripted scan: the rows each block
    steps, which fix every block's next draw, follow the per-block rule
    that ``model_first_hit`` states."""

    @staticmethod
    def scripted_scan(hits, steps):
        """A scan whose lanes carry their number and their next iterate
        as state, and hit at ``hits``; it records each block's lanes."""
        def scan(tile, state, cols, first):
            lane, at = state
            j = int(at[0])
            assert np.all(at == j)
            lo = 0
            for k, rows in tile:
                steps.append((j, k, tuple(lane[lo:lo + rows].tolist())))
                lo += rows
            assert lo == lane.size
            columns = [min((t - j for t in hits[n]
                            if first <= t - j < cols), default=cols)
                       for n in lane.tolist()]
            columns = np.array(columns, dtype=np.int64)
            inside = np.flatnonzero(columns < cols)
            return (inside, columns[inside]), (lane, at + cols)
        return scan

    @pytest.mark.parametrize("most", [1, 12, 64])
    @pytest.mark.parametrize("start_j, before", [
        (0, (22, 23)),  # the start inside: block 3 drops two lanes at once
        (6, ()),  # the iterates before start_j do not count
    ], ids=["inside-before", "late-start"])
    def test_rows_follow_the_per_block_rule(self, most, start_j, before):
        cap, j, chunk = 23, 1, 4
        count = sum(COMPACT_SIZES)
        want, want_steps, chunks = model_first_hit(
            COMPACT_SIZES, COMPACT_HITS, cap, start_j, j, chunk, before)
        # the table reaches every case of the rule: a block emptied, and a
        # block dropping lanes in the same chunk as a later one that keeps
        # its rows and only moves down
        assert any(0 in dropped.values() for dropped, _ in chunks)
        assert any(dropped and kept and min(dropped) < max(kept)
                   for dropped, kept in chunks)
        inside_before = np.zeros(count, dtype=bool)
        inside_before[list(before)] = True
        steps = []
        times, hit = engine._first_hit(
            list(COMPACT_SIZES), cap, start_j, j, chunk,
            self.scripted_scan(COMPACT_HITS, steps),
            (np.arange(count), np.full(count, j, dtype=np.int64)),
            inside_before if before else None, most=most)
        assert steps == want_steps
        assert times.tolist() == want
        assert np.array_equal(hit, times < cap)


class TestScratch:
    def test_a_view_is_made_once_per_shape(self):
        scratch = engine._Scratch()
        view = scratch("a", (4, 2), np.uint64)
        assert scratch("a", (4, 2), np.uint64) is view
        assert np.shares_memory(scratch("a", (2,), bool), view)

    def test_a_grown_buffer_drops_its_old_views(self):
        scratch = engine._Scratch()
        small = scratch("a", (4,), np.uint64)
        other = scratch("b", (4,), np.uint64)
        large = scratch("a", (4096,), np.uint64)
        again = scratch("a", (4,), np.uint64)
        assert np.shares_memory(again, large)
        assert not np.shares_memory(again, small)
        assert scratch("b", (4,), np.uint64) is other


# Starts around the chunk boundary at 64; the caps end mid-chunk at both
# chunk widths, and 66 leaves a single eligible iterate at start_j = 65.
ORBIT_GRID = [
    (start_j, cap, conditional, chunk)
    for start_j in (0, 1, 63, 64, 65)
    for cap in (66, 300)
    for conditional in (False, True)
    for chunk in (7, 64)
]


class TestOrbitKernelEquivalence:
    """The chunked rotation and intermittent kernels reproduce the per-step
    scans array for array.  Enough of the 2048 lanes hit within the long cap
    that the live set is compacted."""

    LANES = 2048

    @pytest.mark.parametrize("angle", ["golden", math.pi / 10])
    @pytest.mark.parametrize("start_j,cap,conditional,chunk", ORBIT_GRID)
    def test_rotation(self, angle, start_j, cap, conditional, chunk):
        step = rotation(angle).fixed_angle
        lo, hi = int(0.2 * FIXED_ONE), int(0.23 * FIXED_ONE)
        label = ("rot-eq", angle, start_j, cap, conditional, chunk)
        if conditional:
            # starts inside the arc, as for return times
            starts = substream(7, "starts", *label).integers(
                lo, hi, size=self.LANES, dtype=np.uint64)
        else:
            starts = grid_starts(substream(7, *label), self.LANES)
        kw = dict(step_fixed=step, lo=lo, hi=hi, cap=cap, start_j=start_j,
                  starts=starts, chunk=chunk)
        want = reference_rotation_first_hit(self.LANES, **kw)
        kept = starts.copy()
        got = rotation_first_hit(self.LANES, **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(starts, kept)  # the caller's starts stay put
        if cap == 300:
            assert want[1].mean() > 0.25

    @pytest.mark.parametrize("start_j,cap,conditional,chunk", ORBIT_GRID)
    def test_intermittent(self, start_j, cap, conditional, chunk):
        zeta, eta = 0.4, 0.05
        gen = substream(7, "mp-starts", start_j, cap, conditional, chunk)
        if conditional:
            # starts inside the ball, as for return times
            starts = zeta + eta * (2.0 * gen.random(self.LANES) - 1.0)
        else:
            starts = gen.random(self.LANES)
        kw = dict(s_exp=0.6, lo=zeta - eta, hi=zeta + eta, cap=cap,
                  start_j=start_j, starts=starts, chunk=chunk)
        want = reference_mp_first_hit(self.LANES, **kw)
        kept = starts.copy()
        got = mp_first_hit(self.LANES, **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(starts, kept)  # the caller's starts stay put
        if cap == 300:
            assert want[1].mean() > 0.25


def reference_iid_min_distance_uniform(gen, count, *, n_draws, zeta, circle,
                                       chunk=512):
    """``iid_min_distance_uniform`` with one (count, cols) draw per chunk."""
    best = np.full(count, np.inf)
    left = n_draws
    while left > 0:
        cols = min(chunk, left)
        d = _reference_distances(gen.random((count, cols)), zeta, circle)
        best = np.minimum(best, d.min(axis=1))
        left -= cols
    return best


class TestIidUniformTiles:
    @pytest.mark.parametrize("circle", [False, True])
    @pytest.mark.parametrize("n_draws", [1, 511, 512, 513, 5000])
    @pytest.mark.parametrize("count", [1, 255, 256, 257, 2048])
    def test_tiles_equal_one_draw(self, count, n_draws, circle):
        a = substream(19, "iid-tiles", count, n_draws)
        b = substream(19, "iid-tiles", count, n_draws)
        got = iid_min_distance_uniform(a, count, n_draws=n_draws, zeta=0.8,
                                       circle=circle)
        want = reference_iid_min_distance_uniform(b, count, n_draws=n_draws,
                                                  zeta=0.8, circle=circle)
        assert np.array_equal(got, want)
        # both consumed the stream identically
        assert np.array_equal(a.bit_generator.random_raw(4),
                              b.bit_generator.random_raw(4))


#: p_zero values of the Bernoulli rule: the ends of its range and skews
BYTE_LANE_P = [0.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.3, 0.01, 0.99]


def threshold(p_zero):
    """T = ceil(p_zero * 2^53), exactly: a digit is 1 with mass 1 - T/2^53."""
    return math.ceil(Fraction(p_zero) * 2 ** 53)


class TestDrawDigits:
    @pytest.mark.parametrize("cols", [1, 53, 63, 64, 65, 256])
    def test_fair_digits_unpack_raw_words(self, cols):
        rows = 7
        a = substream(17, "packed", cols)
        b = substream(17, "packed", cols)
        got = draw_digits(a, rows, cols, 0.5, engine._Scratch())
        assert got.dtype == np.uint64
        assert got.shape == (rows, math.ceil(cols / 64))
        # the same words as the byte rule's digits packed, zero past cols
        assert np.array_equal(got, reference_digits(b, rows, cols, 0.5))
        # the draw spent exactly rows * ceil(cols / 64) raw words
        c = substream(17, "packed", cols)
        c.bit_generator.random_raw(rows * math.ceil(cols / 64))
        assert np.array_equal(a.bit_generator.random_raw(4),
                              c.bit_generator.random_raw(4))

    def test_every_bit_position_is_a_fair_coin(self):
        # one raw word per row: column c is bit position c of every word
        n = 10 ** 5
        words = draw_digits(substream(17, "fair-bits"), n, 64, 0.5,
                            engine._Scratch())
        rate = unpack_digits(words, 64).mean(axis=0)
        z = (rate - 0.5) / math.sqrt(0.25 / n)
        assert np.abs(z).max() <= 4.0

    @pytest.mark.parametrize("cols", [1, 53, 100, 256])
    @pytest.mark.parametrize("p_zero", BYTE_LANE_P)
    def test_equals_reference_and_stream(self, p_zero, cols):
        rows = 64
        a = substream(17, "digits", p_zero, cols)
        b = substream(17, "digits", p_zero, cols)
        got = draw_digits(a, rows, cols, p_zero, engine._Scratch())
        assert got.dtype == np.uint64
        assert got.shape == (rows, math.ceil(cols / 64))
        assert np.array_equal(got, reference_digits(b, rows, cols, p_zero))
        # the draw spent rows * ceil(ceil(cols / 8) / 4) raw words, plus one
        # per digit lane whose cell a CDF boundary splits
        c = substream(17, "digits", p_zero, cols)
        n_lanes = math.ceil(cols / 8)
        raw = c.bit_generator.random_raw((rows, math.ceil(n_lanes / 4)))
        lanes = raw.astype("<u8").view("<u2")[:, :n_lanes]
        ties = sum(lane_bytes(p_zero)[v] is None
                   for v in lanes.ravel().tolist())
        c.bit_generator.random_raw(ties)
        assert np.array_equal(a.bit_generator.random_raw(4),
                              c.bit_generator.random_raw(4))

    @pytest.mark.parametrize("cols", [1, 53, 64, 100, 256])
    @pytest.mark.parametrize("p_zero", [0.5, 0.3])
    def test_transposed_out_equals_contiguous_draw(self, p_zero, cols):
        # a word scan's letter buffer: one column per lane of a
        # (words + 1, lanes) array; the draw fills its block's columns
        # below row 0, which holds the carried digits
        rows, words = 37, math.ceil(cols / 64)
        a = substream(17, "transposed", p_zero, cols)
        b = substream(17, "transposed", p_zero, cols)
        buf = np.full((words + 1, rows + 9), 7, dtype=np.uint64)
        out = buf[1:, 4:4 + rows].T
        got = draw_digits(a, rows, cols, p_zero, engine._Scratch(), out=out)
        want = draw_digits(b, rows, cols, p_zero, engine._Scratch())
        assert got is out
        assert np.array_equal(out, want)
        outside = np.ones(buf.shape, dtype=bool)
        outside[1:, 4:4 + rows] = False
        assert (buf[outside] == 7).all()
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()

    @pytest.mark.parametrize("p_zero", [0.3, 0.01, 0.999])
    def test_scratch_reuse_equals_fresh_draws(self, p_zero):
        # one scratch through shapes that shrink and grow back: each draw
        # equals a fresh draw on a twin substream, and leaves its generator
        # where the twin's stands, tie words included
        scratch = engine._Scratch()
        a = substream(17, "scratch", p_zero)
        b = substream(17, "scratch", p_zero)
        for rows, cols in [(2048, 256), (7, 53), (3000, 129), (1, 1),
                           (2048, 256)]:
            got = draw_digits(a, rows, cols, p_zero, scratch)
            want = draw_digits(b, rows, cols, p_zero, engine._Scratch())
            assert got.dtype == np.uint64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert a.bit_generator.random_raw() == b.bit_generator.random_raw()

    @pytest.mark.parametrize("p_zero", [0.3, 0.01, 0.99, 2.0 ** -53,
                                        1.0 - 2.0 ** -53])
    def test_scripted_bytes_and_ties(self, p_zero):
        bounds = byte_cdf(p_zero)
        by_lane = lane_bytes(p_zero)
        tie = by_lane.index(None)
        # a cell below the tie cell and one above it, where there are
        below = next((v for v in range(tie - 1, -1, -1)
                      if by_lane[v] is not None), None)
        above = next((v for v in range(tie + 1, 2 ** 16)
                      if by_lane[v] is not None), None)
        # 3 rows of 8 lanes: ties in rows 0 and 2 only, so their tie words
        # pin the row-major order of the ties
        layout = [
            [tie, below, above, tie, above, below, tie, tie],
            [below, above, below, above, below, above, below, above],
            [above, tie, below, tie, below, above, below, tie],
        ]
        table = [[tie if v is None else v for v in row] for row in layout]
        raw = np.array([[sum(v << 16 * i
                             for i, v in enumerate(row[4 * k:4 * k + 4]))
                         for k in range(2)] for row in table], dtype=np.uint64)
        n_ties = sum(row.count(tie) for row in table)
        # tie words cycle through words that decide the byte alone:
        # around the top word of the cell's first boundary, and the ends
        first = next(b for b in bounds if b * 2 ** 16 > tie)
        top = math.floor((first * 2 ** 16 - tie) * 2 ** 64)

        def tie_byte(w):
            return inverted_byte(bounds, Fraction(tie, 2 ** 16)
                                 + Fraction(w, 2 ** 80), Fraction(1, 2 ** 80))

        choices = [w for w in (top - 1, top + 1, 2 ** 63, 0, 2 ** 64 - 1)
                   if 0 <= w < 2 ** 64 and tie_byte(w) is not None]
        assert len({tie_byte(w) for w in choices}) > 1
        tie_words = [choices[k % len(choices)] for k in range(n_ties)]
        calls = []

        def random_raw(shape):
            calls.append(shape)
            return raw if len(calls) == 1 else np.array(tie_words,
                                                        dtype=np.uint64)

        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=random_raw))
        got = unpack_digits(
            draw_digits(gen, 3, 64, p_zero, engine._Scratch()), 64)
        assert calls == [(3, 2), n_ties]
        words = iter(tie_words)
        want = []
        for row in table:
            digits = []
            for v in row:
                byte = tie_byte(next(words)) if v == tie else by_lane[v]
                digits += [(byte >> (7 - i)) & 1 == 1 for i in range(8)]
            want.append(digits)
        assert got.tolist() == want

    def test_no_ties_no_extra_word(self):
        by_lane = lane_bytes(0.3)
        assert by_lane[0] == 0 and by_lane[2 ** 16 - 1] == 255
        # 3 digit lanes and an unused fourth lane in a tie cell
        tie = by_lane.index(None)
        raw = np.full((2, 1), 0xFFFF_FFFF_FFFF | tie << 48, dtype=np.uint64)
        raw[1, 0] = 0xFFFF_FFFF | tie << 48
        calls = []

        def random_raw(shape):
            calls.append(shape)
            return raw

        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=random_raw))
        got = unpack_digits(draw_digits(gen, 2, 24, 0.3, engine._Scratch()),
                            24)
        assert calls == [(2, 1)]
        assert got.sum(axis=1).tolist() == [24, 16]

    @pytest.mark.parametrize("p_zero", [0.3, 2.0 ** -53])
    @pytest.mark.parametrize("equal_words", [1, 2])
    @pytest.mark.parametrize("past", [False, True])
    def test_equal_tie_word_takes_further_words(self, p_zero, equal_words,
                                                past):
        # a boundary with bits past its top word, inside a tie cell; at
        # 2^-53 every boundary lies in cell 0, and this is the greatest
        bounds = byte_cdf(p_zero)
        boundary = next(b for b in reversed(bounds[1:-1])
                        if (b * 2 ** 80).denominator > 1)
        cell = math.floor(boundary * 2 ** 16)
        offset = boundary * 2 ** 16 - cell
        words = [math.floor(offset * 2 ** (64 * (k + 1))) % 2 ** 64
                 for k in range(equal_words + 1)]
        # row 0's tie word equals the boundary's top word (and so do the
        # further words but the last); row 1's tie word passes it, so row
        # 1 is decided and row 0 takes its further words after both
        last = words[equal_words] + (1 if past else -1)
        assert 0 <= last < 2 ** 64
        script = [np.array([[cell], [cell]], dtype=np.uint64),
                  np.array([words[0], words[0] + 1], dtype=np.uint64),
                  *[np.array([w], dtype=np.uint64)
                    for w in words[1:equal_words] + [last]]]
        calls = []

        def random_raw(shape):
            calls.append(shape)
            return script[len(calls) - 1]

        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=random_raw))
        got = unpack_digits(draw_digits(gen, 2, 8, p_zero, engine._Scratch()),
                            8)
        assert calls == [(2, 1), 2] + [1] * equal_words
        point = Fraction(cell, 2 ** 16) + sum(
            Fraction(w, 2 ** (16 + 64 * (k + 1)))
            for k, w in enumerate(words[:equal_words] + [last]))
        width = Fraction(1, 2 ** (16 + 64 * (equal_words + 1)))
        byte = inverted_byte(bounds, point, width)
        # the boundary's own byte starts at it
        assert (byte == bounds.index(boundary)) == past
        row_1 = inverted_byte(bounds, Fraction(cell, 2 ** 16)
                              + Fraction(words[0] + 1, 2 ** 80),
                              Fraction(1, 2 ** 80))
        assert [int("".join(str(int(d)) for d in row), 2)
                for row in got] == [byte, row_1]

    @pytest.mark.parametrize("p_zero", BYTE_LANE_P)
    def test_table_gives_each_byte_its_exact_atom(self, p_zero):
        # each byte's whole cells and its shares of the split cells, in
        # units of 2^-464, equal its atom q^(8 - a) (1 - q)^a exactly
        law = engine._byte_law(p_zero)
        entry = law.table.astype(np.int64)
        low, split = entry & 0xFF, entry >= 0x100
        mass = [n << 448 for n in
                np.bincount(low[~split], minlength=256).tolist()]
        for v in np.flatnonzero(split).tolist():
            cuts = [o for o, c in zip(law.offsets, law.cell.tolist())
                    if c == v]
            assert cuts and all(0 < o < 2 ** 448 for o in cuts)
            edges = [0, *cuts, 2 ** 448]
            for k in range(len(cuts) + 1):
                mass[low[v] + k] += edges[k + 1] - edges[k]
        t = threshold(p_zero)
        assert mass == [t ** (8 - a) * (2 ** 53 - t) ** a << 40
                        for a in (b.bit_count() for b in range(256))]

    @pytest.mark.parametrize("p_zero", [0.3, 0.01])
    def test_digit_and_pair_frequencies(self, p_zero):
        # 10^7 digits, 64 to a row; pairs inside a byte, (2k, 2k + 1), and
        # across bytes and lanes, (8i + 7, 8i + 8), each a set of disjoint
        # pairs, so their counts are multinomial under independence
        rows = 156_250
        words = draw_digits(substream(23, "pairs", p_zero), rows, 64,
                            p_zero, engine._Scratch())
        digits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
        q = threshold(p_zero) / 2.0 ** 53
        n = digits.size
        z = (digits.mean() - (1 - q)) / math.sqrt(q * (1 - q) / n)
        assert abs(z) <= 4.0
        for first in (np.arange(0, 64, 2), np.arange(7, 63, 8)):
            pairs = 2 * digits[:, first] + digits[:, first + 1]
            counts = np.bincount(pairs.ravel(), minlength=4)
            want = np.array([q * q, q * (1 - q), (1 - q) * q,
                             (1 - q) * (1 - q)])
            z = (counts - pairs.size * want) / np.sqrt(
                pairs.size * want * (1 - want))
            assert np.abs(z).max() <= 4.0, z

    @pytest.mark.parametrize("p_zero", [0.3, 0.01])
    def test_every_byte_lane_has_the_exact_law(self, p_zero):
        # 10^7 digits, 64 to a row: column c is byte lane c mod 8
        rows = 156_250
        words = draw_digits(substream(17, "byte-lanes", p_zero), rows, 64,
                            p_zero, engine._Scratch())
        digits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
        p_one = 1.0 - threshold(p_zero) / 2.0 ** 53
        n = digits.size
        z = (digits.mean() - p_one) / math.sqrt(p_one * (1.0 - p_one) / n)
        assert abs(z) <= 4.0
        by_lane = digits.reshape(rows, 8, 8).mean(axis=(0, 1))
        z = (by_lane - p_one) / math.sqrt(p_one * (1.0 - p_one) / (n / 8))
        assert np.abs(z).max() <= 4.0


#: a word with no short period, and one of period 1
EXACT_WORDS = {"generic": 0b101100111010, "periodic": 0b111111111111}
EXACT_GRID = [
    pytest.param(word_int, tent, p_zero,
                 id=f"{name}-{'tent' if tent else 'doubling'}-{p_zero}")
    for name, word_int in EXACT_WORDS.items()
    for tent, p_zero in ((True, 0.5), (False, 0.5), (False, 0.3))
]


class TestExactCylinderLaw:
    """The word kernels sample the exact law of a first cylinder entry.

    Tent letters under fair digits and doubling letters under any
    Bernoulli digits are iid, so the no-entry probability of a window is a
    KMP transfer-matrix power (``reference.no_entry_probability``), and
    the expected number of entries is the number of windows times the
    cylinder's mass.  Both hold at |z| <= 4 for the packed fair draws and
    for the thresholded ones: a check on the law of the digit stream, not
    on its bytes."""

    DEPTH = 12

    def letters(self, word_int):
        return format(word_int, f"0{self.DEPTH}b")

    def mass(self, word_int, p_zero):
        ones = self.letters(word_int).count("1")
        return (1.0 - p_zero) ** ones * p_zero ** (self.DEPTH - ones)

    @pytest.mark.parametrize("word_int,tent,p_zero", EXACT_GRID)
    def test_no_entry_share(self, word_int, tent, p_zero):
        lanes = 20000
        # a window of one mean return (tau = 1): iterates 1 .. cap - 1 read
        # letters 1 .. cap + depth - 2
        cap = 1 + round(1.0 / self.mass(word_int, p_zero))
        exact = no_entry_probability(self.letters(word_int), 1.0 - p_zero,
                                     cap + self.DEPTH - 2)
        _, hit = word_first_hit(
            block_substreams(lanes, 11,
                             ("exact-no-entry", word_int, tent, p_zero)),
            lanes,
            word_int=word_int, depth=self.DEPTH, tent=tent, p_zero=p_zero,
            cap=cap, start_j=1)
        share = 1.0 - hit.mean()
        z = (share - exact) / math.sqrt(exact * (1.0 - exact) / lanes)
        assert abs(z) <= 4.0

    @pytest.mark.parametrize("word_int,tent,p_zero", EXACT_GRID)
    def test_mean_entry_count(self, word_int, tent, p_zero):
        lanes, start_j = 4000, 3
        mu = self.mass(word_int, p_zero)
        window = round(1.0 / mu)
        counts = word_hit_count(
            block_substreams(lanes, 11,
                             ("exact-count", word_int, tent, p_zero)), lanes,
            word_int=word_int, depth=self.DEPTH, tent=tent, p_zero=p_zero,
            window=window, start_j=start_j)
        expected = (window - start_j + 1) * mu
        z = (counts.mean() - expected) / (counts.std(ddof=1)
                                          / math.sqrt(lanes))
        assert abs(z) <= 4.0


class TestBallHitKernel:
    def test_matches_brute_force_on_stream(self, script):
        eta, zeta = 0.07, 0.65
        cap = 30
        rows = random_digit_rows(40, 53 + cap - 1, seed=5)
        script(rows)
        times, hit = radius_ball_first_hit(
            [None], 40, eta=eta, zeta=zeta, tent=True, p_zero=0.5,
            circle=False, cap=cap, start_j=1,
        )
        # the exact ball [zeta - eta, zeta + eta)
        lo, hi = Fraction(zeta) - Fraction(eta), Fraction(zeta) + Fraction(eta)
        for i, row in enumerate(rows):
            cur = BitStreamPoint.from_digits(row)
            want = cap
            for j in range(cap):
                if j >= 1 and lo <= Fraction(cur.value(53)) < hi:
                    want = j
                    break
                cur = cur.shifted(1, tent=True)
            assert times[i] == want, i
            assert hit[i] == (want < cap)

    def test_conditional_initial_digits_are_respected(self):
        # starts drawn inside the ball: with start_j = 0 they hit at once
        times, hit = radius_ball_first_hit(
            [substream(3, "cond")], 64, eta=0.05, zeta=0.5, tent=False,
            p_zero=0.5, circle=False, cap=10, start_j=0,
            cdfs=([0.45], [0.55]),
        )
        assert hit.all() and (times == 0).all()

    @pytest.mark.parametrize("start_j", [0, 1])
    @pytest.mark.parametrize("tent", [False, True])
    def test_ball_without_a_window_censors_every_lane(self, tent, start_j):
        # 0.3 lies off the window grid, 2^-54 from the nearest window
        zeta, eta, cap, lanes = 0.3, 2.0 ** -60, 300, BLOCK + 5
        arcs = Lebesgue1D(Metric.INTERVAL).ball_arcs(zeta, eta)
        assert arcs and engine._arc_windows(arcs, WINDOW_BITS) == []
        times, hit = ball_first_hit_digits(
            block_substreams(lanes, 3, ("no-window", tent)), lanes, arcs=arcs,
            zeta=zeta, tent=tent, p_zero=0.5, cap=cap, start_j=start_j)
        assert not hit.any() and (times == cap).all()

    @staticmethod
    def starts_inside(script, windows, zeta, eta, circle):
        """Which start windows the kernel counts as inside the ball: with
        start_j = 0 and cap 1 it reads the start windows alone."""
        script([[(w >> (52 - k)) & 1 for k in range(53)] for w in windows])
        times, hit = radius_ball_first_hit(
            [None], len(windows), eta=eta, zeta=zeta, tent=False, p_zero=0.5,
            circle=circle, cap=1, start_j=0)
        assert np.array_equal(hit, times == 0)
        return hit.tolist()

    def test_window_at_zeta_less_eta_is_inside(self, script):
        # a window at exactly zeta - eta lies in [zeta - eta, zeta + eta)
        arcs = Lebesgue1D(Metric.CIRCLE).ball_arcs(0.5, 2.0 ** -53)
        assert engine._arc_windows(arcs, WINDOW_BITS) == [(2 ** 52 - 1, 2)]
        windows = [2 ** 52 - 2, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1]
        assert self.starts_inside(script, windows, 0.5, 2.0 ** -53,
                                  True) == [False, True, True, False]

    def test_half_circle_radius_takes_in_the_antipode(self, script):
        arcs = Lebesgue1D(Metric.CIRCLE).ball_arcs(0.25, 0.5)
        assert engine._arc_windows(arcs, WINDOW_BITS) == [(0, WINDOWS)]
        antipode = 3 * 2 ** 51  # 0.75
        assert self.starts_inside(script, [antipode - 1, antipode,
                                           antipode + 1], 0.25, 0.5,
                                  True) == [True, True, True]


class TestRotationKernels:
    def setup_method(self):
        self.system = rotation("golden")
        self.step = self.system.fixed_angle

    def test_first_hit_matches_scalar_orbit(self):
        lo, hi = int(0.2 * FIXED_ONE), int(0.23 * FIXED_ONE)
        starts = np.array(
            [int(v * FIXED_ONE) for v in [0.0, 0.5, 0.21, 0.9]],
            dtype=np.uint64,
        )
        cap = 300
        times, hit = rotation_first_hit(
            4, step_fixed=self.step, lo=lo, hi=hi,
            cap=cap, start_j=1, starts=starts,
        )
        for i, s0 in enumerate(starts.tolist()):
            want = cap
            for j in range(1, cap):
                pos = (s0 + j * self.step) % FIXED_ONE
                if lo <= pos < hi:
                    want = j
                    break
            assert times[i] == want

    def test_min_distance_matches_scalar_at_each_horizon(self):
        z = 0.77
        zf = round(z * FIXED_ONE)
        starts = np.array([int(0.1 * FIXED_ONE)], dtype=np.uint64)
        out = [
            rotation_min_distance(
                step_fixed=self.step, zeta_fixed=zf, n_steps=n, starts=starts,
            )[0]
            for n in (1, 5, 55)
        ]
        best = math.inf
        pos = int(starts[0])
        mins = []
        for j in range(55):
            d = abs(pos - zf)
            d = min(d, FIXED_ONE - d)
            best = min(best, d / FIXED_ONE)
            if j + 1 in (1, 5, 55):
                mins.append(best)
            pos = (pos + self.step) % FIXED_ONE
        assert out == pytest.approx(mins, rel=1e-15)

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(step=st.integers(1, FIXED_ONE - 1), data=st.data(),
           start_j=st.sampled_from([0, 1, 5]),
           seed=st.integers(0, 2 ** 32))
    def test_first_hit_on_any_arc(self, step, data, start_j, seed):
        # arcs reaching 0 or 2^63, and the whole circle, against the
        # per-step scan on the 2^63 grid
        lo = data.draw(st.one_of(st.just(0), st.integers(0, FIXED_ONE - 1)))
        hi = data.draw(st.one_of(st.just(FIXED_ONE),
                                 st.integers(lo + 1, FIXED_ONE)))
        starts = grid_starts(substream(seed, "any-arc"), 64)
        starts[:2] = [0, FIXED_ONE - 1]
        kw = dict(step_fixed=step, lo=lo, hi=hi, cap=150, start_j=start_j,
                  starts=starts, chunk=7)
        want = reference_rotation_first_hit(64, **kw)
        got = rotation_first_hit(64, **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(step=st.integers(1, FIXED_ONE - 1),
           zeta=st.one_of(st.sampled_from([0, FIXED_ONE]),
                          st.integers(0, FIXED_ONE)),
           n_steps=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
    def test_min_distance_equals_the_2_63_grid(self, step, zeta, n_steps,
                                               seed):
        # bit for bit: doubling commutes with rounding to float
        starts = grid_starts(substream(seed, "any-zeta"), 8)
        starts[:2] = [0, FIXED_ONE - 1]
        got = rotation_min_distance(step_fixed=step, zeta_fixed=zeta,
                                    n_steps=n_steps, starts=starts)
        want = []
        for s0 in starts.tolist():
            best = FIXED_ONE
            for j in range(n_steps):
                d = abs((s0 + j * step) % FIXED_ONE - zeta)
                best = min(best, d, FIXED_ONE - d)
            want.append(float(best) * 2.0 ** -63)
        assert got.tolist() == want

    def test_min_distance_needs_a_step(self):
        with pytest.raises(DomainError):
            rotation_min_distance(
                step_fixed=self.step, zeta_fixed=0, n_steps=0,
                starts=grid_starts(substream(1, "z"), 2),
            )

    def test_start_must_precede_cap(self):
        with pytest.raises(DomainError):
            rotation_first_hit(
                2, step_fixed=self.step, lo=0, hi=10, cap=5, start_j=5,
                starts=grid_starts(substream(1, "z"), 2),
            )


def np_mp_orbit(x0, e, n):
    """Single-lane reference using one-element arrays so the very same
    ufunc loops run as in the kernels (scalar pow, array pow, and libm
    pow can all differ at ulp level)."""
    x = np.array([x0], dtype=np.float64)
    out = [float(x[0])]
    for _ in range(n - 1):
        x = x + x**e
        x -= x >= 1.0
        out.append(float(x[0]))
    return out


class TestIntermittentKernels:
    def test_min_distance_matches_single_lane_reference(self, ):
        starts = np.array([0.123, 0.5, 0.9111])
        got = mp_min_distance(
            s_exp=0.6, zeta=0.33, n_steps=12, starts=starts
        )
        for i, x0 in enumerate(starts):
            orbit = np_mp_orbit(x0, 1.6, 12)
            assert got[i] == min(abs(x - 0.33) for x in orbit)

    def test_short_horizon_agrees_with_scalar_map(self):
        # ulp-level pow differences grow with the horizon; stay short
        system = manneville_pomeau(0.6)
        starts = np.array([0.123, 0.77])
        got = mp_min_distance(
            s_exp=0.6, zeta=0.33, n_steps=10, starts=starts
        )
        for i, x0 in enumerate(starts):
            best = math.inf
            for j in range(10):
                xj = iterate(system, FloatPoint(x0), j).value()
                best = min(best, abs(xj - 0.33))
            assert got[i] == pytest.approx(best, abs=1e-9)

    def test_first_hit_matches_single_lane_reference(self):
        starts = np.array([0.123, 0.77])
        times, hit = mp_first_hit(
            2, s_exp=0.6, lo=0.35, hi=0.45, cap=200, start_j=1,
            starts=starts,
        )
        for i, x0 in enumerate(starts):
            orbit = np_mp_orbit(x0, 1.6, 200)
            want = 200
            for j in range(1, 200):
                if 0.35 <= orbit[j] < 0.45:
                    want = j
                    break
            assert times[i] == want
            assert hit[i] == (want < 200)

    @pytest.mark.parametrize("s_exp", [0.2, 0.5, 0.6])
    def test_min_distance_equals_per_step_reference(self, s_exp):
        starts = substream(7, "mp-min", s_exp).random(2048)
        kept = starts.copy()
        got = mp_min_distance(s_exp=s_exp, zeta=0.3, n_steps=300,
                              starts=starts)
        x, want = starts, np.abs(starts - 0.3)
        for _ in range(299):
            x = reference_mp_step(x, 1.0 + s_exp)
            want = np.minimum(want, np.abs(x - 0.3))
        assert np.array_equal(got, want)
        assert np.array_equal(starts, kept)  # the caller's starts stay put


def reference_mp_step(x, e):
    """The per-step intermittent update that ``engine._mp_step`` replaces."""
    x = x + x**e
    x -= x >= 1.0
    return x


def mp_step(x, e):
    """``engine._mp_step`` on a copy of ``x``."""
    x = x.copy()
    engine._mp_step(x, e, np.empty_like(x))
    return x


def root_starts(e):
    """The starts near the root of x + x^e = 1 whose numpy sum x + x**e is
    exactly 1.0: the floor wrap's edge, where the sum is 1 and wraps to
    0."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid + mid**e < 1.0 else (lo, mid)
    xs = lo + np.arange(-64, 64) * np.spacing(lo)
    return xs[xs + xs**e == 1.0]


class TestMpStep:
    """``engine._mp_step`` steps in place with a floor wrap; it must equal
    the per-step reference bit for bit, and rests on numpy's array pow
    giving a lane the same bits wherever it sits in an array."""

    @pytest.mark.parametrize("s_exp", [0.2, 0.5, 0.6])
    def test_equals_reference_on_random_lanes(self, s_exp):
        x = substream(3, "mp-step", s_exp).random(10**6)
        for _ in range(3):
            want = reference_mp_step(x, 1.0 + s_exp)
            got = mp_step(x, 1.0 + s_exp)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            x = want

    @pytest.mark.parametrize("s_exp", [0.2, 0.5, 0.6])
    def test_equals_reference_at_edges(self, s_exp):
        e = 1.0 + s_exp
        on_one = root_starts(e)
        # at s = 0.5 no start near the root puts the sum on 1.0
        assert on_one.size or s_exp == 0.5
        assert (mp_step(on_one, e) == 0.0).all()
        x = np.concatenate([[0.0, 5e-324, np.nextafter(1.0, 0.0), 0.5],
                            on_one])
        for _ in range(4):
            want = reference_mp_step(x, e)
            got = mp_step(x, e)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert ((0.0 <= got) & (got < 1.0)).all()
            x = want

    @pytest.mark.parametrize("e", [1.2, 1.5, 1.6])
    def test_array_pow_is_position_independent(self, e):
        # numpy's SIMD pow can differ from Python's float pow in the last
        # bit, so the kernels' bits are compared with numpy's own
        gen = substream(3, "pow-position", e)
        inputs = gen.random(64)
        want = np.power(inputs, e)
        for length in range(1, 41):
            fill = gen.random(length)
            for offset in range(min(16, length)):
                a = fill.copy()
                out = np.empty_like(a)
                for v, w in zip(inputs, want):
                    a[offset] = v
                    assert np.power(a, e)[offset] == w
                    assert np.power(a, e, out=out)[offset] == w
        # a forward-strided view takes the same loop; a reversed one need
        # not (numpy falls back to its scalar pow), and no kernel passes one
        strided = np.empty(3 * inputs.size + 1)
        strided[1::3] = inputs
        assert np.array_equal(np.power(strided[1::3], e), want)


@pytest.mark.parametrize("kernel", [
    lambda count, starts: rotation_first_hit(
        count, step_fixed=rotation("golden").fixed_angle, lo=0, hi=10,
        cap=5, starts=grid_starts(substream(1, "z"), starts)),
    lambda count, starts: mp_first_hit(
        count, s_exp=0.5, lo=0.2, hi=0.4, cap=5, start_j=1,
        starts=np.linspace(0.1, 0.9, starts)),
], ids=["rotation_first_hit", "mp_first_hit"])
@pytest.mark.parametrize("count,starts", [(2, 3), (5, 3)])
def test_orbit_first_hit_takes_one_start_per_lane(kernel, count, starts):
    with pytest.raises(DomainError, match=f"{count} lanes .* got {starts}"):
        kernel(count, starts)


def _chunk_gens():
    return [substream(1, "chunk")]


@pytest.mark.parametrize("kernel", [
    lambda chunk: word_first_hit(
        _chunk_gens(), 8, word_int=1, depth=3, tent=False, p_zero=0.5,
        cap=10, chunk=chunk),
    lambda chunk: word_hit_count(
        _chunk_gens(), 8, word_int=1, depth=3, tent=False, p_zero=0.5,
        window=10, chunk=chunk),
    lambda chunk: rotation_first_hit(
        8, step_fixed=rotation("golden").fixed_angle, lo=0, hi=10, cap=10,
        starts=grid_starts(substream(1, "z"), 8), chunk=chunk),
    lambda chunk: mp_first_hit(
        8, s_exp=0.5, lo=0.2, hi=0.4, cap=10, start_j=1,
        starts=np.linspace(0.1, 0.9, 8), chunk=chunk),
    lambda chunk: digit_window_min_distance(
        _chunk_gens(), 8, n_steps=10, p_zero=0.5, tent=False, zeta=0.3,
        circle=False, chunk=chunk),
    lambda chunk: ball_first_hit_digits(
        _chunk_gens(), 8, arcs=[(1 << 126, 3 << 125)], zeta=0.3, tent=False,
        p_zero=0.5, cap=10, chunk=chunk),
], ids=["word_first_hit", "word_hit_count", "rotation_first_hit",
        "mp_first_hit", "digit_window_min_distance", "ball_first_hit_digits"])
@pytest.mark.parametrize("chunk", [0, -1])
def test_a_chunk_takes_at_least_one_column(kernel, chunk):
    # a scan advances by at least one column per chunk, or never ends
    with pytest.raises(DomainError, match="at least one column"):
        kernel(chunk)


class TestConditionalStarts:
    def test_uniform_arc(self):
        gen = substream(5, "uarc")
        digits = conditional_digit_starts(
            gen, 4096, cdfs=([0.2], [0.5]), p_zero=0.5
        )
        x = window_from_digits(digits)
        assert x.min() >= 0.2 and x.max() < 0.5
        assert abs(x.mean() - 0.35) < 0.005

    def test_two_arcs_weighted_by_mass(self):
        gen = substream(6, "2arc")
        digits = conditional_digit_starts(
            gen, 8192, cdfs=([0.0, 0.9], [0.1, 1.0]), p_zero=0.5
        )
        x = window_from_digits(digits)
        in_right = x >= 0.5
        assert abs(in_right.mean() - 0.5) < 0.02
        assert ((x < 0.1) | (x >= 0.9)).all()

    def test_bernoulli_arc_conditional_split(self):
        # restrict Bernoulli(p0 = 0.3) to the cell [1/4, 1/2): CDF 0.09..0.30
        gen = substream(8, "barc")
        digits = unpack_digits(conditional_digit_starts(
            gen, 8192, cdfs=([0.09], [0.30]), p_zero=0.3
        ), 53)
        assert not digits[:, 0].any()  # digit 1 is 0
        assert digits[:, 1].all()  # digit 2 is 1
        # inside the cell the next digit splits 0.3 : 0.7
        frac_zero = (~digits[:, 2]).mean()
        assert abs(frac_zero - 0.3) < 0.02

    def test_empty_arc_rejected(self):
        with pytest.raises(DomainError):
            conditional_digit_starts(
                substream(1, "e"), 4, cdfs=([0.5], [0.5]), p_zero=0.5
            )


class TestRunBlocked:
    @staticmethod
    def kernel(gen, count):
        x = gen.random(count)
        return (x, np.cumsum(x))

    def test_thread_count_invariance(self):
        n = 3 * BLOCK + 17
        a1 = run_blocked(n, 123, ("law", "x"), self.kernel, threads=1)
        a8 = run_blocked(n, 123, ("law", "x"), self.kernel, threads=8)
        for x, y in zip(a1, a8):
            assert x.shape == (n,)
            assert np.array_equal(x, y)

    def test_labels_change_streams(self):
        a = run_blocked(BLOCK, 123, ("one",), self.kernel)[0]
        b = run_blocked(BLOCK, 123, ("two",), self.kernel)[0]
        assert not np.array_equal(a, b)

    def test_seed_changes_streams(self):
        a = run_blocked(100, 1, ("one",), self.kernel)[0]
        b = run_blocked(100, 2, ("one",), self.kernel)[0]
        assert not np.array_equal(a, b)


class TestCapMonotonicity:
    """Shared-seed runs with different caps agree below the smaller cap.

    times from the short run must equal min(times_long, short_cap): raising
    the cap may resolve censored lanes but never rewrites observed times.
    """

    def test_word_first_hit(self):
        kw = dict(word_int=0b101, depth=3, tent=True, p_zero=0.5, chunk=8)
        short, _ = word_first_hit([substream(11, "mono")], 500, cap=30, **kw)
        long_, _ = word_first_hit([substream(11, "mono")], 500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))

    def test_word_first_hit_preloaded(self):
        kw = dict(word_int=0b01, depth=2, tent=False, p_zero=0.3,
                  preload=True, chunk=8)
        short, _ = word_first_hit([substream(12, "mono")], 500, cap=25, **kw)
        long_, _ = word_first_hit([substream(12, "mono")], 500, cap=160, **kw)
        assert np.array_equal(short, np.minimum(long_, 25))

    def test_ball_first_hit(self):
        kw = dict(eta=0.05, zeta=0.3, tent=True, p_zero=0.5, circle=False,
                  chunk=8)
        short, _ = radius_ball_first_hit([substream(13, "mono")], 400, cap=40,
                                         **kw)
        long_, _ = radius_ball_first_hit([substream(13, "mono")], 400,
                                         cap=220, **kw)
        assert np.array_equal(short, np.minimum(long_, 40))

    @pytest.mark.parametrize("p_zero", [0.5, 0.3])
    @pytest.mark.parametrize("kernel, kw", [
        (one_block(word_first_hit),
         dict(word_int=0b10110100, depth=8, tent=True)),
        (one_block(word_first_hit),
         dict(word_int=0b10110100, depth=8, tent=False)),
        (one_block(radius_ball_first_hit), dict(eta=2.0 ** -9, zeta=0.3, tent=False,
                                     circle=False)),
    ])
    @pytest.mark.parametrize("short_cap", [128, 300])
    def test_stationary_scan_prefix(self, kernel, kw, p_zero, short_cap):
        # a scan capped at the longest window holds every shorter window's
        # scan, hit flags included, across chunks and compactions
        kw = dict(kw, p_zero=p_zero, start_j=0)
        short, short_hit = kernel(substream(16, "prefix"), 2000,
                                  cap=short_cap, **kw)
        long_, long_hit = kernel(substream(16, "prefix"), 2000, cap=1024, **kw)
        assert np.array_equal(short, np.minimum(long_, short_cap))
        assert np.array_equal(short_hit, long_ < short_cap)
        assert long_hit.sum() > short_hit.sum()

    def test_rotation_first_hit(self):
        kw = dict(step_fixed=rotation("golden").fixed_angle,
                  lo=int(0.6 * FIXED_ONE), hi=int(0.62 * FIXED_ONE), chunk=7,
                  starts=grid_starts(substream(14, "mono"), 500))
        short, _ = rotation_first_hit(500, cap=30, **kw)
        long_, _ = rotation_first_hit(500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))

    def test_mp_first_hit(self):
        starts = substream(15, "mono").random(500)
        kw = dict(s_exp=0.5, lo=0.28, hi=0.32, start_j=1, starts=starts,
                  chunk=7)
        short, _ = mp_first_hit(500, cap=30, **kw)
        long_, _ = mp_first_hit(500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))
