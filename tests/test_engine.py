import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlhts import engine
from evlhts.engine import (
    ball_first_hit_digits,
    conditional_digit_starts,
    digit_window_min_distance,
    draw_digits,
    iid_min_distance_uniform,
    mp_first_hit,
    mp_min_distance,
    rotation_first_hit,
    rotation_min_distance,
    rotation_starts,
    run_blocked,
    word_first_hit,
    word_hit_count,
)
from evlhts.errors import DomainError
from evlhts.rng import BLOCK, substream
from evlhts.systems import FIXED_ONE, manneville_pomeau, rotation
from reference import (
    BitStreamPoint,
    FloatPoint,
    iterate,
    no_entry_probability,
    pack_digits,
    reference_digits,
    unpack_digits,
    window_from_digits,
)


class ScriptedDigits:
    """A stand-in for ``engine.draw_digits`` that deals out a fixed digit
    table: each call returns the next ``cols`` digits of every row, packed.

    Kernels then run on a given digit stream whatever the draw rule, so
    these tests check kernel logic; ``TestDrawDigits`` checks the rule.
    """

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.cursor = 0

    def __call__(self, gen, rows, cols, p_zero, scratch):
        assert rows == len(self.rows), "lane count changed mid-stream"
        # Kernels draw full-width chunks but only read the columns that
        # remain, so pad past the scripted table with digit 0.
        out = np.zeros((rows, cols), dtype=bool)
        for i, row in enumerate(self.rows):
            chunk = row[self.cursor:self.cursor + cols]
            out[i, :len(chunk)] = chunk
        self.cursor += cols
        return pack_digits(out)


@pytest.fixture
def script(monkeypatch):
    """``script(rows)`` makes the engine draw the digit table ``rows``."""
    def install(rows):
        monkeypatch.setattr(engine, "draw_digits", ScriptedDigits(rows))
    return install


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
        got, = digit_window_min_distance(
            None, 7, n_steps=n_steps, p_zero=0.5, tent=tent,
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
        got, = digit_window_min_distance(
            None, 5, n_steps=1, p_zero=0.5, tent=False,
            zeta=0.3, circle=False,
        )
        starts = window_from_digits(pack_digits(rows))
        assert got.tolist() == [abs(s - 0.3) for s in starts]

    def test_orbit_of_deterministic_point(self, script):
        # all-ones digits = the point 1 - 2^-53; tent sends it next to 0
        rows = [[1] * 60]
        script(rows)
        got, = digit_window_min_distance(
            None, 1, n_steps=8, p_zero=0.5, tent=True,
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
        got, = digit_window_min_distance(
            None, 1, n_steps=54, p_zero=0.5, tent=False, zeta=zeta,
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
            None, 50, word_int=word_int, depth=depth, tent=tent,
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
            None, 2, word_int=0b1111, depth=depth, tent=False,
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
            None, 2, word_int=0b11, depth=depth, tent=False,
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
        counts, = word_hit_count(
            None, 40, word_int=0b11, depth=depth, tent=False,
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
        gen = substream(99, "geom")
        times, hit = word_first_hit(
            gen, 8192, word_int=0b1, depth=1, tent=False, p_zero=0.5,
            cap=200, start_j=1,
        )
        assert hit.all()
        assert abs(times.mean() - 2.0) < 0.1  # E[T] = 2, sigma/sqrt(n) ~ 0.016
        assert abs((times == 1).mean() - 0.5) < 0.02

    def test_kac_mean_return_for_cylinder(self):
        # conditional starts inside a depth-3 cell: E[return] = 1/mass = 8
        gen = substream(7, "kac-unit")
        times, hit = word_first_hit(
            gen, 8192, word_int=0b101, depth=3, tent=True, p_zero=0.5,
            cap=800, start_j=1, preload=True,
        )
        assert hit.all()
        assert abs(times.mean() - 8.0) < 0.4  # 3 sigma ~ 0.3 for n = 8192

    def test_register_depth_cap(self):
        with pytest.raises(DomainError):
            word_first_hit(
                substream(1, "x"), 4, word_int=0, depth=64, tent=False,
                p_zero=0.5, cap=10,
            )

    @pytest.mark.parametrize("word_int", [-1, 0b1000])
    def test_word_must_fit_its_depth(self, word_int):
        for kernel, horizon in ((word_first_hit, "cap"),
                                (word_hit_count, "window")):
            with pytest.raises(DomainError, match="fit"):
                kernel(substream(1, "x"), 4, word_int=word_int, depth=3,
                       tent=False, p_zero=0.5, **{horizon: 10})


class RecordingGen:
    """A Generator that records the shape of every digit draw: a tuple
    for a digit matrix, an int for the tie words after a byte-lane draw."""

    def __init__(self, gen):
        self.gen = gen
        self.bit_generator = self
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.gen.random(shape)

    def random_raw(self, shape):
        self.shapes.append(shape)
        return self.gen.bit_generator.random_raw(shape)


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
    return (counts,)


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
                                        zeta, circle, chunk=256):
    """Per-step reference for ``digit_window_min_distance``: one float
    window update per orbit step over every lane, digits from
    ``reference_digits``."""
    v = reference_window(reference_digits(gen, count, 53, p_zero))
    parity = np.zeros(count, dtype=bool)  # digit left of the window; b_0 = 0
    pos = np.where(parity, _TOP - v, v) if tent else v
    best = _reference_distances(pos, zeta, circle)
    remaining = n_steps - 1
    while remaining > 0:
        cols = min(chunk, remaining)
        fresh = unpack_digits(reference_digits(gen, count, cols, p_zero),
                              cols).astype(np.float64)
        for c in range(cols):
            if tent:
                parity = v >= 0.5  # the digit shifted out of the window
            _reference_step(v, fresh[:, c])
            pos = np.where(parity, _TOP - v, v) if tent else v
            np.minimum(best, _reference_distances(pos, zeta, circle), out=best)
        remaining -= cols
    return (best,)


def reference_ball_first_hit_digits(gen, count, *, eta, zeta, tent, p_zero,
                                    circle, cap, start_j=1,
                                    initial_digits=None, chunk=256):
    """Per-step reference for ``ball_first_hit_digits``."""
    if initial_digits is None:
        initial_digits = reference_digits(gen, count, 53, p_zero)
    v = reference_window(initial_digits)
    parity = np.zeros(count, dtype=bool)
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    if start_j == 0:
        hits = _reference_distances(v, zeta, circle) < eta
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
            hits = (_reference_distances(pos, zeta, circle) < eta) & ~done
            if hits.any():
                times[lane[hits]] = j
                done |= hits
        if done.mean() > 0.25:
            keep = ~done
            lane, v, done = lane[keep], v[keep], done[keep]
            if tent:
                parity = parity[keep]
    return times, times < cap


# Mixed letters, so both the letters and their complements are sliced.  The
# depth-63 word has period 3: preloaded lanes re-enter it within the caps.
WORDS = {1: 0b0, 3: 0b101, 12: 0b110111011110, 63: int("110" * 21, 2)}
LATE_START = 300  # beyond one chunk at either chunk width
GRID = [
    (depth, tent, preload, start_j, p_zero, chunk)
    for depth in (1, 3, 12, 63)
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

    def kwargs(self, depth, tent, preload, p_zero, chunk):
        return dict(word_int=WORDS[depth], depth=depth, tent=tent,
                    p_zero=p_zero, preload=preload, chunk=chunk)

    @pytest.mark.parametrize("depth,tent,preload,start_j,p_zero,chunk", GRID)
    def test_first_hit(self, depth, tent, preload, start_j, p_zero, chunk):
        kw = self.kwargs(depth, tent, preload, p_zero, chunk)
        label = ("word-eq", depth, tent, preload, start_j, p_zero, chunk)
        cap = start_j + 400
        want_gen = RecordingGen(substream(2024, *label))
        got_gen = RecordingGen(substream(2024, *label))
        want = reference_word_first_hit(want_gen, self.LANES, cap=cap,
                                        start_j=start_j, **kw)
        got = word_first_hit(got_gen, self.LANES, cap=cap, start_j=start_j,
                             **kw)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize("depth,tent,preload,start_j,p_zero,chunk", GRID)
    def test_hit_count(self, depth, tent, preload, start_j, p_zero, chunk):
        kw = self.kwargs(depth, tent, preload, p_zero, chunk)
        label = ("count-eq", depth, tent, preload, start_j, p_zero, chunk)
        window = start_j + 400
        want_gen = RecordingGen(substream(2024, *label))
        got_gen = RecordingGen(substream(2024, *label))
        want, = reference_word_hit_count(want_gen, self.LANES, window=window,
                                         start_j=start_j, **kw)
        got, = word_hit_count(got_gen, self.LANES, window=window,
                              start_j=start_j, **kw)
        assert np.array_equal(got, want)
        assert got_gen.shapes == want_gen.shapes

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
        got = word_first_hit(got_gen, 2048, **kw)
        assert np.array_equal(got[0], want[0])
        assert got_gen.shapes == want_gen.shapes
        # (rows, words) main draws; a byte-lane draw's tie words are 1-d
        rows = [shape[0] for shape in got_gen.shapes
                if isinstance(shape, tuple)]
        assert len(rows) > 1 and rows[-1] < rows[0]


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
        got = word_first_hit(got_gen, lanes, cap=cap, **kw)
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
        want, = reference_word_hit_count(want_gen, lanes, window=window, **kw)
        got, = word_hit_count(got_gen, lanes, window=window, **kw)
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
    bit for bit, drawing the same digit matrices from the same substream.

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
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got_gen.shapes == want_gen.shapes

    @pytest.mark.parametrize("tent,circle,zeta,p_zero,chunk", WINDOW_GRID)
    def test_min_distance(self, tent, circle, zeta, p_zero, chunk):
        label = ("window-eq", tent, circle, zeta, p_zero, chunk)
        self.check(reference_digit_window_min_distance,
                   digit_window_min_distance, label, n_steps=403,
                   p_zero=p_zero, tent=tent, zeta=zeta, circle=circle,
                   chunk=chunk)

    @pytest.mark.parametrize("tent,circle,zeta,eta", [
        # zeta with bits below 2^-53
        (False, True, 0.3, ETA), (True, False, 0.3, ETA),
        # zeta = 1 on the interval: every window lies below it
        (False, False, 1.0, ETA), (True, False, 1.0, ETA),
        # a radius of one window: only the window at zeta is inside
        (False, True, 0.5, 2.0 ** -53), (True, False, 0.25, 2.0 ** -53),
        # radius 1/2 on the circle leaves out the antipode 0.75 alone;
        # radius 0.6 takes in the whole circle
        (False, True, 0.25, 0.5), (True, True, 0.3, 0.6),
    ])
    def test_ball_edges(self, tent, circle, zeta, eta):
        label = ("ball-edge", tent, circle, zeta, eta)
        common = dict(zeta=zeta, tent=tent, p_zero=0.3, circle=circle)
        self.check(reference_ball_first_hit_digits, ball_first_hit_digits,
                   label, eta=eta, cap=403, start_j=0, **common)
        self.check(reference_digit_window_min_distance,
                   digit_window_min_distance, label, n_steps=403, **common)

    @pytest.mark.parametrize("tent", [False, True])
    def test_horizon_one_past_a_byte(self, tent):
        # the last chunk has 9 steps: 7 of its second byte's 8 steps pad
        label = ("ball-horizon", tent)
        common = dict(zeta=0.5, tent=tent, p_zero=0.3, circle=True)
        self.check(reference_ball_first_hit_digits, ball_first_hit_digits,
                   label, eta=0.002, cap=1 + 256 + 9, **common)
        self.check(reference_digit_window_min_distance,
                   digit_window_min_distance, label, n_steps=1 + 256 + 9,
                   **common)

    @pytest.mark.parametrize("n_steps", [1, 2, 9])
    def test_min_distance_short_horizons(self, n_steps):
        kw = dict(n_steps=n_steps, p_zero=0.3, tent=True, zeta=0.5,
                  circle=False, chunk=7)
        want_gen = RecordingGen(substream(3, "window-short", n_steps))
        got_gen = RecordingGen(substream(3, "window-short", n_steps))
        want, = reference_digit_window_min_distance(want_gen, self.LANES, **kw)
        got, = digit_window_min_distance(got_gen, self.LANES, **kw)
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
            # starts drawn from the measure restricted to a CDF interval
            kw["initial_digits"] = conditional_digit_starts(
                substream(2024, "starts", *label), self.LANES,
                arcs=([0.2, 0.7], [0.3, 0.95]), p_zero=p_zero,
            )
        self.check(reference_ball_first_hit_digits, ball_first_hit_digits,
                   label, **kw)

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("tent", [False, True])
    def test_compaction_shrinks_draws_identically(self, tent, chunk):
        kw = dict(eta=0.002, zeta=0.5, tent=tent, p_zero=0.3, circle=True,
                  cap=3 * 256 + 5, start_j=1, chunk=chunk)
        want_gen = RecordingGen(substream(5, "ball-compact", tent, chunk))
        got_gen = RecordingGen(substream(5, "ball-compact", tent, chunk))
        want = reference_ball_first_hit_digits(want_gen, 2048, **kw)
        got = ball_first_hit_digits(got_gen, 2048, **kw)
        assert np.array_equal(got[0], want[0])
        assert got_gen.shapes == want_gen.shapes
        # (rows, words) main draws; a byte-lane draw's tie words are 1-d
        rows = [shape[0] for shape in got_gen.shapes
                if isinstance(shape, tuple)]
        assert len(rows) > 2 and rows[-1] < rows[1]



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
    """The window intervals of a ball accept exactly what the float test
    accepts, and the nearest-offset candidates hold the float minimum."""

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
    def test_intervals_are_the_float_predicate(self, zeta, eta, circle,
                                               windows, low_bits):
        pieces = engine._ball_windows(zeta, eta, circle)
        ends = {0, math.ceil(zeta * WINDOWS)}
        ends |= {e for start, width in pieces for e in (start, start + width)}
        probes = sorted({(e + k) % WINDOWS for e in ends for k in range(-3, 4)}
                        | set(windows))
        want = (float_distances(probes, zeta, circle) < eta).tolist()
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


def reference_rotation_first_hit(gen, count, *, step_fixed, lo, hi, cap,
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


def reference_mp_first_hit(gen, count, *, s_exp, eta, zeta, cap, start_j,
                           starts, chunk=64):
    """Per-step reference for ``mp_first_hit``."""
    x = starts.copy()
    e = 1.0 + s_exp
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    j = 0
    steps_since_compact = 0
    while j < cap and lane.size:
        if j >= start_j:
            hits = (np.abs(x - zeta) < eta) & ~done
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
            starts = rotation_starts(substream(7, *label), self.LANES)
        kw = dict(step_fixed=step, lo=lo, hi=hi, cap=cap, start_j=start_j,
                  starts=starts, chunk=chunk)
        want = reference_rotation_first_hit(None, self.LANES, **kw)
        kept = starts.copy()
        got = rotation_first_hit(None, self.LANES, **kw)
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
        kw = dict(s_exp=0.6, eta=eta, zeta=zeta, cap=cap, start_j=start_j,
                  starts=starts, chunk=chunk)
        want = reference_mp_first_hit(None, self.LANES, **kw)
        kept = starts.copy()
        got = mp_first_hit(None, self.LANES, **kw)
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
        got, = iid_min_distance_uniform(a, count, n_draws=n_draws, zeta=0.8,
                                        circle=circle)
        want = reference_iid_min_distance_uniform(b, count, n_draws=n_draws,
                                                  zeta=0.8, circle=circle)
        assert np.array_equal(got, want)
        # both consumed the stream identically
        assert np.array_equal(a.bit_generator.random_raw(4),
                              b.bit_generator.random_raw(4))


#: p_zero values of the byte-lane rule: the ends of its range and skews
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
        # the draw spent rows * ceil(cols / 8) raw words, plus one per byte
        # among the first cols of a row that equals T >> 45
        c = substream(17, "digits", p_zero, cols)
        raw = c.bit_generator.random_raw((rows, math.ceil(cols / 8)))
        lanes = raw.astype("<u8").view(np.uint8)[:, :cols]
        ties = int((lanes == threshold(p_zero) >> 45).sum())
        c.bit_generator.random_raw(ties)
        assert np.array_equal(a.bit_generator.random_raw(4),
                              c.bit_generator.random_raw(4))

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
        level = threshold(p_zero)
        high, rest = level >> 45, level % 2 ** 45
        below = high - 1 if high > 0 else None
        above = high + 1 if high < 255 else None
        # 3 rows of 16 byte lanes: ties in rows 0 and 2 only, so their
        # tie words pin the row-major order of the ties
        layout = [
            [high, below, above, high, above, below, high, high],
            [below, above, below, above, below, above, below, above],
            [above, high, below, high, below, above, below, high],
        ]
        table = [[high if b is None else b for b in row] * 2
                 for row in layout]
        raw = np.array([[int.from_bytes(bytes(row[8 * k:8 * k + 8]), "little")
                         for k in range(2)] for row in table],
                       dtype=np.uint64)
        n_ties = sum(row.count(high) for row in table)
        # tie words alternate just below the 45-bit remainder (digit 0)
        # and at it (digit 1)
        tie_ones = [k % 2 == 1 for k in range(n_ties)]
        tie_words = np.array([rest << 19 if one
                              else ((rest - 1) << 19) | (2 ** 19 - 1)
                              for one in tie_ones], dtype=np.uint64)
        calls = []

        def random_raw(shape):
            calls.append(shape)
            return raw if len(calls) == 1 else tie_words

        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=random_raw))
        got = unpack_digits(
            draw_digits(gen, 3, 16, p_zero, engine._Scratch()), 16)
        assert calls == [(3, 2), n_ties]
        ties = iter(tie_ones)
        want = [[next(ties) if b == high else b > high for b in row]
                for row in table]
        assert got.tolist() == want

    def test_no_ties_no_extra_word(self):
        high = threshold(0.3) >> 45
        raw = np.full((2, 3), int.from_bytes(bytes([high + 1] * 8), "little"),
                      dtype=np.uint64)
        raw[1, 2] = int.from_bytes(bytes([high - 1] * 8), "little")
        calls = []

        def random_raw(shape):
            calls.append(shape)
            return raw

        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=random_raw))
        got = unpack_digits(draw_digits(gen, 2, 24, 0.3, engine._Scratch()),
                            24)
        assert calls == [(2, 3)]
        assert got.sum(axis=1).tolist() == [24, 16]

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
            substream(11, "exact-no-entry", word_int, tent, p_zero), lanes,
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
        counts, = word_hit_count(
            substream(11, "exact-count", word_int, tent, p_zero), lanes,
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
        times, hit = ball_first_hit_digits(
            None, 40, eta=eta, zeta=zeta, tent=True, p_zero=0.5,
            circle=False, cap=cap, start_j=1,
        )
        for i, row in enumerate(rows):
            cur = BitStreamPoint.from_digits(row)
            want = cap
            for j in range(cap):
                d = abs(cur.value(53) - zeta)
                if j >= 1 and d < eta:
                    want = j
                    break
                cur = cur.shifted(1, tent=True)
            assert times[i] == want, i
            assert hit[i] == (want < cap)

    def test_conditional_initial_digits_are_respected(self):
        # starts forced inside the ball: with start_j = 0 they hit at once
        zeta, eta = 0.5, 0.05
        gen = substream(3, "cond")
        digits = conditional_digit_starts(
            gen, 64, arcs=([0.45], [0.55]), p_zero=0.5
        )
        times, hit = ball_first_hit_digits(
            gen, 64, eta=eta, zeta=zeta, tent=False, p_zero=0.5,
            circle=False, cap=10, start_j=0, initial_digits=digits,
        )
        assert hit.all() and (times == 0).all()

    @pytest.mark.parametrize("shape", [(63, 53), (64, 52), (64,), (64, 53)])
    def test_initial_digits_must_be_lanes_by_window(self, shape):
        with pytest.raises(DomainError, match="initial_digits"):
            ball_first_hit_digits(
                substream(1, "shape"), 64, eta=0.1, zeta=0.5, tent=False,
                p_zero=0.5, circle=False, cap=10,
                initial_digits=np.zeros(shape, dtype=bool),
            )


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
            substream(1, "rot"), 4, step_fixed=self.step, lo=lo, hi=hi,
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
                substream(1, "rotmd"), 1, step_fixed=self.step, zeta_fixed=zf,
                n_steps=n, starts=starts,
            )[0][0]
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
        starts = rotation_starts(substream(seed, "any-arc"), 64)
        starts[:2] = [0, FIXED_ONE - 1]
        kw = dict(step_fixed=step, lo=lo, hi=hi, cap=150, start_j=start_j,
                  starts=starts, chunk=7)
        want = reference_rotation_first_hit(None, 64, **kw)
        got = rotation_first_hit(None, 64, **kw)
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
        starts = rotation_starts(substream(seed, "any-zeta"), 8)
        starts[:2] = [0, FIXED_ONE - 1]
        got = rotation_min_distance(None, 8, step_fixed=step, zeta_fixed=zeta,
                                    n_steps=n_steps, starts=starts)[0]
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
                None, 2, step_fixed=self.step, zeta_fixed=0, n_steps=0,
                starts=rotation_starts(substream(1, "z"), 2),
            )

    def test_start_must_precede_cap(self):
        with pytest.raises(DomainError):
            rotation_first_hit(
                None, 2, step_fixed=self.step, lo=0, hi=10, cap=5, start_j=5,
                starts=rotation_starts(substream(1, "z"), 2),
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
        (got,) = mp_min_distance(
            None, 3, s_exp=0.6, zeta=0.33, n_steps=12, starts=starts
        )
        for i, x0 in enumerate(starts):
            orbit = np_mp_orbit(x0, 1.6, 12)
            assert got[i] == min(abs(x - 0.33) for x in orbit)

    def test_short_horizon_agrees_with_scalar_map(self):
        # ulp-level pow differences grow with the horizon; stay short
        system = manneville_pomeau(0.6)
        starts = np.array([0.123, 0.77])
        (got,) = mp_min_distance(
            None, 2, s_exp=0.6, zeta=0.33, n_steps=10, starts=starts
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
            None, 2, s_exp=0.6, eta=0.05, zeta=0.4, cap=200, start_j=1,
            starts=starts,
        )
        for i, x0 in enumerate(starts):
            orbit = np_mp_orbit(x0, 1.6, 200)
            want = 200
            for j in range(1, 200):
                if abs(orbit[j] - 0.4) < 0.05:
                    want = j
                    break
            assert times[i] == want
            assert hit[i] == (want < 200)


class TestConditionalStarts:
    def test_uniform_arc(self):
        gen = substream(5, "uarc")
        digits = conditional_digit_starts(
            gen, 4096, arcs=([0.2], [0.5]), p_zero=0.5
        )
        x = window_from_digits(digits)
        assert x.min() >= 0.2 and x.max() < 0.5
        assert abs(x.mean() - 0.35) < 0.005

    def test_two_arcs_weighted_by_mass(self):
        gen = substream(6, "2arc")
        digits = conditional_digit_starts(
            gen, 8192, arcs=([0.0, 0.9], [0.1, 1.0]), p_zero=0.5
        )
        x = window_from_digits(digits)
        in_right = x >= 0.5
        assert abs(in_right.mean() - 0.5) < 0.02
        assert ((x < 0.1) | (x >= 0.9)).all()

    def test_bernoulli_arc_conditional_split(self):
        # restrict Bernoulli(p0 = 0.3) to the cell [1/4, 1/2): CDF 0.09..0.30
        gen = substream(8, "barc")
        digits = unpack_digits(conditional_digit_starts(
            gen, 8192, arcs=([0.09], [0.30]), p_zero=0.3
        ), 53)
        assert not digits[:, 0].any()  # digit 1 is 0
        assert digits[:, 1].all()  # digit 2 is 1
        # inside the cell the next digit splits 0.3 : 0.7
        frac_zero = (~digits[:, 2]).mean()
        assert abs(frac_zero - 0.3) < 0.02

    def test_empty_arc_rejected(self):
        with pytest.raises(DomainError):
            conditional_digit_starts(
                substream(1, "e"), 4, arcs=([0.5], [0.5]), p_zero=0.5
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
        short, _ = word_first_hit(substream(11, "mono"), 500, cap=30, **kw)
        long_, _ = word_first_hit(substream(11, "mono"), 500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))

    def test_word_first_hit_preloaded(self):
        kw = dict(word_int=0b01, depth=2, tent=False, p_zero=0.3,
                  preload=True, chunk=8)
        short, _ = word_first_hit(substream(12, "mono"), 500, cap=25, **kw)
        long_, _ = word_first_hit(substream(12, "mono"), 500, cap=160, **kw)
        assert np.array_equal(short, np.minimum(long_, 25))

    def test_ball_first_hit(self):
        kw = dict(eta=0.05, zeta=0.3, tent=True, p_zero=0.5, circle=False,
                  chunk=8)
        short, _ = ball_first_hit_digits(substream(13, "mono"), 400, cap=40, **kw)
        long_, _ = ball_first_hit_digits(substream(13, "mono"), 400, cap=220, **kw)
        assert np.array_equal(short, np.minimum(long_, 40))

    @pytest.mark.parametrize("p_zero", [0.5, 0.3])
    @pytest.mark.parametrize("kernel, kw", [
        (word_first_hit, dict(word_int=0b10110100, depth=8, tent=True)),
        (word_first_hit, dict(word_int=0b10110100, depth=8, tent=False)),
        (ball_first_hit_digits, dict(eta=2.0 ** -9, zeta=0.3, tent=False,
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
                  starts=rotation_starts(substream(14, "mono"), 500))
        short, _ = rotation_first_hit(None, 500, cap=30, **kw)
        long_, _ = rotation_first_hit(None, 500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))

    def test_mp_first_hit(self):
        starts = substream(15, "mono").random(500)
        kw = dict(s_exp=0.5, eta=0.02, zeta=0.3, start_j=1, starts=starts,
                  chunk=7)
        short, _ = mp_first_hit(None, 500, cap=30, **kw)
        long_, _ = mp_first_hit(None, 500, cap=200, **kw)
        assert np.array_equal(short, np.minimum(long_, 30))
