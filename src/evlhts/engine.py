"""Sample-parallel Monte Carlo kernels.

Every kernel simulates one block of independent samples with numpy array
operations (lanes = samples), consuming a dedicated Generator.
``run_blocked`` slices a run into fixed-size blocks, gives block i the
substream keyed by (seed, labels..., i), executes blocks on a thread
pool, and concatenates results in block order — so outputs are
bit-identical for any thread count.

The expanding digit systems (tent/doubling) are simulated exactly on an
implicit infinite digit stream: the state per lane is a sliding window of
its next 53 digits.  One step shifts the window by one digit and takes in
one fresh digit at the bottom.  The j-th doubling iterate is the window
read as 0.b1...b53; the j-th tent iterate is that value or its ones'
complement according to the digit just shifted out.  Direct float64
iteration of these maps would collapse onto dyadics within 53 steps; the
window never does, at the price of truncating each reported position to
53 bits.  That truncation is not always negligible: under a skewed
Bernoulli measure a 2^-53 sliver can carry real mass (for p = 0.01, about
0.006 of the mass lies within 2^-53 below 1/2), so ball radii and masses
at that scale are not resolved.

The ball kernels scan one digit chunk at a time.  They pack each lane's
window and the chunk's digits into one row of bytes, read the big-endian
64-bit word at every byte offset, and cut the windows of eight
consecutive steps out of each word with one shift and a 53-bit mask.  A
window is an integer below 2^53, so scaling it by 2^-53 gives the
position exactly, and the (lanes, columns) position matrix equals the
per-step float recursion bit for bit.  The minimum-distance kernel takes
each row's minimum distance; the first-hit kernel marks the positions
inside the ball.  The last 53 digits of the row are the window carried
into the next chunk.

Cylinder events need no positions at all.  Letters are the digits
themselves for the doubling map and adjacent-digit XORs for the tent map,
and iterate j lies in a depth-d cylinder exactly when letters j .. j+d-1
spell its word.  The word kernels scan one digit chunk at a time: they
build the chunk's letters in bulk, AND d shifted column slices of the
letters (or of their complements) into a (lanes, columns) match matrix,
and carry the last digit and the last d - 1 letters into the next chunk.

Every first-hit kernel runs one scan, ``_first_hit``.  The kernel yields
each chunk's (lanes, columns) matrix of iterates inside its target; the
scan takes each row's first True column from ``start_j`` on, drops
finished lanes and censors the lanes still out at the cap.  Rotations
advance exact 63-bit integer positions, a chunk per numpy op, and the
intermittent map steps float64 lanes with the scalar map's update.
Neither draws inside the scan, so their compaction touches no stream.

The digit draws fix the RNG stream, and with it every report byte:

* each chunk draws one (rows, columns) matrix through ``draw_digits``,
  whose rows are the lanes still live, in lane order;
* first-hit kernels draw full ``chunk``-width matrices even when fewer
  columns remain, so runs that differ only in the cap share a stream;
  fixed-window kernels draw only the columns that remain;
* ``draw_digits`` compares raw 64-bit words against an integer
  threshold, which equals ``gen.random(shape) >= p_zero`` bit for bit and
  consumes the generator identically;
* first-hit kernels drop finished lanes between chunks once more than
  ``_COMPACT_AT`` of the live lanes have hit.  That sets the rows of the
  next draw, so ``_COMPACT_AT`` is part of the stream: changing it
  changes every result.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError
from .rng import block_slices, substream
from .systems import FIXED_ONE, WINDOW_BITS

_SCALE = 2.0 ** -WINDOW_BITS
_POWERS = 2.0 ** -(np.arange(1, WINDOW_BITS + 1, dtype=np.float64))
_MASK = np.uint64((1 << WINDOW_BITS) - 1)
#: right shifts 11 - s that bring bits s .. s + 52 of a 64-bit word, counted
#: from the most significant bit as 0, to the bottom, for s = 1 .. 8
_SHIFTS = (64 - WINDOW_BITS - np.arange(1, 9)).astype(np.uint64)

#: fraction of finished lanes that triggers an active-set compaction
_COMPACT_AT = 0.25


def run_blocked(n_samples, master_seed, labels, kernel, threads=1):
    """Run ``kernel(gen, count)`` over every block and concatenate.

    ``kernel`` must return a tuple of 1-d arrays of length ``count`` (or
    2-d with ``count`` rows).  Results are concatenated in block order.
    """
    slices = block_slices(n_samples)

    def job(item):
        index, _start, count = item
        gen = substream(master_seed, *labels, index)
        return kernel(gen, count)

    if threads <= 1:
        parts = [job(item) for item in slices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, slices))
    width = len(parts[0])
    return tuple(
        np.concatenate([p[i] for p in parts], axis=0) for i in range(width)
    )


# ---------------------------------------------------------------- digits

def draw_digits(gen, rows, cols, p_zero):
    """Boolean digit matrix; True is the digit 1, drawn with mass 1 - p_zero.

    For 0 <= p_zero < 1 this equals ``gen.random((rows, cols)) >= p_zero``
    bit for bit and consumes the generator identically: numpy's float64
    uniform is (raw >> 11) * 2^-53, so it reaches p_zero exactly when the
    raw word reaches ceil(p_zero * 2^53) << 11.
    """
    level = np.uint64(math.ceil(p_zero * 2.0 ** 53) << 11)
    return gen.bit_generator.random_raw((rows, cols)) >= level


def window_from_digits(digits):
    """Pack (rows, 53) leading digits into the float window 0.b1...b53.

    Every partial sum of distinct powers 2^-1..2^-53 is representable, so
    the dot product is exact.
    """
    return digits.astype(np.float64) @ _POWERS


def _distances(pos, zeta, circle):
    """Distances of the positions ``pos`` to zeta, written over ``pos``."""
    d = np.subtract(pos, zeta, out=pos)
    np.abs(d, out=d)
    if circle:
        np.minimum(d, 1.0 - d, out=d)
    return d


def _window_positions(window, fresh, tent):
    """Positions after each step of one chunk, and the window after it.

    ``window`` (rows x 53) holds each lane's current digits and ``fresh``
    (rows x cols) the digits the chunk's steps shift in.  Side by side they
    form one digit row, and the window after step k is its digits
    k .. k + 52.  The row is packed into bytes, and the big-endian 64-bit
    word at byte q holds the windows of steps 8q + 1 .. 8q + 8: the one of
    step 8q + s is that word shifted right by 11 - s and masked to 53 bits.
    The window is an integer below 2^53, so scaling it by 2^-53 gives the
    float window exactly.  A tent position is the ones' complement of its
    window when the digit just shifted out is 1.
    """
    rows, cols = fresh.shape
    digits = np.concatenate((window, fresh), axis=1)
    n_words = (cols + 7) // 8
    packed = np.zeros((rows, n_words + 7), dtype=np.uint8)
    row_bytes = np.packbits(digits, axis=1)
    packed[:, :row_bytes.shape[1]] = row_bytes
    words = np.ndarray((rows, n_words), dtype=">u8", buffer=packed,
                       strides=(packed.strides[0], 1)).astype(np.uint64)
    ints = words[:, :, None] >> _SHIFTS  # [:, q, s - 1]: step 8q + s
    ints &= _MASK
    ints = ints.reshape(rows, 8 * n_words)[:, :cols]
    if tent:
        ints ^= digits[:, :cols] * _MASK
    return ints * _SCALE, digits[:, cols:]


def digit_window_min_distance(
    gen, count, *, n_steps, p_zero, tent, zeta, circle, chunk=256
):
    """min_{0 <= j < n_steps} dist(f^j x, zeta) for stationary digit starts.

    The minimum orbit distance is a sufficient statistic for every ball
    observable around zeta: the running maximum of phi is phi at the
    closest visit.
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    window = draw_digits(gen, count, WINDOW_BITS, p_zero)
    # no digit lies left of the start window (b_0 = 0): no tent flip at j = 0
    best = _distances(window_from_digits(window), zeta, circle)
    remaining = n_steps - 1
    while remaining > 0:
        cols = min(chunk, remaining)
        pos, window = _window_positions(
            window, draw_digits(gen, count, cols, p_zero), tent
        )
        np.minimum(best, _distances(pos, zeta, circle).min(axis=1), out=best)
        remaining -= cols
    return (best,)


def iid_min_distance_uniform(gen, count, *, n_draws, zeta, circle, chunk=512):
    """min distance to zeta over n iid uniform points per lane."""
    if n_draws < 1:
        raise DomainError("need at least one draw")
    best = np.full(count, np.inf)
    left = n_draws
    while left > 0:
        cols = min(chunk, left)
        d = _distances(gen.random((count, cols)), zeta, circle)
        np.minimum(best, d.min(axis=1), out=best)
        left -= cols
    return (best,)


def iid_min_distance_digits(gen, count, *, n_draws, p_zero, zeta, circle):
    """min distance over n iid draws from the digit-product measure.

    Each draw assembles a fresh 53-digit value, so this costs 53x the
    uniform version; it exists for comparison runs, not bulk sampling.
    """
    if n_draws < 1:
        raise DomainError("need at least one draw")
    best = np.full(count, np.inf)
    for _ in range(n_draws):
        x = window_from_digits(draw_digits(gen, count, WINDOW_BITS, p_zero))
        np.minimum(best, _distances(x, zeta, circle), out=best)
    return (best,)


# ------------------------------------------------------------ first hits

def _first_hit(count, cap, start_j, j, chunk, scan, state, inside_before=None):
    """First iterate in [start_j, cap) inside the target, for ``count`` lanes.

    ``state`` is a tuple of per-lane arrays.  ``scan(state, cols)`` returns
    a (live lanes, cols) matrix, True where iterate j + c is inside, and the
    state after those iterates.  ``inside_before`` marks the lanes inside at
    iterate j - 1.  Returns (times, hit): times[i] = cap and hit[i] = False
    when the lane never enters by cap - 1.
    """
    if cap < 1 or start_j < 0 or start_j >= cap:
        raise DomainError("need 0 <= start_j < cap")
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    if inside_before is not None:
        done |= inside_before
    times[done] = j - 1
    while j < cap and lane.size:
        cols = min(chunk, cap - j)
        inside, state = scan(state, cols)
        first = max(start_j - j, 0)
        inside = inside[:, first:]
        hits = np.flatnonzero(inside.any(axis=1) & ~done)
        if hits.size:
            times[lane[hits]] = j + first + inside[hits].argmax(axis=1)
            done[hits] = True
        j += cols
        if done.mean() > _COMPACT_AT:
            keep = ~done
            lane, done = lane[keep], done[keep]
            state = tuple(a[keep] for a in state)
    return times, times < cap


# ----------------------------------------------------- word (cylinder) scans

def _word_scan_start(count, word_int, depth, start_j, preload):
    """The word's letters (first letter first) and the scan state of
    ``count`` fresh lanes: (word, prev, tail, consumed).

    ``prev`` is the last digit drawn (b_0 = 0 before any), ``tail`` the
    last depth - 1 letters and ``consumed`` the letters read so far.  A
    preloaded lane has already read the word itself.
    """
    if not 1 <= depth <= 63:
        raise DomainError("cylinder scans support depths 1..63")
    if not 0 <= word_int < 1 << depth:
        raise DomainError("word_int must fit in depth letters")
    if preload and start_j == 0:
        raise DomainError("a preloaded start is already inside at j = 0")
    word = np.array(
        [(word_int >> (depth - 1 - i)) & 1 for i in range(depth)], dtype=bool
    )
    if preload:
        # the digit b_depth of a point whose first letters spell the word is
        # the XOR of those letters (tent letter algebra; b_0 = 0)
        prev = np.full(count, bool(word.sum() % 2))
        return word, prev, np.tile(word[1:], (count, 1)), depth
    tail = np.zeros((count, depth - 1), dtype=bool)
    return word, np.zeros(count, dtype=bool), tail, 0


def _word_matches(digits, cols, word, prev, tail, tent):
    """Match matrix of one chunk, and the scan state after it.

    Column c of ``digits`` yields letter ``consumed + c``; match[:, c] is
    True when the len(word) letters ending at that letter spell the word.
    Tent letters XOR each digit with the one before it, which is ``prev``
    for column 0; doubling letters are the digits.
    """
    b = digits[:, :cols]
    depth = word.size
    ext = np.empty((b.shape[0], depth - 1 + cols), dtype=bool)  # tail, letters
    ext[:, :depth - 1] = tail
    if tent:
        np.not_equal(b[:, 0], prev, out=ext[:, depth - 1])
        np.not_equal(b[:, 1:], b[:, :-1], out=ext[:, depth:])
        prev = b[:, -1]
    else:
        ext[:, depth - 1:] = b
    flip = ~ext
    match = (ext if word[0] else flip)[:, :cols].copy()
    for i in range(1, depth):
        np.logical_and(match, (ext if word[i] else flip)[:, i:i + cols],
                       out=match)
    return match, prev, ext[:, cols:]


def word_first_hit(
    gen,
    count,
    *,
    word_int,
    depth,
    tent,
    p_zero,
    cap,
    start_j=1,
    preload=False,
    chunk=256,
):
    """First j in [start_j, cap) whose iterate lies in the target cylinder.

    The cylinder is the depth-``depth`` cell whose letters spell
    ``word_int`` (most significant bit = first letter).  With ``preload``
    the lane starts inside the cylinder (its first ``depth`` letters are
    the word) and only the free tail is drawn: that is exactly the
    conditional start used by return-time runs, because under the product
    measures the letters beyond a fixed prefix stay independent.
    """
    word, prev, tail, consumed = _word_scan_start(
        count, word_int, depth, start_j, preload
    )

    def scan(state, cols):
        prev, tail = state
        digits = draw_digits(gen, prev.size, chunk, p_zero)
        match, prev, tail = _word_matches(digits, cols, word, prev, tail, tent)
        return match, (prev, tail)

    # column c ends the window that starts at j = consumed + c + 1 - depth
    return _first_hit(count, cap, start_j, consumed + 1 - depth, chunk, scan,
                      (prev, tail))


def word_hit_count(
    gen,
    count,
    *,
    word_int,
    depth,
    tent,
    p_zero,
    window,
    start_j=1,
    preload=False,
    chunk=256,
):
    """Number of j in [start_j, window] with the iterate in the cylinder.

    Inclusive right end: short-range recurrence estimators count entries
    in a window of fixed length.  No compaction: every lane runs the full
    window.
    """
    if window < start_j:
        raise DomainError("window shorter than start_j")
    word, prev, tail, consumed = _word_scan_start(
        count, word_int, depth, start_j, preload
    )
    counts = np.zeros(count, dtype=np.int64)
    total_letters = window + depth
    while consumed < total_letters:
        cols = min(chunk, total_letters - consumed)
        digits = draw_digits(gen, count, cols, p_zero)
        match, prev, tail = _word_matches(digits, cols, word, prev, tail, tent)
        first = max(start_j + depth - 1 - consumed, 0)
        counts += np.count_nonzero(match[:, first:], axis=1)
        consumed += cols
    return (counts,)


# ------------------------------------------------------------- ball scans

def ball_first_hit_digits(
    gen,
    count,
    *,
    eta,
    zeta,
    tent,
    p_zero,
    circle,
    cap,
    start_j=1,
    initial_digits=None,
    chunk=256,
):
    """First j in [start_j, cap) with dist(f^j x, zeta) < eta.

    ``initial_digits`` (lanes x 53, boolean) fixes the leading digits of
    the start point — used by conditional (return-time) starts drawn by
    inverse-CDF; the tail beyond 53 digits is drawn iid, which misstates
    the conditional law only on boundary cells of mass O(2^-53).
    """
    if initial_digits is None:
        window = draw_digits(gen, count, WINDOW_BITS, p_zero)
    else:
        window = np.asarray(initial_digits, dtype=bool)
        if window.shape != (count, WINDOW_BITS):
            raise DomainError(
                f"initial_digits must have shape ({count}, {WINDOW_BITS}); "
                f"got {window.shape}"
            )
    inside_before = (_distances(window_from_digits(window), zeta, circle) < eta
                     if start_j == 0 else None)

    def scan(state, cols):
        window, = state
        digits = draw_digits(gen, window.shape[0], chunk, p_zero)
        pos, window = _window_positions(window, digits[:, :cols], tent)
        return _distances(pos, zeta, circle) < eta, (window,)

    # column c is the position after step c + 1 of the chunk
    return _first_hit(count, cap, start_j, 1, chunk, scan, (window,),
                      inside_before)


# --------------------------------------------------------------- rotation

def rotation_starts(gen, count):
    """Stationary (uniform) fixed-point positions on the 2^63 grid."""
    return gen.integers(0, FIXED_ONE, size=count, dtype=np.uint64)


def rotation_first_hit(
    gen, count, *, step_fixed, lo, hi, cap, start_j=1, starts=None, chunk=64
):
    """First j in [start_j, cap) with the rotated position in [lo, hi).

    Positions are 63-bit integers; the step is the quantized angle, so
    the sweep is exact and matches the scalar map for every lane.  A chunk
    adds offsets[k] = k * step mod 2^63 to the chunk's first positions;
    both terms lie below 2^63, so the uint64 sum cannot wrap.
    """
    if not 0 <= lo < hi <= FIXED_ONE:
        raise DomainError("arc must satisfy 0 <= lo < hi <= 2^63")
    s = rotation_starts(gen, count) if starts is None else starts
    m = np.uint64(FIXED_ONE)
    lo_u, hi_u = np.uint64(lo), np.uint64(hi)
    offsets = np.array([k * step_fixed % FIXED_ONE for k in range(chunk + 1)],
                       dtype=np.uint64)

    def advance(s, by):
        """Positions s + by mod 2^63, for offsets ``by`` below 2^63."""
        pos = s + by
        np.subtract(pos, m, out=pos, where=pos >= m)
        return pos

    def scan(state, cols):
        s, = state
        pos = advance(s[:, None], offsets[:cols])
        return (pos >= lo_u) & (pos < hi_u), (advance(s, offsets[cols]),)

    s = advance(s, np.uint64(start_j * step_fixed % FIXED_ONE))
    return _first_hit(count, cap, start_j, start_j, chunk, scan, (s,))


def rotation_min_distance(gen, count, *, step_fixed, zeta_fixed, checkpoints,
                          starts=None):
    """Circle distance minima dist(f^j x, zeta) over j < n for each n in
    ``checkpoints`` (ascending).  Returns one column per checkpoint."""
    if not checkpoints or any(
        b <= a for a, b in zip(checkpoints, checkpoints[1:])
    ):
        raise DomainError("checkpoints must be ascending and non-empty")
    s = rotation_starts(gen, count) if starts is None else starts.copy()
    s = s.astype(np.uint64)
    step = np.uint64(step_fixed)
    z = np.uint64(zeta_fixed)
    m = np.uint64(FIXED_ONE)  # fits in uint64, unlike in int64
    out = np.empty((count, len(checkpoints)), dtype=np.float64)
    best = np.full(count, FIXED_ONE, dtype=np.uint64)
    j = 0
    for col, n in enumerate(checkpoints):
        while j < n:
            diff = np.maximum(s, z) - np.minimum(s, z)
            np.minimum(diff, m - diff, out=diff)
            np.minimum(best, diff, out=best)
            s += step
            s[s >= m] -= m
            j += 1
        out[:, col] = best * (1.0 / FIXED_ONE)
    return (out,)


# ----------------------------------------------------------- intermittent

def mp_min_distance(gen, count, *, s_exp, zeta, n_steps, starts):
    """Minimum interval distance to zeta along intermittent-map orbits.

    ``starts`` come from the caller (stationary draws from the empirical
    invariant measure); the update matches the scalar map exactly.
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    x = starts.copy()
    e = 1.0 + s_exp
    best = np.abs(x - zeta)
    for _ in range(n_steps - 1):
        x = x + x**e
        x -= x >= 1.0
        np.minimum(best, np.abs(x - zeta), out=best)
    return (best,)


def mp_first_hit(gen, count, *, s_exp, eta, zeta, cap, start_j, starts,
                 chunk=64):
    """First j in [start_j, cap) with |f^j x - zeta| < eta (intermittent).

    Each step of a chunk writes one column of the chunk's inside matrix, so
    no float (lanes, chunk) matrix is kept.
    """
    e = 1.0 + s_exp

    def scan(state, cols):
        x, = state
        inside = np.empty((x.size, cols), dtype=bool)
        for c in range(cols):
            np.less(np.abs(x - zeta), eta, out=inside[:, c])
            x = x + x**e
            x -= x >= 1.0
        return inside, (x,)

    return _first_hit(count, cap, start_j, 0, chunk, scan, (starts,))


# ------------------------------------------------- conditional ball starts

def conditional_digit_starts(gen, count, *, arcs, p_zero):
    """Leading 53 digits of points drawn from the measure restricted to a
    union of intervals.

    ``arcs`` is a pair (cdf_lo, cdf_hi) of equal-length sequences giving
    the CDF values of each interval's endpoints.  Sampling picks an
    interval proportionally to its mass, draws a uniform CDF level inside
    it, and inverts one digit at a time: within any dyadic cell the digit
    measure splits mass p_zero : 1 - p_zero, so the split point of the
    current CDF bracket is linear for every digit-product measure
    (Lebesgue is the p = 1/2 case).
    """
    cdf_lo, cdf_hi = arcs
    cdf_lo = np.asarray(cdf_lo, dtype=np.float64)
    cdf_hi = np.asarray(cdf_hi, dtype=np.float64)
    widths = cdf_hi - cdf_lo
    if np.any(widths <= 0):
        raise DomainError("empty arc in conditional start table")
    total = widths.sum()
    # pick an arc per lane proportionally to mass, then a uniform CDF level
    u = gen.random(count) * total
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    arc = np.clip(np.searchsorted(edges, u, side="right") - 1, 0,
                  len(widths) - 1)
    level = cdf_lo[arc] + (u - edges[arc])
    # invert digit by digit: lo/hi bracket the CDF of the current cell
    lo = np.zeros(count)
    hi = np.ones(count)
    digits = np.empty((count, WINDOW_BITS), dtype=bool)
    for i in range(WINDOW_BITS):
        split = lo + p_zero * (hi - lo)
        d = level >= split
        digits[:, i] = d
        lo = np.where(d, split, lo)
        hi = np.where(d, hi, split)
    return digits
