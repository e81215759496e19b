"""Sample-parallel Monte Carlo kernels.

Every kernel simulates independent samples with numpy array operations
(lanes = samples).  ``run_blocked`` slices a run into fixed-size blocks,
gives block i the substream keyed by (seed, labels..., i), executes
blocks on a thread pool, and concatenates results in block order — so
outputs are bit-identical for any thread count.  The digit kernels draw
as they scan, so each block runs its own scan on its own substream.  The
rotation and intermittent kernels draw nothing after their starts: each
block only draws its starts, and one scan then steps every lane of the
run, with no generator.

The expanding digit systems (tent/doubling) are simulated exactly on an
implicit infinite digit stream, and the engine holds every digit packed.
A digit matrix of ``rows`` lanes by ``cols`` digits is a
(rows, ceil(cols / 64)) uint64 array: digit c of a lane is bit
63 - (c mod 64) of its word c // 64, and the bits past ``cols`` are 0.
A lane's window, its next 53 digits b1 .. b53, is such a matrix of one
word.  One step shifts the window by one digit and takes in one fresh
digit at the bottom.  The j-th doubling iterate is the window read as
0.b1...b53; the j-th tent iterate is that value or its ones' complement
according to the digit just shifted out.  Direct float64 iteration of
these maps would collapse onto dyadics within 53 steps; the window never
does, at the price of truncating each reported position to 53 bits.  That
truncation is not always negligible: under a skewed Bernoulli measure a
2^-53 sliver can carry real mass (for p = 0.01, about 0.006 of the mass
lies within 2^-53 below 1/2), so ball radii and masses at that scale are
not resolved.

The ball kernels carry one 54-bit context per lane: the window in bits
52 .. 0, b1 highest, and the digit just shifted out, the tent parity, in
bit 53.  A chunk lays each lane's context word and its packed fresh digits
side by side as big-endian bytes and reads the 64-bit word at every byte
offset b >= 1.  Shifting it left by 11 - t lifts the window w after step
8b - t, t = 0 .. 7, to bits 63 .. 11, as in a packed digit word; the tent
shifts one bit less and lets the parity, then bit 63, complement the
window.  One shift of every word fills one contiguous plane, and
subtracting the word of a window v leaves (w - v) mod 2^53 on top.  The
kernels take no float per step, yet equal the per-step float recursion
bit for bit.  The position w 2^-53 is exact, so the float distance d to
zeta depends on w alone, and as rounding is monotone, d and 1 - d are
monotone on either side of c = ceil(zeta 2^53).  So the windows that the
float test d < eta (min(d, 1 - d) < eta on the circle) accepts form at
most two cyclic intervals, found once per ball by bisecting that test,
and the first-hit kernel tests each window against them.  The fold 1 - d
takes over on one side of c only and carries that side's trend across the
seam 2^53 = 0, so the float distance rises, then falls, along the offsets
(w - c) mod 2^53: the minimum-distance kernel keeps each lane's least and
greatest offset and takes the float distance of those two windows at the
end.  The context after the chunk's last step is carried into the next
chunk.

Cylinder events need no positions at all.  Letters are the digits
themselves for the doubling map and adjacent-digit XORs for the tent map,
and iterate j lies in a depth-d cylinder exactly when letters j .. j+d-1
spell its word.  The word kernels hold a chunk's letters packed in a
(words, lanes) layout, one contiguous row per 64 columns; tent letters are
W ^ ((W >> 1) | carry << 63), the carry being the digit before each word.
They find every match at once with Shift-And (Baeza-Yates and Gonnet,
1992): the match words are the AND, over k < d, of the letters shifted
right by k across word boundaries, or of their complements where the
word's k-th letter from the end is 0.  Each lane carries its last 64
letters and its last digit into the next chunk, one uint64 each, so a
chunk need not be a whole number of words.

Every first-hit kernel runs one scan, ``_first_hit``.  The kernel returns
each chunk's first column inside its target for every lane, from a given
column on; the scan turns those into times, drops finished lanes and
censors the lanes still out at the cap.  The word kernels read the first
column off the packed match words with a bit smear and a popcount; the
ball, rotation and intermittent kernels off boolean planes through
``_first_inside``, eight for a ball chunk and one for the others.
Rotations advance exact 63-bit integer positions, a chunk per numpy op.
The intermittent map steps float64 lanes with numpy's array pow, which
can differ from Python's scalar float pow (``EmpiricalOrbit`` uses that)
in the last bit, but gives each lane the same result at any position in
an array of any length.  So each lane of either map follows one orbit
whatever lanes run beside it, and neither compaction nor running a whole
run's lanes in one scan changes a value.

The digit draws fix the RNG stream, and with it every report byte:

* each chunk draws one (rows, columns) digit matrix through
  ``draw_digits``, whose rows are the lanes still live, in lane order,
  under either rule.  The ball kernels pass their ``_Scratch``, so a
  Bernoulli matrix is a view of it, valid until the kernel's next draw;
* first-hit kernels draw full ``chunk``-width matrices even when fewer
  columns remain, so runs that differ only in the cap share a stream;
  fixed-window kernels draw only the columns that remain;
* ``draw_digits`` has two rules, and both read a row's raw 64-bit words
  as little-endian bytes on every platform.  Fair digits (p_zero = 1/2:
  the tent and doubling maps under Lebesgue) come 64 to a raw word: a
  (rows, cols) draw takes (rows, ceil(cols / 64)) raw words, and each
  packed word is its raw word byte-swapped.  So digit c of a row is bit
  7 - (c mod 8) of byte c // 8 of the row's raw words.  Any other p_zero
  comes 8 to a raw word: a (rows, cols) draw takes (rows, ceil(cols / 8))
  raw words, and digit c of a row is decided by byte c of the row's raw
  words.  With T = ceil(p_zero * 2^53), a byte above T >> 45 gives 1 and
  a byte below it gives 0.  A byte equal to it is a tie: after the main
  draw, one more raw word per tie, in row-major order of the ties, gives
  1 exactly when its top 45 bits reach T mod 2^45.  A draw without ties
  takes no further words.  A digit is then 1 with mass 1 - T / 2^53,
  exactly the law of ``gen.random() >= p_zero``, and the digits are
  independent;
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
#: bits below the window in a window word
_LOW = 64 - WINDOW_BITS
#: left shifts of the word at byte b + 1 that lift the context after step
#: 8b + s + 1, s = 0 .. 7, to the top: its tent parity to bit 63
_TOP_SHIFTS = np.arange(3, 11, dtype=np.uint64)

#: a Bernoulli digit's 53-bit threshold T splits into the level T >> 45 of
#: its byte lane and the 45 bits below, which a tie word's top bits decide
_TIE_BITS = 45
_TIE_MASK = (1 << _TIE_BITS) - 1

#: lanes per tile of the iid uniform draws: a 256 x 512 float tile is 1 MB
_IID_TILE = 256

#: fraction of finished lanes that triggers an active-set compaction
_COMPACT_AT = 0.25

#: deepest cylinder the word scans run: a word must fit one uint64 register
MAX_WORD_DEPTH = 63


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


class _Scratch:
    """Flat byte buffers that a kernel reuses from chunk to chunk.

    ``scratch(name, shape, dtype)`` is a contiguous view of the buffer
    ``name``, grown only when a larger shape asks for it, so a scan does
    not hand its temporaries back to the allocator every chunk.
    """

    def __init__(self):
        self.buffers = {}

    def __call__(self, name, shape, dtype):
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype=np.uint8)
        return buf[:size].view(dtype).reshape(shape)


# ---------------------------------------------------------------- digits

def draw_digits(gen, rows, cols, p_zero, scratch=None):
    """Packed (rows, ceil(cols / 64)) digit matrix: digit c of a row is bit
    63 - (c mod 64) of word c // 64, 1 with mass 1 - p_zero, and the bits
    past ``cols`` are 0.

    At p_zero != 1/2 the temporaries and the matrix live in ``scratch``,
    a ``_Scratch``, when one is given: the matrix is then valid until the
    next draw on it.  Scratch or not, the draw takes the same raw words.

    Fair digits (p_zero = 1/2) are 64 to a raw word: the draw takes
    (rows, ceil(cols / 64)) raw words and byte-swaps them, so digit c of a
    row is bit 7 - (c mod 8) of byte c // 8 of the row's raw words read as
    little-endian bytes.

    Any other p_zero takes 8 digits from a raw word, one from each byte
    lane: the draw takes (rows, ceil(cols / 8)) raw words, and digit c of
    a row is decided by byte c of the row's raw words read as
    little-endian bytes.  Let T = ceil(p_zero * 2^53), h = T >> 45 and
    r = T mod 2^45.  A byte above h gives 1, a byte below h gives 0, and a
    byte equal to h is a tie.  Each tie then takes one more raw word w, in
    row-major order of the ties, and gives 1 exactly when w >> 19 >= r.
    The law is exact for 0 <= p_zero < 1: a byte is uniform on 0 .. 255
    and w >> 19 uniform on 0 .. 2^45 - 1, so

        P(1) = (255 - h) / 256 + (2^45 - r) / 2^53 = 1 - T / 2^53,

    which is the law of ``gen.random() >= p_zero``, whose float64 uniform
    is (raw >> 11) * 2^-53.  Every digit reads its own byte and a tie its
    own word, so the digits stay independent.
    """
    n_words = (cols + 63) // 64
    if p_zero == 0.5:
        words = gen.bit_generator.random_raw((rows, n_words))
        words.byteswap(inplace=True)
        kept = cols % 64
        if kept:  # clear the last word's bits past cols
            words[:, -1] &= np.uint64(((1 << kept) - 1) << (64 - kept))
        return words
    scratch = scratch or _Scratch()
    level = math.ceil(p_zero * 2.0 ** 53)
    high = level >> _TIE_BITS
    n_bytes = (cols + 7) // 8
    raw = gen.bit_generator.random_raw((rows, n_bytes))
    lanes = raw.astype("<u8", copy=False).view(np.uint8)[:, :cols]
    ones = np.greater(lanes, high, out=scratch("draw.one", (rows, cols), bool))
    ties = np.flatnonzero(
        np.equal(lanes, high, out=scratch("draw.tie", (rows, cols), bool)))
    if ties.size:
        tie_words = gen.bit_generator.random_raw(ties.size)
        ones.reshape(-1)[ties] = (tie_words >> np.uint64(64 - _TIE_BITS)
                                  >= np.uint64(level & _TIE_MASK))
    packed = scratch("draw.packed", (rows, 8 * n_words), np.uint8)
    packed[:, n_bytes:] = 0
    packed[:, :n_bytes] = np.packbits(ones, axis=1)
    words = scratch("draw.words", (rows, n_words), np.uint64)
    np.copyto(words, packed.view(">u8"))
    return words


def _distances(pos, zeta, circle):
    """Distances of the positions ``pos`` to zeta, written over ``pos``."""
    d = np.subtract(pos, zeta, out=pos)
    np.abs(d, out=d)
    if circle:
        np.minimum(d, 1.0 - d, out=d)
    return d


def _window_planes(context, digits, cols, tent, scratch):
    """The window words after each step of one chunk, and the context after
    the chunk.

    ``context`` holds each lane's 54-bit context and ``digits`` the packed
    digits the chunk's steps shift in.  The words come as an iterator of
    (s, plane), s = 0 .. 7, over one reused (rows, ceil(cols / 8)) uint64
    plane, so a caller works on each plane while it is in cache: [:, b] of
    plane s holds in bits 63 .. 11 the window after step 8b + s + 1,
    complemented where the tent parity is 1; the bits below are not part
    of it.  A step past ``cols`` repeats step 1.
    """
    rows = context.size
    n_words = (cols + 63) // 64
    n_bytes = (cols + 7) // 8
    row = scratch("row", (rows, n_words + 1), ">u8")
    row[:, 0] = context
    row[:, 1:] = digits[:, :n_words]
    at_byte = np.ndarray((rows, n_bytes), dtype=">u8", buffer=row, offset=1,
                         strides=(row.strides[0], 1))
    words = scratch("words", (rows, n_bytes), np.uint64)
    np.copyto(words, at_byte)
    after = words[:, (cols - 1) // 8] >> np.uint64(7 - (cols - 1) % 8)

    def planes():
        plane = scratch("plane", (rows, n_bytes), np.uint64)
        flip = scratch("flip", (rows, n_bytes), np.int64)
        for s in range(8):
            if tent:
                # the parity, now bit 63, spread over the word by an
                # arithmetic shift, complements the window below it
                np.left_shift(words, _TOP_SHIFTS[s], out=plane)
                np.right_shift(plane.view(np.int64), 63, out=flip)
                plane <<= np.uint64(1)
                plane ^= flip.view(np.uint64)
            else:
                np.left_shift(words, _TOP_SHIFTS[s] + np.uint64(1), out=plane)
            if s == 0:
                step_one = plane[:, 0].copy()
            elif 8 * (n_bytes - 1) + s >= cols:
                plane[:, -1] = step_one
            yield s, plane

    return planes(), after


def digit_window_min_distance(
    gen, count, *, n_steps, p_zero, tent, zeta, circle, chunk=256
):
    """min_{0 <= j < n_steps} dist(f^j x, zeta) for stationary digit starts.

    The minimum orbit distance is a sufficient statistic for every ball
    observable around zeta: the running maximum of phi is phi at the
    closest visit.  Each lane keeps its least and greatest window offset
    from zeta, and the closest visit is one of those two windows.
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    # window words less the word of ceil(zeta 2^53) are offsets from zeta
    centre = np.uint64((math.ceil(zeta * 2.0 ** WINDOW_BITS) << _LOW) % 2**64)
    window = draw_digits(gen, count, WINDOW_BITS, p_zero)[:, 0]
    # no digit lies left of the start window (b_0 = 0): no tent flip at j = 0
    context = window >> np.uint64(_LOW)
    low = window - centre
    high = low.copy()
    scratch = _Scratch()
    remaining = n_steps - 1
    while remaining > 0:
        cols = min(chunk, remaining)
        planes, context = _window_planes(
            context, draw_digits(gen, count, cols, p_zero, scratch), cols,
            tent, scratch)
        least = scratch("least", (count, (cols + 7) // 8), np.uint64)
        most = scratch("most", least.shape, np.uint64)
        least[...] = low[:, None]
        most[...] = high[:, None]
        for _, offsets in planes:
            offsets -= centre
            np.minimum(least, offsets, out=least)
            np.maximum(most, offsets, out=most)
        low, high = least.min(axis=1), most.max(axis=1)
        remaining -= cols
    nearest = ((np.stack([low, high]) + centre) >> np.uint64(_LOW)) * _SCALE
    return (_distances(nearest, zeta, circle).min(axis=0),)


def iid_min_distance_uniform(gen, count, *, n_draws, zeta, circle, chunk=512):
    """min distance to zeta over n iid uniform points per lane.

    ``evl`` computes the iid route exactly; this kernel stays as the exact
    law's sampled test reference and as a span the benchmark trace names.
    Each chunk of ``chunk`` draws per lane is filled ``_IID_TILE`` lanes
    at a time into one reused buffer, small enough to stay in cache; the
    tiles take the stream in the order one (count, chunk) draw would.
    """
    if n_draws < 1:
        raise DomainError("need at least one draw")
    best = np.full(count, np.inf)
    buf = np.empty(min(_IID_TILE, count) * min(chunk, n_draws))
    left = n_draws
    while left > 0:
        cols = min(chunk, left)
        for lo in range(0, count, _IID_TILE):
            rows = min(_IID_TILE, count - lo)
            x = buf[:rows * cols].reshape(rows, cols)
            gen.random(out=x)
            d = _distances(x, zeta, circle)
            np.minimum(best[lo:lo + rows], d.min(axis=1),
                       out=best[lo:lo + rows])
        left -= cols
    return (best,)


# ------------------------------------------------------------ first hits

def _first_hit(count, cap, start_j, j, chunk, scan, state, inside_before=None):
    """First iterate in [start_j, cap) inside the target, for ``count`` lanes.

    ``state`` is a tuple of per-lane arrays.  ``scan(state, cols, first)``
    returns, for every live lane, the first column c >= ``first`` whose
    iterate j + c is inside (``cols`` where none is), and the state after
    the chunk's ``cols`` iterates.  ``inside_before`` marks the lanes
    inside at iterate j - 1.  Returns (times, hit): times[i] = cap and
    hit[i] = False when the lane never enters by cap - 1.
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
        column, state = scan(state, cols, max(start_j - j, 0))
        hits = np.flatnonzero((column < cols) & ~done)
        if hits.size:
            times[lane[hits]] = j + column[hits]
            done[hits] = True
        j += cols
        if done.mean() > _COMPACT_AT:
            keep = ~done
            lane, done = lane[keep], done[keep]
            state = tuple(a[keep] for a in state)
    return times, times < cap


def _first_inside(inside, first, cols):
    """Each lane's first inside column in ``first`` .. ``cols`` - 1; ``cols``
    where the lane has none.

    ``inside`` is a (k, lanes, ceil(cols / k)) boolean array whose [s, :, b]
    is column k b + s; the columns outside the range are cleared in place.
    """
    k, rows, n = inside.shape
    inside[:, :, :first // k] = False
    inside[:first % k, :, first // k:first // k + 1] = False
    inside[cols - k * (n - 1):, :, -1] = False
    column = np.full(rows, cols, dtype=np.int64)
    by_group = inside.any(axis=0)
    rows_in = np.flatnonzero(by_group.any(axis=1))
    b = by_group[rows_in].argmax(axis=1)
    column[rows_in] = k * b + inside[:, rows_in, b].argmax(axis=0)
    return column


# ----------------------------------------------------- word (cylinder) scans

def _word_scan_start(count, word_int, depth, start_j, preload):
    """The scan state of ``count`` fresh lanes, (letters, digit), and the
    letters read so far.

    ``letters`` holds the last 64 letters read, the latest in bit 0, and
    ``digit`` the last digit drawn (b_0 = 0 before any).  A preloaded lane
    has already read the word itself.
    """
    if not 1 <= depth <= MAX_WORD_DEPTH:
        raise DomainError(
            f"cylinder scans support depths 1..{MAX_WORD_DEPTH}")
    if not 0 <= word_int < 1 << depth:
        raise DomainError("word_int must fit in depth letters")
    if preload and start_j == 0:
        raise DomainError("a preloaded start is already inside at j = 0")
    if preload:
        # the digit b_depth of a point whose first letters spell the word is
        # the XOR of those letters (tent letter algebra; b_0 = 0)
        digit = bin(word_int).count("1") & 1
        return (np.full(count, word_int, dtype=np.uint64),
                np.full(count, digit, dtype=np.uint64)), depth
    return (np.zeros(count, dtype=np.uint64),
            np.zeros(count, dtype=np.uint64)), 0


def _column_masks(n_words, first, cols):
    """(n_words, 1) masks of the packed columns first .. cols - 1."""
    masks = []
    for q in range(n_words):
        lo = min(max(first - 64 * q, 0), 64)
        hi = min(max(cols - 64 * q, 0), 64)
        masks.append(((1 << (hi - lo)) - 1) << (64 - hi) if hi > lo else 0)
    return np.array(masks, dtype=np.uint64)[:, None]


def _word_chunk(digits, cols, first, state, word_int, depth, tent):
    """Packed match words of one chunk, and the scan state after it.

    Bit 63 - (c mod 64) of match word c // 64 (a (words, lanes) array) is
    set when the ``depth`` letters ending at the chunk's letter c spell the
    word, for c in first .. cols - 1.  Tent letters XOR each digit with the
    one before it, which is the carried digit for the chunk's letter 0;
    doubling letters are the digits.
    """
    carry, digit = state
    n_words = (cols + 63) // 64
    ext = np.empty((n_words + 1, carry.size), dtype=np.uint64)
    ext[0] = carry
    letters = ext[1:]
    letters[...] = digits[:, :n_words].T
    last = letters[(cols - 1) // 64] >> np.uint64(63 - (cols - 1) % 64)
    if tent:
        before = letters >> np.uint64(1)
        before[0] |= digit << np.uint64(63)
        before[1:] |= letters[:-1] << np.uint64(63)
        letters ^= before
    digit = last & np.uint64(1)
    # the 64 letters ending at letter cols - 1, which sits in ext[cols // 64]
    # or ext[cols // 64 + 1]
    q, r = divmod(cols, 64)
    carry = ext[q] if r == 0 else (
        (ext[q] << np.uint64(r)) | (ext[q + 1] >> np.uint64(64 - r)))
    flip = ~ext if word_int != (1 << depth) - 1 else None
    match = np.empty_like(letters)
    term = np.empty_like(letters)
    spill = np.empty_like(letters)
    for k in range(depth):
        # letter k from the end of the word against the letters k back
        src = ext if (word_int >> k) & 1 else flip
        if k == 0:
            match[...] = src[1:]
            continue
        np.right_shift(src[1:], np.uint64(k), out=term)
        np.left_shift(src[:-1], np.uint64(64 - k), out=spill)
        term |= spill
        match &= term
    match &= _column_masks(n_words, first, cols)
    return match, (carry, digit)


def _first_set_column(match, cols):
    """Each lane's first set column of its packed match words; ``cols``
    where there is none.

    The first word with a bit set holds the column; smearing its highest
    set bit down to bit 0 leaves 64 - (column mod 64) bits set.
    """
    column = np.full(match.shape[1], cols, dtype=np.int64)
    nonzero = match != 0
    lanes = np.flatnonzero(nonzero.any(axis=0))
    if lanes.size:
        q = nonzero[:, lanes].argmax(axis=0)
        v = match[q, lanes]
        for s in (1, 2, 4, 8, 16, 32):
            v |= v >> np.uint64(s)
        column[lanes] = 64 * (q + 1) - np.bitwise_count(v)
    return column


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
    state, consumed = _word_scan_start(count, word_int, depth, start_j,
                                       preload)

    def scan(state, cols, first):
        digits = draw_digits(gen, state[0].size, chunk, p_zero)
        match, state = _word_chunk(digits, cols, first, state, word_int,
                                   depth, tent)
        return _first_set_column(match, cols), state

    # column c ends the window that starts at j = consumed + c + 1 - depth
    return _first_hit(count, cap, start_j, consumed + 1 - depth, chunk, scan,
                      state)


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
    state, consumed = _word_scan_start(count, word_int, depth, start_j,
                                       preload)
    counts = np.zeros(count, dtype=np.int64)
    total_letters = window + depth
    while consumed < total_letters:
        cols = min(chunk, total_letters - consumed)
        digits = draw_digits(gen, count, cols, p_zero)
        first = max(start_j + depth - 1 - consumed, 0)
        match, state = _word_chunk(digits, cols, first, state, word_int,
                                   depth, tent)
        counts += np.bitwise_count(match).sum(axis=0, dtype=np.int64)
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

    ``initial_digits``, a (lanes, 1) packed digit matrix, fixes the 53
    leading digits of the start point — used by conditional (return-time)
    starts drawn by inverse-CDF; the tail beyond 53 digits is drawn iid,
    which misstates the conditional law only on boundary cells of mass
    O(2^-53).
    """
    if initial_digits is None:
        window = draw_digits(gen, count, WINDOW_BITS, p_zero)
    else:
        window = np.asarray(initial_digits)
        if window.shape != (count, 1) or window.dtype != np.uint64:
            raise DomainError(
                f"initial_digits must be a ({count}, 1) packed uint64 digit "
                f"matrix; got shape {window.shape} of {window.dtype}"
            )
    pieces = _ball_windows(zeta, eta, circle)
    window = window[:, 0]
    inside_before = (_in_ball(window, pieces, np.empty(count, dtype=bool),
                              np.empty_like(window)) if start_j == 0 else None)
    scratch = _Scratch()

    def scan(state, cols, first):
        context, = state
        digits = draw_digits(gen, context.size, chunk, p_zero, scratch)
        planes, context = _window_planes(context, digits, cols, tent, scratch)
        # [s, :, b] is step 8b + s + 1, column 8b + s
        shape = (context.size, (cols + 7) // 8)
        inside = scratch("inside", (8, *shape), bool)
        offsets = scratch("offsets", shape, np.uint64)
        for s, plane in planes:
            _in_ball(plane, pieces, inside[s], offsets)
        return _first_inside(inside, first, cols), (context,)

    # column c is the position after step c + 1 of the chunk
    return _first_hit(count, cap, start_j, 1, chunk, scan,
                      (window >> np.uint64(_LOW),), inside_before)


def _ball_windows(zeta, eta, circle):
    """The windows w with dist(w 2^-53, zeta) < eta under ``_distances``,
    as cyclic intervals (start, width) mod 2^53 (module docstring)."""
    top, c = 1 << WINDOW_BITS, math.ceil(zeta * 2.0 ** WINDOW_BITS)

    def first(lo, hi, holds):
        """The least w in [lo, hi) from which holds(dist) is true."""
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(abs(mid * _SCALE - zeta)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    # [lo, hi) around c, from the monotone sides of d; on the circle also
    # [b, 2^53) and [0, a), where 1 - d < eta
    ends = [(first(0, c, lambda d: d < eta),
             first(c, top, lambda d: d >= eta))]
    if circle:
        ends.append((first(c, top, lambda d: 1.0 - d < eta),
                     top + first(0, c, lambda d: 1.0 - d >= eta)))
    return [(lo % top, hi - lo) for lo, hi in ends if hi > lo]


def _in_ball(words, pieces, out, offsets):
    """Marks in ``out`` the window words w in one of the cyclic intervals
    ``pieces``: (w - start) mod 2^53 < width."""
    if not pieces:
        out[...] = False
    for k, (start, width) in enumerate(pieces):
        np.subtract(words, np.uint64(start << _LOW), out=offsets)
        last = np.uint64((width << _LOW) - 1)
        if k:
            out |= offsets <= last
        else:
            np.less_equal(offsets, last, out=out)
    return out


# --------------------------------------------------------------- rotation

def rotation_starts(gen, count):
    """Stationary (uniform) fixed-point positions on the 2^63 grid."""
    return gen.integers(0, FIXED_ONE, size=count, dtype=np.uint64)


def rotation_first_hit(
    gen, count, *, step_fixed, lo, hi, cap, start_j=1, starts, chunk=64
):
    """First j in [start_j, cap) with the rotated position in [lo, hi),
    for the ``count`` lanes that start at ``starts``; ``gen`` is unused.

    Positions are 63-bit integers; the step is the quantized angle, so
    the sweep is exact and matches the scalar map for every lane.  A chunk
    adds offsets[k] = k * step mod 2^63 to the chunk's first positions;
    both terms lie below 2^63, so the uint64 sum cannot wrap.
    """
    if not 0 <= lo < hi <= FIXED_ONE:
        raise DomainError("arc must satisfy 0 <= lo < hi <= 2^63")
    m = np.uint64(FIXED_ONE)
    lo_u, hi_u = np.uint64(lo), np.uint64(hi)
    offsets = np.array([k * step_fixed % FIXED_ONE for k in range(chunk + 1)],
                       dtype=np.uint64)

    def advance(s, by):
        """Positions s + by mod 2^63, for offsets ``by`` below 2^63."""
        pos = s + by
        np.subtract(pos, m, out=pos, where=pos >= m)
        return pos

    def scan(state, cols, first):
        s, = state
        pos = advance(s[:, None], offsets[:cols])
        inside = (pos >= lo_u) & (pos < hi_u)
        return (_first_inside(inside[None], first, cols),
                (advance(s, offsets[cols]),))

    s = advance(starts, np.uint64(start_j * step_fixed % FIXED_ONE))
    return _first_hit(count, cap, start_j, start_j, chunk, scan, (s,))


def rotation_min_distance(gen, count, *, step_fixed, zeta_fixed, n_steps,
                          starts):
    """Circle distance minimum dist(f^j x, zeta) over j < n_steps, for the
    ``count`` lanes that start at ``starts``; ``gen`` is unused."""
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    s = starts.astype(np.uint64)
    step = np.uint64(step_fixed)
    z = np.uint64(zeta_fixed)
    m = np.uint64(FIXED_ONE)  # fits in uint64, unlike in int64
    best = np.full(count, FIXED_ONE, dtype=np.uint64)
    for _ in range(n_steps):
        diff = np.maximum(s, z) - np.minimum(s, z)
        np.minimum(diff, m - diff, out=diff)
        np.minimum(best, diff, out=best)
        s += step
        s[s >= m] -= m
    return (best * (1.0 / FIXED_ONE),)


# ----------------------------------------------------------- intermittent

def mp_min_distance(gen, count, *, s_exp, zeta, n_steps, starts):
    """Minimum interval distance to zeta along intermittent-map orbits.

    ``starts`` come from the caller (stationary draws from the empirical
    invariant measure); ``gen`` is unused.  The update is numpy's array
    pow, which depends on a lane's start alone, not on its position.
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
    """First j in [start_j, cap) with |f^j x - zeta| < eta (intermittent),
    for the ``count`` lanes that start at ``starts``; ``gen`` is unused.

    Each step of a chunk writes one column of the chunk's inside matrix, so
    no float (lanes, chunk) matrix is kept.
    """
    e = 1.0 + s_exp

    def scan(state, cols, first):
        x, = state
        inside = np.empty((x.size, cols), dtype=bool)
        for c in range(cols):
            np.less(np.abs(x - zeta), eta, out=inside[:, c])
            x = x + x**e
            x -= x >= 1.0
        return _first_inside(inside[None], first, cols), (x,)

    return _first_hit(count, cap, start_j, 0, chunk, scan, (starts,))


# ------------------------------------------------- conditional ball starts

def conditional_digit_starts(gen, count, *, arcs, p_zero):
    """Packed (count, 1) leading 53 digits of points drawn from the measure
    restricted to a union of intervals.

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
    window = np.zeros(count, dtype=np.uint64)
    for _ in range(WINDOW_BITS):
        split = lo + p_zero * (hi - lo)
        d = level >= split
        window = (window << np.uint64(1)) | d
        lo = np.where(d, split, lo)
        hi = np.where(d, hi, split)
    return (window << np.uint64(64 - WINDOW_BITS))[:, None]
