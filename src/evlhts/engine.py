"""Sample-parallel Monte Carlo kernels.

Every kernel simulates independent samples with numpy array operations
(lanes = samples).  A run's lanes fall into fixed-size blocks
(``rng.block_slices``), and block i draws from the substream keyed by
(seed, labels..., i), so outputs are bit-identical for any thread count.
Every digit kernel takes every block's generator and runs all the blocks
of a run in one call on the calling thread, each block drawing its
starts, return-time ball starts included, then its digits as it goes.
The word scans step the blocks side by side in tiles of two blocks, the
ball first-hit scan in tiles of one, and ``digit_window_min_distance``
runs them one after another.  ``run_blocked`` runs a kernel once per
block on a thread pool and concatenates results in block order; it
serves only ``hts.orbit_starts``, which draws the rotation and
intermittent starts.  Those two maps draw nothing after their starts, so
one scan then steps every lane of the run and takes no generator.

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
bit for bit.  The first-hit kernel takes the target's arcs, at most two
pieces [lo, hi) of the 2^-128 grid, on which the window w lies at w 2^75:
a piece holds the windows from ceil(lo 2^-75) up to ceil(hi 2^-75), one
integer ceil per endpoint, as the rotation's grid points (``_arc_windows``).
The position w 2^-53 is exact, so the float distance d to
zeta depends on w alone, and as rounding is monotone, d and 1 - d are
monotone on either side of c = ceil(zeta 2^53).  The fold 1 - d (the
circle's min(d, 1 - d)) takes over on one side of c only and carries that
side's trend across the seam 2^53 = 0, so the float distance rises, then
falls, along the offsets (w - c) mod 2^53: the minimum-distance kernel
keeps each lane's least and greatest offset and takes the float distance
of those two windows at the end.

Both ball kernels lift only candidate words, picked by one table and a
bound.  In the word at byte offset b, bits 60 .. 41 hold the tent parity
and the 12-bit prefix of the window after each step 8b - t (complemented
where the parity is 1).  Let Q be the prefix of the centre word
C = c << 11, and d = (P - Q) mod 4096 for a step's prefix P.  A table
over the 2^20 values of those bits, built once per run, holds the least
min(d, 4096 - d) over a word's 8 steps, capped at 255.  A word is a
candidate when its entry is at most the bound, found with one lookup per
word, and only the candidates' 8 steps are lifted.  The first-hit
kernel's bound is one per ball: the greatest capped min(d, 4096 - d) over
the prefix cells of its window intervals, and -1, which no entry meets,
for a ball with no window.  A window inside an interval has its prefix
among the interval's cells, so a word with a step inside has an entry at
most the bound, and the exact interval test then decides.  The
minimum-distance kernel's bound is one per lane.  The top 12 bits of a
step's offset (w - C) mod 2^64 are d, or d - 1 mod 4096 where the bits of
w below its prefix fall below C's.  So the step can lower the lane's
least offset low only if d <= (low >> 52) + 1, and raise its greatest
offset high only if d = 0 or 4096 - d <= 4096 - (high >> 52).  The
lane's threshold min(255, max((low >> 52) + 1, 4096 - (high >> 52)))
therefore drops no step that moves low or high, so both come out bit for
bit as from every step.  A lane that has seen one window bounds nothing,
so each block's first chunk lifts every word.  The context after a
chunk's last step is carried into the next chunk.

Cylinder events need no positions at all.  Letters are the digits
themselves for the doubling map and adjacent-digit XORs for the tent map,
and iterate j lies in a depth-d cylinder exactly when letters j .. j+d-1
spell its word.  Each block draws a chunk's digits into its lanes'
columns of a (words, lanes) buffer through a transposed view.  The word
kernels find every match at once with Shift-And (Baeza-Yates and Gonnet,
1992) on overlapping letter rows: with R = min(d, 32) and P = 64 - R, row
q holds the R digits before digit qP, then digits qP .. qP + P - 1, and
above 32 letters the carried digits are a row above the chunk.  Tent
letters XOR each row with itself shifted right by one.  The letter k back
from column qP + i is k mod P bits above it in row q - floor(k / P), so
the match rows are the AND, over k < d, of those rows shifted right by
k mod P, or of their complements where the word's k-th letter from the
end is 0.  A run of L >= 4 equal letters read off one row is one AND of
that row shifted right by 0 .. L - 1, built by doubling (A2 = A & A >> 1,
A4 = A2 & A2 >> 2, ..., and one top-up shift), then shifted once into
the match rows: about 2 log2 L passes over the rows in place of 2 L.
The runs of ones read the letter rows, and then, complemented in place,
the rows serve the runs of zeros.  Each lane carries its last 64 digits
into the next chunk in one uint64, which give the up to 62 letters
before the chunk's first that a word of at most 63 letters reads, so a
chunk need not be a whole number of words.

Every first-hit kernel runs one scan, ``_first_hit``, over all the lanes
of a run.  It walks the live lanes in tiles, runs of consecutive whole
blocks holding at most the kernel's tile of live lanes: ``_WORD_TILE``,
two blocks' worth, for the word scans, ``rng.BLOCK`` for the others.  So
a chunk's temporaries stay at one tile's size however many blocks a run
has, and the few lanes left late in a run share one tile.  The
intermittent kernel, which takes a Python step per tile and iterate,
keeps every lane in one tile.  The kernel returns only the lanes of a
tile with a column inside its target, from a given column on, and each
one's first such column; the scan marks the times of those not done
before, drops finished lanes and censors the lanes still out at the cap.
The word kernels read the first column off the match rows, as the
highest set bit of a lane's first nonzero row, from its float64
exponent; the ball kernel off its candidates' steps, and the rotation
and intermittent kernels off a (cols, lanes) boolean plane through
``_first_inside``: row c holds column c of every lane.  Rotations
advance exact 63-bit integer positions, doubled onto the wrapping 2^64
grid, a chunk per numpy op.
The intermittent map steps float64 lanes in place (``_mp_step``) with
numpy's array pow, which can differ from Python's scalar float pow
(``EmpiricalOrbit`` uses that) in the last bit, but gives each lane the
same result at any position in an array of any length or forward stride.
So each lane of either map follows one orbit whatever lanes run beside
it, and neither compaction nor running a whole run's lanes in one scan
changes a value.

The digit draws fix the RNG stream, and with it every report byte:

* each chunk draws one (rows, columns) digit matrix per block through
  ``draw_digits`` on the block's generator, whose rows are the block's
  lanes still live, in lane order, under either rule.  The first-hit
  kernels and ``word_hit_count`` write each block's draw straight into
  its lanes of the tile's matrix, the word scans into a transposed view of
  their letter buffer; ``digit_window_min_distance`` into its
  ``_Scratch``, where it is valid until the kernel's next draw;
* first-hit kernels draw full ``chunk``-width matrices even when fewer
  columns remain, so runs that differ only in the cap share a stream;
  fixed-window kernels draw only the columns that remain;
* ``draw_digits`` has two rules, stated with the raw words each takes in
  its docstring: fair digits (p_zero = 1/2) come 64 to a raw word, and any
  other p_zero 8 to a 16-bit lane, by inverting the exact CDF of 8 digits
  (Knuth and Yao, 1976), with further raw words for the lanes whose cell a
  CDF boundary splits (255 of 65,536 at p_zero = 0.3);
* first-hit kernels drop a block's finished lanes between chunks once
  more than ``_COMPACT_AT`` of the block's live lanes have hit, and keep
  the others in lane order; a block with no live lane left draws no
  more.  That sets the rows of each block's next draw, so ``_COMPACT_AT``
  is part of the stream: changing it changes every result.  Tiles only
  group the draws; they move none.
"""

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError
from .measures import FIXED_DEPTH
from .rng import BLOCK, block_slices, substream
from .systems import FIXED_ONE, WINDOW_BITS

_SCALE = 2.0 ** -WINDOW_BITS
#: bits below the window in a window word
_LOW = 64 - WINDOW_BITS
#: left shifts of the word at byte b + 1 that lift the context after step
#: 8b + s + 1, s = 0 .. 7, to the top: its tent parity to bit 63
_TOP_SHIFTS = np.arange(3, 11, dtype=np.uint64)
#: window prefix bits per step in the ball kernel's prefix table; the
#: table reads a byte-offset word from bit 60, b1 of its first step, down
#: past the last step's prefix to bit _FIELD_SHIFT = 41
_PREFIX_BITS = 12
_FIELD_SHIFT = WINDOW_BITS - _PREFIX_BITS

#: a Bernoulli draw reads each raw word as 4 little-endian 16-bit lanes,
#: each giving a byte of 8 digits by inverting their CDF (``_ByteLaw``),
#: whose boundaries are integers over 2^(8 * 53): a boundary's cell is its
#: top 16 bits, the bits below _CELL_SHIFT its offset in the cell
_LANE_BITS = 16
_CELL_SHIFT = 8 * 53 - _LANE_BITS
#: an offset, padded to whole words of 64 bits, is read word by word
_OFFSET_BITS = 7 * 64
_OFFSET_PAD = _OFFSET_BITS - _CELL_SHIFT
#: the bit of a ``_ByteLaw`` table entry that marks a tie cell
_TIE_FLAG = 0x100
#: uint64 in the platform's opposite byte order: assigning through it
#: byte-swaps
_SWAPPED = np.dtype(np.uint64).newbyteorder()

#: lanes per tile of the iid uniform draws: a 256 x 512 float tile is 1 MB
_IID_TILE = 256

#: fraction of finished lanes that triggers an active-set compaction
_COMPACT_AT = 0.25

#: live lanes per tile of the word scans; other first-hit scans take BLOCK
_WORD_TILE = 2 * BLOCK

#: deepest cylinder the word scans run: a word must fit one uint64 register
MAX_WORD_DEPTH = 63


def block_substreams(n_samples, master_seed, labels):
    """The generator of every block of ``rng.block_slices(n_samples)``:
    block i draws from the substream keyed by (seed, labels..., i)."""
    return [substream(master_seed, *labels, index)
            for index, _, _ in block_slices(n_samples)]


def run_blocked(n_samples, master_seed, labels, kernel, threads=1):
    """Run ``kernel(gen, count)`` over every block and concatenate.

    ``kernel`` must return a tuple of 1-d arrays of length ``count`` (or
    2-d with ``count`` rows).  Results are concatenated in block order.
    Only ``hts.orbit_starts`` comes here (module docstring).
    """
    gens = block_substreams(n_samples, master_seed, labels)
    counts = [count for _, _, count in block_slices(n_samples)]
    if threads <= 1:
        parts = [kernel(gen, count) for gen, count in zip(gens, counts)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(kernel, gens, counts))
    width = len(parts[0])
    return tuple(
        np.concatenate([p[i] for p in parts], axis=0) for i in range(width)
    )


class _Scratch:
    """Flat byte buffers that a kernel reuses from chunk to chunk.

    ``scratch(name, shape, dtype)`` is a contiguous view of the buffer
    ``name``, grown only when a larger shape asks for it, so a scan does
    not hand its temporaries back to the allocator every chunk.  The view
    of each (name, shape, dtype) is made once and returned again, until
    the buffer grows: then that name's views are dropped with it.
    """

    def __init__(self):
        self.buffers = {}
        self.views = {}

    def __call__(self, name, shape, dtype):
        key = name, shape, dtype
        view = self.views.get(key)
        if view is not None:
            return view
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype=np.uint8)
            # the views of the old buffer would keep it alive
            for old in [old for old in self.views if old[0] == name]:
                del self.views[old]
        view = self.views[key] = buf[:size].view(dtype).reshape(shape)
        return view


# ---------------------------------------------------------------- digits

class _ByteLaw:
    """The exact law of 8 Bernoulli digits, inverted over 16-bit lanes.

    With q = T / 2^53, T = ceil(p_zero * 2^53), byte b of 8 digits (the
    first its most significant bit) with a ones has the atom
    q^(8 - a) (1 - q)^a.  Ordered by byte value, the atoms put boundaries
    B_1 <= ... <= B_255 on [0, 1], integers over 2^424 here, and a uniform
    U gives the byte b with B_b <= U < B_(b + 1).  A lane v is U's first 16
    bits.  ``table[v]`` is the byte of the cell [v, v + 1) 2^-16's least
    point: the number of boundaries at or below v 2^-16.  Where a boundary
    lies strictly inside the cell, the entry also has ``_TIE_FLAG`` set,
    and U's further bits decide.  ``offsets[j]`` is boundary j + 1's
    distance from its cell's start in units of 2^-464, 7 words of 64 bits
    below the lane; ``cell``, ``top`` and ``more`` give its cell (-1 at a
    cell edge), its first such word, and whether any bit follows it.  They
    are padded past boundary 255 to be read at any index below
    255 + ``most``, the most boundaries one cell holds.
    """

    def __init__(self, p_zero):
        zero = math.ceil(p_zero * 2.0 ** 53)
        one = 2 ** 53 - zero
        bounds = list(itertools.accumulate(
            zero ** (8 - b.bit_count()) * one ** b.bit_count()
            for b in range(255)))
        cells = np.array([b >> _CELL_SHIFT for b in bounds])
        inside = np.array([b % (1 << _CELL_SHIFT) != 0 for b in bounds])
        # cell v's least point passes the boundaries with ceil(B 2^16) <= v:
        # byte b fills the cells from ceil(B_b 2^16) to ceil(B_(b + 1) 2^16)
        edges = np.concatenate(([0], cells + inside, [1 << _LANE_BITS]))
        self.table = np.repeat(np.arange(256, dtype=np.uint16),
                               np.diff(edges))
        self.table[cells[inside]] |= _TIE_FLAG
        self.offsets = [(b % (1 << _CELL_SHIFT)) << _OFFSET_PAD
                        for b in bounds]
        self.most = max(np.unique(cells[inside], return_counts=True)[1],
                        default=0)
        size = len(bounds) + self.most
        self.cell = np.full(size, -1, dtype=np.int64)
        self.cell[:len(bounds)][inside] = cells[inside]
        self.top = np.zeros(size, dtype=np.uint64)
        self.top[:len(bounds)] = [o >> (_OFFSET_BITS - 64)
                                  for o in self.offsets]
        self.more = np.zeros(size, dtype=bool)
        self.more[:len(bounds)] = [o % (1 << (_OFFSET_BITS - 64)) != 0
                                   for o in self.offsets]

    def resolve(self, gen, cells, low):
        """The bytes of tie lanes ``cells``, whose entries give ``low``.

        Each tie takes one raw word w, in order, as U's next 64 bits, and
        passes a boundary of its cell whose top word is below w, or equals
        w with no bit after it.  A tie whose w equals the top word of a
        boundary with further bits is undecided by it; after every tie has
        its word, each such tie in order takes further words until it is
        decided (``_decide``).
        """
        words = gen.bit_generator.random_raw(cells.size)[:, None]
        low = low.astype(np.int64)
        # the boundaries that cell might hold, one row per tie
        at = low[:, None] + np.arange(self.most)
        inside = self.cell[at] == cells[:, None]
        top, more = self.top[at], self.more[at]
        even = inside & (top == words)
        byte = low + ((inside & (top < words)) | (even & ~more)).sum(axis=1)
        for k in np.flatnonzero((even & more).any(axis=1)):
            byte[k] = self._decide(gen, int(cells[k]), int(low[k]),
                                   int(words[k, 0]))
        return byte

    def _decide(self, gen, cell, low, word):
        """The byte of a tie in ``cell`` whose first tie word is ``word``.

        U's offset in the cell, read 64 bits at a time, is known to lie in
        [u, u + 1) 2^-bits.  A boundary at or below u 2^-bits is passed, one
        at or above (u + 1) 2^-bits is not; while one lies between, the tie
        takes one more raw word.  After 7 words the offsets are integers at
        the scale read, so every boundary is decided.
        """
        offsets = [o for j, o in enumerate(self.offsets[low:], low)
                   if self.cell[j] == cell]
        u, bits = word, 64
        while True:
            shift = _OFFSET_BITS - bits
            if all(o <= u << shift or o >= (u + 1) << shift for o in offsets):
                return low + sum(o <= u << shift for o in offsets)
            u = (u << 64) | int(gen.bit_generator.random_raw(1)[0])
            bits += 64


@functools.lru_cache(maxsize=8)
def _byte_law(p_zero):
    """The ``_ByteLaw`` of p_zero, built on its first draw."""
    return _ByteLaw(p_zero)


def draw_digits(gen, rows, cols, p_zero, scratch=None, out=None):
    """Packed (rows, ceil(cols / 64)) digit matrix: digit c of a row is bit
    63 - (c mod 64) of word c // 64, 1 with mass 1 - p_zero, and the bits
    past ``cols`` are 0.

    The matrix is written to ``out``, given (rows, ceil(cols / 64)) uint64
    rows, else to ``scratch``, a ``_Scratch`` (a fresh one if None), where
    it is valid until the next draw on it; the temporaries live in
    ``scratch``.  Both rules read a row's raw 64-bit words as
    little-endian bytes on every platform.

    Fair digits (p_zero = 1/2) are 64 to a raw word: the draw takes
    (rows, ceil(cols / 64)) raw words and writes each byte-swapped, so
    digit c of a row is bit 7 - (c mod 8) of byte c // 8 of its raw words.

    Any other p_zero takes 8 digits from each 16-bit lane of a raw word:
    the draw takes (rows, ceil(ceil(cols / 8) / 4)) raw words, and lane i
    of a row, its bytes 2i and 2i + 1 read little-endian, gives digits
    8i .. 8i + 7, the first as the byte's most significant bit.  The lanes
    from ceil(cols / 8) on are drawn and unused.  Let q = T / 2^53, with
    T = ceil(p_zero * 2^53).  A lane v is the first 16 bits of a uniform
    U, and its byte is the one whose interval [B_b, B_(b + 1)) of the exact
    CDF of 8 digits, each 0 with mass q, holds U (``_ByteLaw``).  Mostly
    v alone decides it, by one table lookup.  A lane whose cell
    [v, v + 1) 2^-16 holds a boundary strictly inside is a tie: after the
    main draw each tie takes one more raw word, in row-major order of the
    ties, as U's next 64 bits.  A tie word equal to the top 64 bits of a
    boundary that has further bits (probability below 2^-56 per tie) does
    not decide; once every tie has its word, each undecided tie in
    row-major order takes further words, one at a time, until it is
    decided.  A draw without ties takes no further words.  The bits read
    are those of one uniform U per lane, so the byte is b with mass
    B_(b + 1) - B_b = q^(8 - a) (1 - q)^a for a ones in b exactly: the
    digits are independent and each is 1 with mass 1 - T / 2^53, the law
    of ``gen.random() >= p_zero``, whose float64 uniform is
    (raw >> 11) 2^-53.
    """
    n_words = (cols + 63) // 64
    if scratch is None:
        scratch = _Scratch()
    if out is None:
        out = scratch("draw.words", (rows, n_words), np.uint64)
    if p_zero == 0.5:
        out.view(_SWAPPED)[...] = gen.bit_generator.random_raw((rows, n_words))
        kept = cols % 64
        if kept:  # clear the last word's bits past cols
            out[:, -1] &= np.uint64(((1 << kept) - 1) << (64 - kept))
        return out
    law = _byte_law(p_zero)
    n_lanes = (cols + 7) // 8
    raw = gen.bit_generator.random_raw((rows, (n_lanes + 3) // 4))
    lanes = raw.astype("<u8", copy=False).view("<u2")[:, :n_lanes]
    looked = np.take(law.table, lanes, mode="clip",
                     out=scratch("draw.looked", (rows, n_lanes), np.uint16))
    packed = scratch("draw.packed", (rows, 8 * n_words), np.uint8)
    packed[:, n_lanes:] = 0
    np.copyto(packed[:, :n_lanes], looked, casting="unsafe")
    ties = np.flatnonzero(np.greater_equal(
        looked, _TIE_FLAG, out=scratch("draw.tie", (rows, n_lanes), bool)))
    if ties.size:
        row, lane = np.divmod(ties, n_lanes)
        packed[row, lane] = law.resolve(gen, lanes[row, lane],
                                        packed[row, lane])
    if cols % 8:  # clear the last byte's bits past cols
        packed[:, n_lanes - 1] &= np.uint8((0xFF << (8 - cols % 8)) & 0xFF)
    np.copyto(out, packed.view(">u8"))
    return out


def _distances(pos, zeta, circle, out):
    """Distances of the positions ``pos`` to zeta, written to ``out``."""
    d = np.subtract(pos, zeta, out=out)
    np.abs(d, out=d)
    if circle:
        np.minimum(d, 1.0 - d, out=d)
    return d


def _window_words(context, digits, cols, scratch):
    """The word at every byte offset of one chunk, and the context after
    the chunk.

    ``context`` holds each lane's 54-bit context and ``digits`` the packed
    digits the chunk's steps shift in.  [:, b] of the (rows, ceil(cols / 8))
    uint64 words is the word at byte offset b + 1, which holds the windows
    after steps 8b + 1 .. 8b + 8 (``_lift``).
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
    return words, words[:, (cols - 1) // 8] >> np.uint64(7 - (cols - 1) % 8)


def _lift(words, shift, tent, out, flip):
    """Writes into ``out`` the window after step s + 1 of each byte-offset
    word in bits 63 .. 11, complemented where the tent parity is 1; the
    bits below are not part of it.  ``shift`` is ``_TOP_SHIFTS[s]``, or
    a column of them to lift every step at once; ``flip`` is int64
    scratch."""
    if tent:
        # the parity, now bit 63, spread over the word by an arithmetic
        # shift, complements the window below it
        np.left_shift(words, shift, out=out)
        np.right_shift(out.view(np.int64), 63, out=flip)
        out <<= np.uint64(1)
        out ^= flip.view(np.uint64)
    else:
        np.left_shift(words, shift + np.uint64(1), out=out)
    return out


def digit_window_min_distance(
    gens, count, *, n_steps, p_zero, tent, zeta, circle, chunk=256
):
    """min_{0 <= j < n_steps} dist(f^j x, zeta) for stationary digit starts,
    for the ``count`` lanes of ``rng.block_slices(count)``; ``gens`` holds
    each block's generator.

    The minimum orbit distance is a sufficient statistic for every ball
    observable around zeta: the running maximum of phi is phi at the
    closest visit.  Each lane keeps its least and greatest window offset
    from zeta, and the closest visit is one of those two windows.  Each
    block draws its start windows, then one digit matrix per chunk, on its
    own generator.  The first chunk lifts every step of every word; later
    chunks lift only the words that ``_distance_table`` lets through the
    lane's threshold (``_thresholds``), which hold every step that can
    move an extreme offset (module docstring).
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    _check_chunk(chunk)
    _block_sizes(count, gens)
    # window words less the word of ceil(zeta 2^53) are offsets from zeta
    centre = np.uint64((math.ceil(zeta * 2.0 ** WINDOW_BITS) << _LOW) % 2**64)
    table = _distance_table(centre, tent)
    scratch = _Scratch()
    low = np.empty(count, dtype=np.uint64)
    high = np.empty(count, dtype=np.uint64)
    for (_, lo, size), gen in zip(block_slices(count), gens):
        least, most = low[lo:lo + size], high[lo:lo + size]
        window = draw_digits(gen, size, WINDOW_BITS, p_zero, scratch)[:, 0]
        # no digit lies left of the start window (b_0 = 0): no tent flip at
        # j = 0
        context = window >> np.uint64(_LOW)
        np.subtract(window, centre, out=least)
        most[...] = least
        for done in range(0, n_steps - 1, chunk):
            cols = min(chunk, n_steps - 1 - done)
            words, context = _window_words(
                context, draw_digits(gen, size, cols, p_zero, scratch), cols,
                scratch)
            if done:
                _filtered_extremes(words, cols, tent, centre, table, least,
                                   most, scratch)
            else:  # one window per lane bounds nothing yet
                _dense_extremes(words, cols, tent, centre, least, most,
                                scratch)
    nearest = ((np.stack([low, high]) + centre) >> np.uint64(_LOW)) * _SCALE
    return _distances(nearest, zeta, circle, nearest).min(axis=0)


def _dense_extremes(words, cols, tent, centre, low, high, scratch):
    """Lowers ``low`` and raises ``high`` in place to the least and greatest
    offset of any window of the chunk's ``words``, all 8 steps of each.

    Step s = 0 .. 7 fills one plane over one reused uint64 buffer: [:, b]
    is the window after step 8b + s + 1 (``_lift``).  A step past ``cols``
    repeats step 1."""
    offsets = scratch("plane", words.shape, np.uint64)
    flip = scratch("flip", words.shape, np.int64)
    for s in range(8):
        _lift(words, _TOP_SHIFTS[s], tent, offsets, flip)
        if s == 0:
            step_one = offsets[:, 0].copy()
        elif 8 * (words.shape[1] - 1) + s >= cols:
            offsets[:, -1] = step_one
        offsets -= centre
        np.minimum(low, offsets.min(axis=1), out=low)
        np.maximum(high, offsets.max(axis=1), out=high)


def _filtered_extremes(words, cols, tent, centre, table, low, high, scratch):
    """``_dense_extremes`` by the exact lift of the candidate words alone:
    those whose ``table`` entry is at most the lane's threshold."""
    found = _candidates(words, table, _thresholds(low, high)[:, None], tent,
                        scratch)
    if found is None:
        return
    lane, b, offsets = found
    offsets -= centre
    # the last word's steps past cols repeat its step 1
    if cols % 8:
        last = b == words.shape[1] - 1
        offsets[cols % 8:, last] = offsets[0, last]
    np.minimum.at(low, lane, offsets.min(axis=0))
    np.maximum.at(high, lane, offsets.max(axis=0))


def _candidates(words, table, bound, tent, scratch):
    """The candidate words of a chunk and the windows after their steps.

    A byte-offset word (``_window_words``) is a candidate where the
    ``table`` entry for its bits 60 .. 41 is at most ``bound``: one number,
    or a column of one per lane.  Returns the candidates' lanes and byte
    offsets b, in lane order and, within a lane, in byte order, and the
    (8, candidates) windows after their steps 8b + 1 .. 8b + 8 (``_lift``)
    in ``scratch``; None where no word is a candidate.
    """
    field = np.right_shift(words.view(np.int64), _FIELD_SHIFT,
                           out=scratch("flip", words.shape, np.int64))
    field &= table.size - 1
    entry = np.take(table, field, mode="wrap",
                    out=scratch("entry", words.shape, table.dtype))
    at = np.flatnonzero(np.less_equal(
        entry, bound, out=scratch("candidate", words.shape, bool)))
    if not at.size:
        return None
    lane, b = np.divmod(at, words.shape[1])
    # the lifts take the buffers of the field and of _dense_extremes
    lifted = _lift(words.reshape(-1)[at], _TOP_SHIFTS[:, None], tent,
                   scratch("plane", (8, at.size), np.uint64),
                   scratch("flip", (8, at.size), np.int64))
    return lane, b, lifted


def _prefix_distances(centre):
    """min(d, 4096 - d), capped at 255, for d = (P - Q) mod 4096, over the
    12-bit window prefixes P; Q is the prefix of the centre word."""
    top = 1 << _PREFIX_BITS
    d = (np.arange(top) - (int(centre) >> (64 - _PREFIX_BITS))) % top
    return np.minimum(np.minimum(d, top - d), 255).astype(np.uint8)


def _distance_table(centre, tent):
    """The least ``_prefix_distances`` entry over a byte's 8 steps, for the
    2^20 values of a byte-offset word's bits 60 .. 41.

    Step s reads the bits as s of earlier steps, then its tent parity, its
    12-bit window prefix P, and 7 - s bits below: a (2^s, 2, 4096,
    2^(7 - s)) view.  A tent window whose parity is 1 is complemented, and
    so is its prefix.  Step s reads the 13 bits 19 - s .. 7 - s of the
    field, so the table over steps 0 .. s is the table over steps
    0 .. s - 1 read at the bits above the lowest, lowered by step s's entry
    for the lowest 13 bits.
    """
    near = _prefix_distances(centre)
    # one step's entry by its tent parity and prefix
    step = np.concatenate([near, near[::-1] if tent else near])
    table = step
    for _ in range(7):
        table = np.repeat(table, 2)
        by_step = table.reshape(-1, step.size)
        np.minimum(by_step, step, out=by_step)
    return table


def _thresholds(low, high):
    """Each lane's greatest ``_distance_table`` entry of a word that can
    hold a step below its least offset ``low`` or above its greatest
    offset ``high`` (module docstring):
    min(255, max((low >> 52) + 1, 4096 - (high >> 52)))."""
    top = np.uint64(64 - _PREFIX_BITS)
    below = (low >> top) + np.uint64(1)
    above = np.uint64(1 << _PREFIX_BITS) - (high >> top)
    return np.minimum(np.maximum(below, above), 255).astype(np.uint8)


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
            d = _distances(x, zeta, circle, x)
            np.minimum(best[lo:lo + rows], d.min(axis=1),
                       out=best[lo:lo + rows])
        left -= cols
    return best


# ------------------------------------------------------------ first hits

def _first_hit(sizes, cap, start_j, j, chunk, scan, state, inside_before=None,
               most=BLOCK):
    """First iterate in [start_j, cap) inside the target, for the lanes of
    consecutive blocks of ``sizes`` lanes each.

    ``state`` is a tuple of per-lane arrays, which the scan overwrites.
    Each chunk walks the live lanes in tiles of at most ``most`` of them
    (``_tiles``): two blocks for the word scans, one for the others.
    ``scan(tile, state, cols, first)`` takes a tile's (block, live lanes)
    pairs and its lanes' state, and returns ((lanes, columns), state): the
    lanes of the tile, as indices into it, that have a column c >= ``first``
    whose iterate j + c is inside, each one's first such column, and every
    lane's state after the chunk's ``cols`` iterates.  Only those lanes are
    marked, the ones not done before taking their time.  ``inside_before``
    marks the lanes inside at iterate j - 1.  A block drops its finished
    lanes between chunks once more than ``_COMPACT_AT`` of its live lanes
    have hit: the indices of its live lanes, taken once, gather each
    per-lane array into the block's new rows, and their done flags are
    cleared, since none of them is done.  A later block that drops nothing
    moves down by one slice copy, so a run holds no per-lane array beyond
    its first ones.  Returns (times, hit): times[i] = cap and hit[i] =
    False when the lane never enters by cap - 1.
    """
    if cap < 1 or start_j < 0 or start_j >= cap:
        raise DomainError("need 0 <= start_j < cap")
    count = sum(sizes)
    times = np.full(count, cap, dtype=np.int64)
    lane = np.arange(count)
    done = np.zeros(count, dtype=bool)
    if inside_before is not None:
        done |= inside_before
    times[done] = j - 1
    live = list(sizes)
    while j < cap and lane.size:
        cols = min(chunk, cap - j)
        for lo, tile in _tiles(live, most):
            hi = lo + sum(rows for _, rows in tile)
            (at, found), after = scan(tile, tuple(a[lo:hi] for a in state),
                                      cols, max(start_j - j, 0))
            for a, b in zip(state, after):
                a[lo:hi] = b
            at = at + lo
            fresh = ~done[at]
            times[lane[at[fresh]]] = j + found[fresh]
            done[at] = True
        j += cols
        arrays = (lane, *state)
        src = dst = 0
        for k, rows in enumerate(live):
            if not rows:
                continue
            finished = done[src:src + rows]
            # the share in floats, as done.mean() takes it
            if np.count_nonzero(finished) / rows > _COMPACT_AT:
                keep = np.flatnonzero(~finished)
                live[k] = n = keep.size
                for a in arrays:
                    a[dst:dst + n] = a[src:src + rows].take(keep, axis=0)
                done[dst:dst + n] = False
            elif dst != src:
                for a in (done, *arrays):
                    a[dst:dst + rows] = a[src:src + rows]
            src, dst = src + rows, dst + live[k]
        lane, *state = (a[:dst] for a in arrays)
        done = done[:dst]
    return times, times < cap


def _tiles(live, most):
    """(first row, [(block, live lanes), ...]) of each tile: a run of
    consecutive blocks, whole, that hold at most ``most`` live lanes (two
    blocks' for the word scans, one for the ball scan), or one block that
    holds more."""
    tile, lo, size = [], 0, 0
    for k, rows in enumerate(live):
        if not rows:
            continue
        if tile and size + rows > most:
            yield lo, tile
            tile, lo, size = [], lo + size, 0
        tile.append((k, rows))
        size += rows
    if tile:
        yield lo, tile


def _block_sizes(count, gens=None):
    """Lanes per block of a ``count``-lane run, checked against ``gens``,
    the run's block generators, where given."""
    sizes = [size for _, _, size in block_slices(count)]
    if gens is not None and len(gens) != len(sizes):
        raise DomainError(f"{count} lanes take {len(sizes)} block "
                          f"generators; got {len(gens)}")
    return sizes


def _check_starts(count, starts):
    """An orbit first-hit run of ``count`` lanes takes one start per lane."""
    if starts.size != count:
        raise DomainError(f"{count} lanes take {count} starts; "
                          f"got {starts.size}")


def _check_chunk(chunk):
    """A scan steps at least one column per chunk."""
    if chunk < 1:
        raise DomainError(f"a chunk takes at least one column; got {chunk}")


def _tile_digits(gens, tile, cols, p_zero, scratch, digits):
    """One chunk's packed digits for a tile: each block's draw on its own
    generator, written straight into its rows of ``digits``, a
    (lanes, words) array or view, in block order."""
    lo = 0
    for k, rows in tile:
        draw_digits(gens[k], rows, cols, p_zero, scratch,
                    out=digits[lo:lo + rows])
        lo += rows
    return digits


def _first_inside(inside, first):
    """The lanes with an inside column from ``first`` on in the (cols,
    lanes) boolean ``inside``, whose row c holds column c of every lane, and
    each one's first such column."""
    inside = inside[first:]
    lanes = np.flatnonzero(inside.any(axis=0))
    # no row is left from first on where first >= cols
    columns = inside[:, lanes].argmax(axis=0) if lanes.size else lanes
    return lanes, first + columns


# ----------------------------------------------------- word (cylinder) scans

def _word_scan_start(count, word_int, depth, start_j, preload, tent):
    """The scan state of ``count`` fresh lanes, (digits,), and the letters
    read so far.

    ``digits`` holds each lane's last 64 digits drawn, the latest in bit
    0; digits before the first (b_0 = 0 and earlier) are 0.  A preloaded
    lane has already read the word itself: its digits are the word's
    letters for the doubling map, and for the tent map, whose letters are
    the Gray code of its digits, the letters Gray-decoded.
    """
    if not 1 <= depth <= MAX_WORD_DEPTH:
        raise DomainError(
            f"cylinder scans support depths 1..{MAX_WORD_DEPTH}")
    if not 0 <= word_int < 1 << depth:
        raise DomainError("word_int must fit in depth letters")
    if preload and start_j == 0:
        raise DomainError("a preloaded start is already inside at j = 0")
    if not preload:
        return (np.zeros(count, dtype=np.uint64),), 0
    digits = word_int
    for shift in (1, 2, 4, 8, 16, 32) if tent else ():
        digits ^= digits >> shift
    return (np.full(count, digits, dtype=np.uint64),), depth


@functools.lru_cache(maxsize=256)
def _column_masks(depth, cols, first):
    """The (rows, 1) masks of the columns first .. cols - 1 on the letter
    rows of a ``depth``-letter ``_word_chunk``: column q P + i is bit
    P - 1 - i of row q, P = 64 - min(depth, 32).  Read-only: callers share
    it."""
    span = 64 - min(depth, 32)
    n_rows = -(-cols // span)
    bits = ((1 << max(cols - first, 0)) - 1) << (span * n_rows - cols)
    masks = np.array([bits >> span * q & (1 << span) - 1
                      for q in reversed(range(n_rows))], dtype=np.uint64)
    masks.flags.writeable = False
    return masks[:, None]


@functools.lru_cache(maxsize=256)
def _word_runs(word_int, depth):
    """The runs of equal letters of a ``depth``-letter word, those of ones
    first, and how many those are.  A run is split where it passes to the
    row above: the letters k .. k + L - 1 from the end are (g, k mod P, L),
    g = floor(k / P) rows above the match rows, P = 64 - min(depth, 32).
    A run shorter than 4 letters, which doubling would take in as many
    passes, is split into single letters."""
    span = 64 - min(depth, 32)
    runs = ([], [])
    for (letter, row), ks in itertools.groupby(
            range(depth), lambda k: (word_int >> k & 1, k // span)):
        ks = list(ks)
        parts = [ks] if len(ks) >= 4 else [[k] for k in ks]
        runs[letter].extend((row, part[0] % span, len(part))
                            for part in parts)
    return tuple(runs[1] + runs[0]), len(runs[1])


def _word_letters(gens, tile, width, p_zero, state, scratch):
    """A tile's (words + 2, lanes) letter buffer: the carried digits, each
    block's ``width`` digits drawn into its lanes' columns, and a zero row."""
    ext = scratch("ext", ((width + 63) // 64 + 2, state[0].size), np.uint64)
    ext[0], ext[-1] = state[0], 0
    _tile_digits(gens, tile, width, p_zero, scratch, ext[1:-1].T)
    return ext


def _word_chunk(ext, cols, first, word_int, depth, tent, scratch):
    """Match rows of one chunk, and the scan state after it.

    Bit P - 1 - i of match row q (a (rows, lanes) array in ``scratch``) is
    set when the ``depth`` letters ending at the chunk's letter c = q P + i
    spell the word, for c in first .. cols - 1, read off the letter rows
    (module docstring) of the ``_word_letters`` buffer ``ext``.  A tent
    row's top letter lacks the digit before it; no word reads it.  The
    word's runs of equal letters (``_word_runs``) are ANDed in by doubling
    (module docstring).
    """
    span = 64 - min(depth, 32)
    masks = _column_masks(depth, cols, first)
    top = int(depth > 32)
    rows = scratch("rows", (top + len(masks), ext.shape[1]), np.uint64)
    term = scratch("term", rows.shape, np.uint64)
    for r in range(rows.shape[0]):
        # row q = r - top starts at bit 64 + q P - R = (q + 1) P of ext,
        # whose last row is 0 (a shift by 64 gives 0)
        w, s = divmod(span * (r + 1 - top), 64)
        np.left_shift(ext[w], np.uint64(s), out=rows[r])
        rows[r] |= np.right_shift(ext[w + 1], np.uint64(64 - s), out=term[r])
    if tent:
        rows ^= np.right_shift(rows, np.uint64(1), out=term)
    match = scratch("match", (len(masks), rows.shape[1]), np.uint64)
    shifted = term[top:]
    runs, n_ones = _word_runs(word_int, depth)
    # the first run is built in the match rows themselves, the others in
    # a buffer of their own
    spare = scratch("run", match.shape, np.uint64) if len(runs) > 1 else None
    for i, (row, shift, length) in enumerate(runs):
        if i == n_ones:
            np.invert(rows, out=rows)
        run = rows[top - row:top - row + len(masks)]
        out = spare if i else match
        if length > 1:
            run = np.bitwise_and(
                run, np.right_shift(run, np.uint64(1), out=shifted), out=out)
            have = 2
            while have < length:
                step = min(have, length - have)
                run &= np.right_shift(run, np.uint64(step), out=shifted)
                have += step
        if shift:
            run = np.right_shift(run, np.uint64(shift), out=out)
        if i:
            match &= run
        else:
            np.bitwise_and(run, masks, out=match)
    # the 64 digits ending at digit cols - 1
    w, s = divmod(cols, 64)
    carry = ext[w] << np.uint64(s)
    if s:
        carry |= np.right_shift(ext[w + 1], np.uint64(64 - s), out=term[0])
    return match, (carry,)


def _first_set_column(match, span):
    """The lanes with a set bit in their ``_word_chunk`` match rows of
    ``span`` columns, and each one's first set column: with h the highest
    set bit of the lane's first nonzero row q, column q span + span - 1 - h.
    h is the float64 exponent of the row, less one where rounding to 53
    bits carried it up to the next power of two."""
    nonzero = match != 0
    lanes = np.flatnonzero(nonzero.any(axis=0))
    q = nonzero.take(lanes, axis=1).argmax(axis=0)
    v = match[q, lanes]
    high = np.frexp(v)[1] - 1
    high -= (v >> high.astype(np.uint64)) == 0
    return lanes, span * (q + 1) - 1 - high


def word_first_hit(
    gens,
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
    """First j in [start_j, cap) whose iterate lies in the target cylinder,
    for the ``count`` lanes of ``rng.block_slices(count)``; ``gens`` holds
    each block's generator.

    The cylinder is the depth-``depth`` cell whose letters spell
    ``word_int`` (most significant bit = first letter).  With ``preload``
    the lane starts inside the cylinder (its first ``depth`` letters are
    the word) and only the free tail is drawn: that is exactly the
    conditional start used by return-time runs, because under the product
    measures the letters beyond a fixed prefix stay independent.
    """
    _check_chunk(chunk)
    sizes = _block_sizes(count, gens)
    state, consumed = _word_scan_start(count, word_int, depth, start_j,
                                       preload, tent)
    scratch = _Scratch()

    def scan(tile, state, cols, first):
        ext = _word_letters(gens, tile, chunk, p_zero, state, scratch)
        match, state = _word_chunk(ext, cols, first, word_int, depth, tent,
                                   scratch)
        return _first_set_column(match, 64 - min(depth, 32)), state

    # column c ends the window that starts at j = consumed + c + 1 - depth
    return _first_hit(sizes, cap, start_j, consumed + 1 - depth, chunk, scan,
                      state, most=_WORD_TILE)


def word_hit_count(
    gens,
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
    """Number of j in [start_j, window] with the iterate in the cylinder,
    for the ``count`` lanes of ``rng.block_slices(count)``; ``gens`` holds
    each block's generator.

    Inclusive right end: short-range recurrence estimators count entries
    in a window of fixed length.  No compaction: every lane runs the full
    window.  The blocks run in tiles of two, as in ``word_first_hit``, one
    tile after another, each block on its own draws.
    """
    if window < start_j:
        raise DomainError("window shorter than start_j")
    _check_chunk(chunk)
    counts = np.zeros(count, dtype=np.int64)
    total_letters = window + depth
    scratch = _Scratch()
    for lo, tile in _tiles(_block_sizes(count, gens), _WORD_TILE):
        hi = lo + sum(rows for _, rows in tile)
        state, consumed = _word_scan_start(hi - lo, word_int, depth, start_j,
                                           preload, tent)
        while consumed < total_letters:
            cols = min(chunk, total_letters - consumed)
            ext = _word_letters(gens, tile, cols, p_zero, state, scratch)
            match, state = _word_chunk(
                ext, cols, max(start_j + depth - 1 - consumed, 0), word_int,
                depth, tent, scratch)
            counts[lo:hi] += np.bitwise_count(match).sum(axis=0,
                                                         dtype=np.int64)
            consumed += cols
    return counts


# ------------------------------------------------------------- ball scans

def ball_first_hit_digits(
    gens,
    count,
    *,
    arcs,
    zeta,
    tent,
    p_zero,
    cap,
    start_j=1,
    cdfs=None,
    chunk=256,
):
    """First j in [start_j, cap) whose window w has w 2^75 in one of the
    ball's fixed-point pieces ``arcs`` (``hts.TargetSet.arcs``), for
    the ``count`` lanes of ``rng.block_slices(count)``; ``gens`` holds each
    block's generator.  The centre ``zeta`` only centres the prefix filter.

    Each block first draws its lanes' start windows on its generator:
    stationary ones, or given the CDFs ``cdfs`` at the arcs' ends,
    conditional (return-time) ones by inverse CDF
    (``conditional_digit_starts``).  These fix the 53 leading digits of the
    start point; the tail beyond 53 digits is drawn iid, which misstates
    the conditional law only on boundary cells of mass O(2^-53).
    """
    _check_chunk(chunk)
    sizes = _block_sizes(count, gens)
    scratch = _Scratch()
    window = np.empty(count, dtype=np.uint64)
    for (_, lo, size), gen in zip(block_slices(count), gens):
        starts = (draw_digits(gen, size, WINDOW_BITS, p_zero, scratch)
                  if cdfs is None else
                  conditional_digit_starts(gen, size, cdfs=cdfs, p_zero=p_zero))
        window[lo:lo + size] = starts[:, 0]
    pieces = _arc_windows(arcs, WINDOW_BITS)
    centre = np.uint64((math.ceil(zeta * 2.0 ** WINDOW_BITS) << _LOW) % 2**64)
    table = _distance_table(centre, tent)
    bound = _ball_bound(pieces, centre)
    inside_before = (_in_ball(window, pieces, np.empty(count, dtype=bool),
                              np.empty_like(window)) if start_j == 0 else None)

    def scan(tile, state, cols, first):
        context, = state
        digits = _tile_digits(gens, tile, chunk, p_zero, scratch, scratch(
            "tile", (context.size, (chunk + 63) // 64), np.uint64))
        words, context = _window_words(context, digits, cols, scratch)
        return (_ball_column(words, table, bound, pieces, tent, first, cols,
                             scratch), (context,))

    # column c is the position after step c + 1 of the chunk
    return _first_hit(sizes, cap, start_j, 1, chunk, scan,
                      (window >> np.uint64(_LOW),), inside_before)


def _arc_windows(arcs, bits):
    """The points w of the 2^``bits`` grid with w 2^(128 - bits) in one of
    the fixed-point pieces [lo, hi) of ``arcs``, as intervals (start, width):
    those from ceil(lo 2^(bits - 128)) up to ceil(hi 2^(bits - 128))."""
    shift = FIXED_DEPTH - bits
    ends = [(-(-lo >> shift), -(-hi >> shift)) for lo, hi in arcs]
    return [(lo, hi - lo) for lo, hi in ends if hi > lo]


def _ball_bound(pieces, centre):
    """The greatest ``_prefix_distances`` entry over the prefix cells of
    the cyclic intervals ``pieces``, which wrap past the last cell to the
    first: every window inside has a ``_distance_table`` entry at most
    this (module docstring).  -1, which no entry meets, without pieces."""
    near = _prefix_distances(centre)
    return max((int(near.take(np.arange(
        start >> _FIELD_SHIFT, ((start + width - 1) >> _FIELD_SHIFT) + 1),
        mode="wrap").max()) for start, width in pieces), default=-1)


def _ball_column(words, table, bound, pieces, tent, first, cols, scratch):
    """The lanes with a column in ``first`` .. ``cols`` - 1 whose window
    lies in ``pieces``, and each one's first such column.

    ``words`` are the chunk's byte-offset words (``_window_words``); only
    the candidates, whose ``table`` entry is at most ``bound``
    (``_ball_bound``), take the exact test, at all 8 steps at once.  The
    candidates come in lane order and, within a lane, in byte order, so a
    lane's first candidate with a step inside holds its first column.
    """
    found = _candidates(words, table, bound, tent, scratch)
    if found is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lane, b, lifted = found
    steps = 8 * b + np.arange(8)[:, None]  # [s, i] is column 8 b + s
    inside = _in_ball(lifted, pieces, scratch("inside", steps.shape, bool),
                      scratch("offsets", steps.shape, np.uint64))
    inside &= (steps >= first) & (steps < cols)
    hit = inside.any(axis=0)
    lane, steps = lane[hit], 8 * b[hit] + inside[:, hit].argmax(axis=0)
    lead = np.ones(lane.size, dtype=bool)
    lead[1:] = lane[1:] != lane[:-1]
    return lane[lead], steps[lead]


def _in_ball(words, pieces, out, offsets):
    """Marks in ``out`` the window words w in one of the intervals
    ``pieces``: (w - start) mod 2^53 < width."""
    out[...] = False
    for start, width in pieces:
        np.subtract(words, np.uint64(start << _LOW), out=offsets)
        out |= offsets <= np.uint64((width << _LOW) - 1)
    return out


# --------------------------------------------------------------- rotation

def rotation_first_hit(
    count, *, step_fixed, lo, hi, cap, start_j=1, starts, chunk=64
):
    """First j in [start_j, cap) with the rotated position in [lo, hi),
    for the ``count`` lanes that start at ``starts``.

    Positions are 63-bit integers; the step is the quantized angle, so
    the sweep is exact and matches the scalar map for every lane.  The
    scan runs on the doubled grid of 2^64 points, where uint64 addition
    wraps as the map does, each position less 2 lo: a chunk adds
    offsets[k] = 2 k step mod 2^64 to its first positions, and [lo, hi) is
    the cyclic arc below 2 (hi - lo), which holds the whole circle too.
    """
    if not 0 <= lo < hi <= FIXED_ONE:
        raise DomainError("arc must satisfy 0 <= lo < hi <= 2^63")
    _check_starts(count, starts)
    _check_chunk(chunk)
    last = np.uint64(2 * (hi - lo) - 1)
    offsets = np.array([2 * k * step_fixed % 2**64 for k in range(chunk + 1)],
                       dtype=np.uint64)
    scratch = _Scratch()

    def scan(tile, state, cols, first):
        s, = state
        pos = np.add(offsets[:cols, None], s,
                     out=scratch("pos", (cols, s.size), np.uint64))
        inside = np.less_equal(pos, last,
                               out=scratch("inside", pos.shape, bool))
        return _first_inside(inside, first), (s + offsets[cols],)

    s = (starts << np.uint64(1)) + np.uint64(
        (2 * start_j * step_fixed - 2 * lo) % 2**64)
    return _first_hit(_block_sizes(count), cap, start_j, start_j, chunk, scan,
                      (s,))


def rotation_min_distance(*, step_fixed, zeta_fixed, n_steps, starts):
    """Circle distance minimum dist(f^j x, zeta) over j < n_steps, for the
    lanes that start at ``starts``.  Offsets d on the doubled 2^64 grid are
    at circle distance min(d, -d); doubling commutes with rounding to
    float, so the distances are the 2^63 grid's."""
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    s = starts << np.uint64(1)
    step = np.uint64(2 * step_fixed % 2**64)
    z = np.uint64(2 * zeta_fixed % 2**64)
    best = np.full_like(s, 2**64 - 1)
    diff = np.empty_like(s)
    for _ in range(n_steps):
        np.subtract(s, z, out=diff)
        np.minimum(diff, -diff, out=diff)
        np.minimum(best, diff, out=best)
        s += step
    return best * 2.0 ** -64


# ----------------------------------------------------------- intermittent

def _mp_step(x, e, tmp):
    """x + x^e mod 1 of every lane, in place, through ``tmp``.  For x in
    [0, 1) the sum is at most 2 - 2^-52, so subtracting its floor, 0 or 1,
    is exact: bit for bit ``x = x + x**e; x -= x >= 1.0``."""
    np.power(x, e, out=tmp)
    x += tmp
    x -= np.floor(x, out=tmp)


def mp_min_distance(*, s_exp, zeta, n_steps, starts):
    """Minimum interval distance to zeta along the intermittent-map orbits
    from ``starts`` (stationary draws from the empirical invariant
    measure), stepped by ``_mp_step``: a lane's minimum depends on its
    start alone, not on its position.
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    x, tmp, e = starts.copy(), np.empty_like(starts), 1.0 + s_exp
    best = _distances(x, zeta, False, np.empty_like(x))
    for _ in range(n_steps - 1):
        _mp_step(x, e, tmp)
        np.minimum(best, _distances(x, zeta, False, tmp), out=best)
    return best


def mp_first_hit(count, *, s_exp, lo, hi, cap, start_j, starts, chunk=64):
    """First j in [start_j, cap) with lo <= f^j x < hi (intermittent), for
    the ``count`` lanes that start at ``starts``, floats in [0, 1).

    Nonnegative floats order as their uint64 bits, so a lane is inside
    when its bits less lo's, mod 2^64, fall below hi's less lo's: one
    subtraction and one comparison.  Each step writes one row of the
    chunk's (cols, lanes) inside plane and steps the lanes in place: a
    step allocates nothing.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise DomainError("ends must satisfy 0 <= lo <= hi <= 1")
    _check_starts(count, starts)
    _check_chunk(chunk)
    e = 1.0 + s_exp
    low, high = np.array([lo, hi]).view(np.uint64)
    width = high - low
    scratch = _Scratch()

    def scan(tile, state, cols, first):
        x, = state
        inside = scratch("inside", (cols, x.size), bool)
        tmp = scratch("tmp", x.shape, np.float64)
        bits, offset = x.view(np.uint64), tmp.view(np.uint64)
        for row in inside:
            np.less(np.subtract(bits, low, out=offset), width, out=row)
            _mp_step(x, e, tmp)
        return _first_inside(inside, first), (x,)

    # every lane in one tile: each iterate takes a Python step per tile
    return _first_hit([count], cap, start_j, 0, chunk, scan, (starts.copy(),))


# ------------------------------------------------- conditional ball starts

def conditional_digit_starts(gen, count, *, cdfs, p_zero):
    """Packed (count, 1) leading 53 digits of points drawn from the measure
    restricted to a union of intervals.

    ``cdfs`` is a pair (cdf_lo, cdf_hi) of equal-length sequences giving
    the CDF values of each interval's endpoints (``MeasureModel.ball_cdfs``).
    Sampling picks an interval proportionally to its mass, draws a uniform CDF level inside
    it, and inverts one digit at a time: within any dyadic cell the digit
    measure splits mass p_zero : 1 - p_zero, so the split point of the
    current CDF bracket is linear for every digit-product measure
    (Lebesgue is the p = 1/2 case).
    """
    cdf_lo, cdf_hi = np.asarray(cdfs, dtype=np.float64)
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
