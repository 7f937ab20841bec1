"""Deterministic random streams shared by every sampler in the package.

The generator stack is pinned down to the bit so that an independent
implementation in any language can reproduce every experiment stream:

* ``splitmix64(x)`` is the usual finalizer: add the golden-ratio constant,
  then two xor-multiply mixing rounds and a final xor-shift.  Per-trial
  seeds are derived as ``splitmix64(base_seed XOR trial_index)``.
* The working generator is xoshiro256**, seeded with four successive
  splitmix64 outputs obtained by stepping the splitmix64 state from the
  64-bit seed.
* Uniform doubles take the top 53 bits of a 64-bit word:
  ``(word >> 11) * 2**-53``.
* Bounded integers use rejection sampling: draw 64-bit words until one
  falls below the largest multiple of the bound, then reduce modulo the
  bound.  No bias, no platform dependence.
* Shuffles are Fisher-Yates from the last index downwards, with
  ``j = next_below(i + 1)``.

``splitmix64``, ``split_seeds``, ``next_u64``, ``next_double`` and
``next_below`` are the one-step reference.  A lockstep group is one
``Xoshiro256StarStar`` whose four state words are packed ints, lane i's
word in bits [72 i, 72 i + 64); a generator built from one seed is the
one-lane group, whose packed words are its plain words.
``Xoshiro256StarStar.lanes(seeds)`` seeds a group in bulk:

* ``split_lanes(seeds, count)`` is ``split_seeds`` for every seed at
  once, with lane i in bits [128 i, 128 i + 64) of each of its
  ``count`` packed outputs (seeds reduced mod 2**64 first, as
  ``split_seeds`` reduces them).  splitmix64 is adds, xors, shifts and
  multiplies by 64-bit constants, so it runs on all lanes at once and
  no carry crosses a lane: every lane is masked to its low 64 bits
  after each step, so a sum stays below 2**65 and a product below
  2**128, and each right shift is masked too (``x >> 30 & lane``),
  since it brings the next lane's low bits down into the top of this
  one, where the product by the mixing constant would carry them into
  the lane above.  ``double_exposures`` takes its round seeds from
  ``count = 2`` (``lane_values`` reads them back as ints).
* ``lanes`` takes ``count = 4``, the xoshiro256** state words, and
  moves each word's 128-bit lanes into 72-bit ones with eight byte
  column slice assignments; no per-lane int is made.

``lockstep(gen)`` is the one bulk stepper: an endless stream with one
packed int per step, lane i's ``next_u64`` word in bits [72 i,
72 i + 64).  It runs the reference update on the packed state words and
writes them back when the stream is closed, so each lane continues
exactly as after the same number of ``next_u64`` calls; the group may
not be stepped otherwise while the stream is open.  No bit crosses into
another lane: each left shift is masked first (``(s1 & low47) << 17``,
``(s3 & low19) << 45``) and each right shift after (``s3 >> 19 &
low45``; the top 7 bits of the rotated product come down by ``>> 64 &
low7``), so every state word stays below 2**64; ``s1 * 5`` is below
2**67, the rotated word times 9 below 2**68, and the largest
intermediate, ``(s1 * 5 & lane) << 7``, below 2**71.  A stream closed
before its first step leaves the state as it was.  Only ``lockstep``
steps a group of more than one lane.  The stream feeds three loops:

* ``placements(items, words)`` is the one shuffle loop: a top-down
  Fisher-Yates over raw 64-bit words that yields each position as it
  becomes final (i after step i, then 0).  A word at or above the
  step's rejection threshold is skipped, so each step draws what
  ``next_below`` would: the threshold ``(2**64 // b) * b`` is
  ``2**64 - (2**64 % b)``, above ``2**64 - n`` for every bound
  ``b <= n``, so a shuffle of n items accepts any word below
  ``2**64 - n`` at once and computes the exact threshold only for the
  rare word above it.  The loop reads no word past its last step.
  ``shuffle`` runs it on a one-lane stream to the end.
* ``lockstep_words(gen, count)`` returns each lane's next ``count``
  words as an ``array('Q')``, 8 bytes per lane and step:
  each step's packed int becomes 9 bytes per lane, and byte j of lane
  i's words is every ``9 * lanes``-th byte from byte 9 i + j.
  ``process.hitting_times`` shuffles each trial of a group from them,
  dropping each lane from the group (``drop_first_lane``) once its
  trial is done.
* ``bernoulli_masks(gen, count, p)`` draws a Bernoulli mask for each
  lane of a group: byte k of lane i's mask is 1 iff the k-th of its
  next ``count`` ``next_double()`` values is below p.

  - ``(x >> 11) * 2**-53 < p`` holds iff ``x < ceil(p * 2**53) << 11``:
    both products by powers of two are exact and ``x >> 11`` is an
    integer, so each raw word is compared with one threshold T.
  - The keep test is byte 8 of each 9-byte lane of
    ``2**64 + T - 1 - word``: that difference lies in [0, 2**65) for
    every threshold from T = 0 (p = 0) to T = 2**64 (p = 1), so it
    borrows nothing from the next lane and its byte 8 is 1 iff
    ``word < T``, else 0.  A block of steps is turned into bytes at
    once, and each lane's byte 8 of every step is slice-assigned into
    its mask.
  - The cost per lane and step falls as the group widens, so each
    lane's draws are split into chunk lanes.  The xoshiro256 state step
    A is linear over F2 (only the ``**`` scrambler is not), so the
    state k steps on is p(A) s with p = x**k mod P, P the step's
    characteristic polynomial, of degree 256 (``_CHAR_POLY``;
    Haramoto, Matsumoto, Nishimura, Panneton and L'Ecuyer, "Efficient
    jump ahead for F2-linear random number generators", INFORMS J.
    Computing 2008; Blackman and Vigna, "Scrambled linear pseudorandom
    number generators", ACM TOMS 2021).  ``_jump`` applies p to every
    lane of a packed group at once by Horner's rule over its 256
    coefficients: one ``lockstep`` run per coefficient 1, each closed
    before the starting state is xored in.
  - A draw uses J = max(1, min(80 // lanes, count // 2048)) chunks of
    L = count // J steps per lane.  Chunk c of lane i is lane
    c * lanes + i of one wider group, started c * L words on.
    ``_widen`` makes the starts by doubling: it jumps the chunks made so
    far by their total length, then squares the polynomial, so J chunks
    take log2 J jumps.  Chunk c writes bytes [c L, (c + 1) L) of its
    mask in place.  The last chunk's lanes, then J L words on, draw the
    count - J L remaining words alone, so every mask is byte for byte
    the unchunked one and the group ends exactly ``count`` words on.
    A block of steps holds 512 // J steps, the bytes of 512 unchunked
    ones.  Masks of at most 4095 draws are never chunked.
  - The trial runner caps a group at ``experiments.GROUP_LANES``
    lanes, and the coupling suite draws 500 rounds a group.  On a
    2-vCPU x86 VM (Python 3.11, one pinned CPU, Q14's 114 688 draws
    per lane, best of 3), a draw costs about 136 ns per lane and step
    at 1 lane, 75 at 4, 56 at 10, 50 at 20, 54 at 32, 49 at 40 and 47
    at 80; unchunked it was 771, 217, 105, 71, 69, 52 and 47.
"""

import math
import sys
from array import array
from collections import deque
from itertools import islice

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 output for state ``x`` (state advance included)."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed for one trial: ``splitmix64(base_seed XOR trial_index)``."""
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    return splitmix64((base_seed ^ trial_index) & MASK64)


def split_seeds(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of the splitmix64 sequence started at ``seed``.

    A generator seeds its four state words from it; ``split_lanes``
    gives the same outputs for many seeds at once (the two exposure
    rounds of a double exposure among them).
    """
    return [splitmix64((seed + k * _GOLDEN) & MASK64) for k in range(count)]


# a splitmix64 lane is a 64-bit word and room above it for its product
# with a 64-bit mixing constant
_SPLIT_LANE_BYTES = 16


def split_lanes(seeds, count: int) -> list[int]:
    """``split_seeds(seed, count)`` for every seed at once: packed int k
    holds output k of ``seeds[i]`` in bits [128 i, 128 i + 64).  See the
    module docstring for why no carry crosses a lane."""
    lanes = len(seeds)
    words = array("Q", bytes(_SPLIT_LANE_BYTES * lanes))
    words[::2] = array("Q", [seed & MASK64 for seed in seeds])
    if sys.byteorder == "big":
        words.byteswap()
    ones = int.from_bytes((1).to_bytes(_SPLIT_LANE_BYTES, "little") * lanes, "little")
    lane = MASK64 * ones
    golden = _GOLDEN * ones
    x = int.from_bytes(words, "little")
    out = []
    for _ in range(count):
        x = (x + golden) & lane
        z = (x ^ (x >> 30 & lane)) * _MIX1 & lane
        z = (z ^ (z >> 27 & lane)) * _MIX2 & lane
        out.append(z ^ (z >> 31 & lane))
    return out


def lane_values(packed: int, lanes: int) -> list[int]:
    """The ``lanes`` words of a ``split_lanes`` output, lane 0 first."""
    words = array("Q", packed.to_bytes(_SPLIT_LANE_BYTES * lanes, "little"))[::2]
    if sys.byteorder == "big":  # the bytes are little-endian
        words.byteswap()
    return words.tolist()


class Xoshiro256StarStar:
    """xoshiro256** with the reference update rule, seeded via splitmix64.

    ``Xoshiro256StarStar(seed)`` is one generator; ``lanes(seeds)`` is a
    lockstep group, stepped only by ``lockstep`` (see the module
    docstring for the packed state)."""

    __slots__ = ("s0", "s1", "s2", "s3", "lane_count")

    def __init__(self, seed: int):
        self.s0, self.s1, self.s2, self.s3 = split_seeds(seed, 4)
        self.lane_count = 1

    @classmethod
    def lanes(cls, seeds) -> "Xoshiro256StarStar":
        """One lockstep group with lane i seeded as
        ``Xoshiro256StarStar(seeds[i])``."""
        lanes = len(seeds)
        state = []
        for word in split_lanes(seeds, 4):
            blob = word.to_bytes(_SPLIT_LANE_BYTES * lanes, "little")
            packed = bytearray(_LANE_BYTES * lanes)
            for j in range(8):
                packed[j::_LANE_BYTES] = blob[j::_SPLIT_LANE_BYTES]
            state.append(int.from_bytes(packed, "little"))
        gen = cls.__new__(cls)
        gen.s0, gen.s1, gen.s2, gen.s3 = state
        gen.lane_count = lanes
        return gen

    def drop_first_lane(self) -> None:
        """Leave lane 0 out of the group: lane i + 1 becomes lane i."""
        width = 8 * _LANE_BYTES
        self.s0 >>= width
        self.s1 >>= width
        self.s2 >>= width
        self.s3 >>= width
        self.lane_count -= 1

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2
        self.s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        return result

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, last index downwards."""
        words = lockstep(self)
        deque(placements(items, words), maxlen=0)
        words.close()


def placements(items: list, words):
    """Shuffle ``items`` in place step by step from the raw 64-bit
    ``words``, yielding each position as it becomes final: i after step
    i swaps ``items[i]`` into place, then 0.  ``items[i:]`` is then
    final and ``items[:i]`` holds the other items in some order.  A word
    at or above the step's rejection threshold is skipped, as
    ``next_below`` skips it, and no word is read past the last step."""
    n = len(items)
    safe = (1 << 64) - n
    draw = iter(words).__next__
    for i in range(n - 1, 0, -1):
        bound = i + 1
        x = draw()
        while x >= safe and x >= ((1 << 64) // bound) * bound:
            x = draw()
        j = x % bound
        items[i], items[j] = items[j], items[i]
        yield i
    if n:
        yield 0


# a lane is a 64-bit word and 8 bits of room above it, for the
# intermediates of ``lockstep`` and the keep bit of ``bernoulli_masks``
_LANE_BYTES = 9
_ONE_PER_LANE = (1).to_bytes(_LANE_BYTES, "little")


def lockstep(gen):
    """Endless stream of one packed int per step of the group ``gen``:
    lane i's ``next_u64`` word sits in bits [72 i, 72 i + 64).  The
    state is written back when the stream is closed; see the module
    docstring for the lane layout."""
    ones = int.from_bytes(_ONE_PER_LANE * gen.lane_count, "little")
    lane = MASK64 * ones
    low7 = ((1 << 7) - 1) * ones
    low19 = ((1 << 19) - 1) * ones
    low45 = ((1 << 45) - 1) * ones
    low47 = ((1 << 47) - 1) * ones
    s0, s1, s2, s3 = gen.s0, gen.s1, gen.s2, gen.s3
    try:
        while True:
            y = ((s1 * 5) & lane) << 7
            x = ((y & lane) | (y >> 64 & low7)) * 9 & lane
            t = (s1 & low47) << 17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 & low19) << 45 | (s3 >> 19 & low45)
            yield x
    finally:
        gen.s0, gen.s1, gen.s2, gen.s3 = s0, s1, s2, s3


def lockstep_words(gen, count: int) -> list[array]:
    """The next ``count`` ``next_u64`` outputs of each lane of ``gen``,
    one ``array('Q')`` per lane; the group ends ``count`` words further
    on."""
    lanes = gen.lane_count
    stream = lockstep(gen)
    steps = list(islice(stream, count))
    stream.close()
    width = _LANE_BYTES * lanes
    blob = b"".join([w.to_bytes(width, "little") for w in steps])
    words = []
    for i in range(lanes):
        raw = bytearray(8 * count)
        for j in range(8):
            raw[j::8] = blob[_LANE_BYTES * i + j::width]
        words.append(array("Q", raw))
    if sys.byteorder == "big":  # the blob is little-endian
        for lane_words in words:
            lane_words.byteswap()
    return words


# ``bernoulli_masks`` draws in chunk lanes: about this many lanes in all,
# none shorter than ``_MIN_CHUNK`` steps.
_MASK_WIDTH = 80
_MIN_CHUNK = 2048

# Steps ``bernoulli_masks`` turns into bytes at once, for a group of
# unsplit lanes: a block holds 9 bytes per lane and step, and a group of
# J chunks per lane draws 1 / J as many steps per block.
_MASK_BLOCK = 512

# The characteristic polynomial P of the xoshiro256 state step, bit k
# the coefficient of x**k (Berlekamp-Massey on one state bit gives it).
_CHAR_POLY = 0x10003c03c3f3ecb1904b4edcf26259f850280002bcefd1a5e9d116f2bb0f0f001


def _mod_p(poly: int) -> int:
    while poly.bit_length() > 256:
        poly ^= _CHAR_POLY << poly.bit_length() - 257
    return poly


def _squared(poly: int) -> int:
    """``poly**2 mod P``: over F2 a square spreads the bits apart."""
    return _mod_p(int("0".join(bin(poly)[2:]), 2))


def _x_power(k: int) -> int:
    """``x**k mod P``, the polynomial of a jump by k steps."""
    poly = 1
    for bit in bin(k)[2:]:
        poly = _squared(poly) << int(bit)
    return _mod_p(poly)


def _advance(gen, steps: int) -> None:
    stream = lockstep(gen)
    deque(islice(stream, steps), maxlen=0)
    stream.close()


def _jump(gen, poly: int) -> None:
    """Move each lane of ``gen`` from state s to poly(A) s, A the state
    step: with ``poly = _x_power(k)`` that is k words on.  Horner's rule,
    one run of steps per coefficient 1 below the leading one."""
    start = gen.s0, gen.s1, gen.s2, gen.s3
    *runs, tail = bin(poly)[3:].split("1")
    for zeros in runs:
        _advance(gen, len(zeros) + 1)
        gen.s0, gen.s1, gen.s2, gen.s3 = (
            word ^ s for word, s in zip((gen.s0, gen.s1, gen.s2, gen.s3), start))
    _advance(gen, len(tail))


def _widen(gen, chunks: int, length: int) -> None:
    """Give ``gen`` ``chunks`` lanes per lane: lane c * lanes + i starts
    c * length words after lane i.  Each round jumps the chunks made so
    far by their total length, then squares the jump polynomial."""
    lanes = gen.lane_count
    bits = 8 * _LANE_BYTES * lanes
    poly = _x_power(length)
    made = 1
    while made < chunks:
        todo = min(made, chunks - made)
        low = (1 << bits * todo) - 1
        part = Xoshiro256StarStar.__new__(Xoshiro256StarStar)
        part.s0, part.s1, part.s2, part.s3 = (
            word & low for word in (gen.s0, gen.s1, gen.s2, gen.s3))
        part.lane_count = todo * lanes
        _jump(part, poly)
        gen.s0, gen.s1, gen.s2, gen.s3 = (
            word | moved << bits * made for word, moved in
            zip((gen.s0, gen.s1, gen.s2, gen.s3), (part.s0, part.s1, part.s2, part.s3)))
        gen.lane_count += part.lane_count
        made += todo
        poly = _squared(poly)


def bernoulli_masks(gen, count: int, p: float) -> list[bytearray]:
    """Byte k of mask i is 1 iff the k-th of the next ``count`` doubles
    of lane i of ``gen`` is < p; the group ends ``count`` words further
    on.  See the module docstring for the keep test and the chunk
    lanes."""
    lanes = gen.lane_count
    masks = [bytearray(count) for _ in range(lanes)]
    chunks = max(1, min(_MASK_WIDTH // max(lanes, 1), count // _MIN_CHUNK))
    length = count // chunks
    block = _MASK_BLOCK // chunks
    threshold = math.ceil(p * 9007199254740992.0) << 11  # 2**53
    if chunks > 1:
        _widen(gen, chunks, length)
    # the chunk lanes, then the last chunk's lanes alone for the remainder
    offsets = [c * length for c in range(chunks)]
    for chunk_starts, steps in ((offsets, length), ([chunks * length], count - chunks * length)):
        if not steps:
            continue
        width = _LANE_BYTES * gen.lane_count
        bias = ((1 << 64) + threshold - 1) * int.from_bytes(_ONE_PER_LANE * gen.lane_count,
                                                             "little")
        stream = lockstep(gen)
        for start in range(0, steps, block):
            stop = min(start + block, steps)
            blob = b"".join([(bias - word).to_bytes(width, "little")
                             for word in islice(stream, stop - start)])
            keep = 8  # byte 8 of each lane of bias - word is its keep bit
            for offset in chunk_starts:
                for mask in masks:
                    mask[offset + start:offset + stop] = blob[keep::width]
                    keep += _LANE_BYTES
        stream.close()
        while gen.lane_count > lanes:  # keep the last chunk's lanes
            gen.drop_first_lane()
    return masks
