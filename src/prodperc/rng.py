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

``next_u64``, ``next_double`` and ``next_below`` are the one-step
reference.  ``lockstep(gens)`` is the one bulk stepper: an endless
stream with one packed int per step, lane i's ``next_u64`` word in bits
[72 i, 72 i + 64).  It packs the generators' states on its first step
(lane i's four state words in the same bits of four packed ints), runs
the reference update on all lanes at once, and writes every state back
when the stream is closed, so each generator continues exactly as after
the same number of ``next_u64`` calls; none may be stepped otherwise
while the stream is open.  No bit crosses into another lane: each left
shift is masked first (``(s1 & low47) << 17``, ``(s3 & low19) << 45``)
and each right shift after (``s3 >> 19 & low45``; the top 7 bits of the
rotated product come down by ``>> 64 & low7``), so every state word
stays below 2**64; ``s1 * 5`` is below 2**67, the rotated word times 9
below 2**68, and the largest intermediate, ``(s1 * 5 & lane) << 7``,
below 2**71.  With one lane each packed int is the plain word.  A
stream closed before its first step leaves every state as it was.  It
feeds three loops:

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
* ``lockstep_words(gens, count)`` returns each generator's next
  ``count`` words as an ``array('Q')``, 8 bytes per lane and step:
  each step's packed int becomes 9 bytes per lane, and byte j of lane
  i's words is every ``9 * lanes``-th byte from byte 9 i + j.
  ``process.hitting_times`` shuffles each trial of a group from them.
* ``bernoulli_masks(gens, count, p)`` draws a Bernoulli mask for each
  generator of a group: byte k of generator i's mask is 1 iff the k-th
  of its next ``count`` ``next_double()`` values is below p.

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
  - The trial runner and the coupling suite cap a group at
    ``GROUP_LANES = 32`` lanes.  On a 2-vCPU x86 VM (Python 3.11, 4096
    draws per lane, best of 7), one lane costs about 0.7 us per draw,
    20 lanes about 62 ns per lane and draw, 32 lanes about 50 ns and
    256 still about 40 ns.  Wider groups gain little, while every
    lane's mask is held until its trial is computed and fewer, larger
    groups balance worse over pool workers.
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

    Used to derive independent sub-stream seeds, e.g. the two exposure
    rounds of a double exposure.
    """
    return [splitmix64((seed + k * _GOLDEN) & MASK64) for k in range(count)]


class Xoshiro256StarStar:
    """xoshiro256** with the reference update rule, seeded via splitmix64."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        self.s0, self.s1, self.s2, self.s3 = split_seeds(seed, 4)

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
        words = lockstep([self])
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


def _pack(words) -> int:
    """One int holding ``words[i]`` in bits [72 i, 72 i + 64)."""
    return int.from_bytes(b"".join(w.to_bytes(_LANE_BYTES, "little") for w in words),
                          "little")


def _unpack(packed: int, lanes: int) -> list[int]:
    blob = packed.to_bytes(_LANE_BYTES * lanes, "little")
    return [int.from_bytes(blob[_LANE_BYTES * i:_LANE_BYTES * i + 8], "little")
            for i in range(lanes)]


def lockstep(gens):
    """Endless stream of one packed int per step of all ``gens``: lane
    i's ``next_u64`` word sits in bits [72 i, 72 i + 64).  Every state
    is written back when the stream is closed; see the module docstring
    for the lane layout."""
    lanes = len(gens)
    ones = int.from_bytes(_ONE_PER_LANE * lanes, "little")
    lane = MASK64 * ones
    low7 = ((1 << 7) - 1) * ones
    low19 = ((1 << 19) - 1) * ones
    low45 = ((1 << 45) - 1) * ones
    low47 = ((1 << 47) - 1) * ones
    s0 = _pack([g.s0 for g in gens])
    s1 = _pack([g.s1 for g in gens])
    s2 = _pack([g.s2 for g in gens])
    s3 = _pack([g.s3 for g in gens])
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
        for g, *state in zip(gens, *(_unpack(s, lanes) for s in (s0, s1, s2, s3))):
            g.s0, g.s1, g.s2, g.s3 = state


def lockstep_words(gens, count: int) -> list[array]:
    """The next ``count`` ``next_u64`` outputs of each generator, one
    ``array('Q')`` per generator; each generator ends ``count`` words
    further on."""
    lanes = len(gens)
    stream = lockstep(gens)
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


# Most trials one group draws in lockstep: more lanes barely lower the
# cost per draw, and every lane holds its whole mask until its row.
GROUP_LANES = 32

# Steps ``bernoulli_masks`` turns into bytes at once: a block holds
# 9 bytes per lane and step.
_MASK_BLOCK = 512


def bernoulli_masks(gens, count: int, p: float) -> list[bytearray]:
    """Byte k of mask i is 1 iff the k-th of the next ``count`` doubles
    of ``gens[i]`` is < p; every generator ends ``count`` words further
    on.  See the module docstring for the keep test."""
    lanes = len(gens)
    masks = [bytearray(count) for _ in range(lanes)]
    threshold = math.ceil(p * 9007199254740992.0) << 11  # 2**53
    bias = ((1 << 64) + threshold - 1) * int.from_bytes(_ONE_PER_LANE * lanes, "little")
    stream = lockstep(gens)
    width = _LANE_BYTES * lanes
    for start in range(0, count, _MASK_BLOCK):
        stop = min(start + _MASK_BLOCK, count)
        # byte 8 of each lane of bias - word is its keep bit
        blob = b"".join([(bias - word).to_bytes(width, "little")
                         for word in islice(stream, stop - start)])
        for i, mask in enumerate(masks):
            mask[start:stop] = blob[_LANE_BYTES * i + 8::width]
    stream.close()
    return masks
