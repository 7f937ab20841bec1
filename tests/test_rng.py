"""Generator stack: fixed vectors, ranges, and derivation rules."""

import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import mutant, reference_mask, reference_shuffle
from prodperc import rng
from prodperc.catalog import build_catalog_product
from prodperc.process import double_exposures, sample_percolation
from prodperc.rng import (_CHAR_POLY, _LANE_BYTES, _MASK_WIDTH, MASK64, Xoshiro256StarStar,
                          _jump, _x_power, bernoulli_masks, derive_trial_seed, lane_values,
                          lockstep, lockstep_words, placements, split_lanes, split_seeds,
                          splitmix64)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
# seeds as callers may pass them: split_seeds reduces every int mod 2**64
SEEDS = st.one_of(U64, st.sampled_from((0, 1, MASK64, 1 << 63, -1, -(1 << 63), 1 << 64)),
                  st.integers(min_value=-(1 << 80), max_value=1 << 80))
# raw state words: all-ones lanes side by side are where a missing mask
# or a borrow leaks into the next lane
STATE_WORDS = st.one_of(U64, st.sampled_from((0, 1, 1 << 63, MASK64)))
PROBABILITIES = st.one_of(st.sampled_from((0.0, 1.0, 1e-12, 1.0 - 1e-12)),
                          st.floats(min_value=0.0, max_value=1.0))


def state(gen):
    return gen.s0, gen.s1, gen.s2, gen.s3


LANE_BITS = 8 * _LANE_BYTES


def group_of(gens) -> Xoshiro256StarStar:
    """One lockstep group whose lane i is in the state of ``gens[i]``."""
    group = Xoshiro256StarStar.lanes([0] * len(gens))
    group.s0, group.s1, group.s2, group.s3 = (
        sum(state(gen)[k] << LANE_BITS * i for i, gen in enumerate(gens)) for k in range(4))
    return group


def generator_in_state(words) -> Xoshiro256StarStar:
    gen = Xoshiro256StarStar(0)
    gen.s0, gen.s1, gen.s2, gen.s3 = words
    return gen


def generator_whose_next_word_is(word: int) -> Xoshiro256StarStar:
    """Generator whose next ``next_u64`` returns ``word``: the output is
    rotl(s1 * 5, 7) * 9, so s1 = rotr(word / 9, 7) / 5 mod 2**64."""
    x = (word * pow(9, -1, 1 << 64)) & MASK64
    x = ((x >> 7) | (x << 57)) & MASK64
    return generator_in_state((1, (x * pow(5, -1, 1 << 64)) & MASK64, 2, 3))


def placements_to_the_end(gen, items):
    """Shuffle ``items`` by running ``placements`` on a one-lane
    ``lockstep`` stream to the end."""
    words = lockstep(gen)
    assert list(placements(items, words)) == list(range(len(items) - 1, -1, -1))
    words.close()


# the bulk shuffle and the placement loop it drives
SHUFFLES = (Xoshiro256StarStar.shuffle, placements_to_the_end)


def test_splitmix64_reference_vector():
    # first three outputs of the reference sequence seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0xE220A8397B1DCDAF) != splitmix64(0)


def test_split_seeds_match_the_stepped_state():
    # the i-th output of the sequence started at x is splitmix64 of the
    # state after i golden-ratio increments
    golden = 0x9E3779B97F4A7C15
    x = 12345
    expected = [splitmix64((x + i * golden) & ((1 << 64) - 1)) for i in range(4)]
    assert split_seeds(x, 4) == expected


@given(U64)
def test_splitmix64_range(x):
    assert 0 <= splitmix64(x) < 1 << 64


def test_xoshiro_hand_derived_outputs():
    # from state (1, 2, 3, 4): rotl(2*5, 7) * 9 = 1280 * 9, then s1
    # becomes 0 so the second output is 0
    gen = Xoshiro256StarStar(0)
    gen.s0, gen.s1, gen.s2, gen.s3 = 1, 2, 3, 4
    assert gen.next_u64() == 11520
    assert gen.next_u64() == 0


def test_xoshiro_state_update_hand_derived():
    gen = Xoshiro256StarStar(0)
    gen.s0, gen.s1, gen.s2, gen.s3 = 1, 2, 3, 4
    gen.next_u64()
    # t = 2 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t
    assert gen.s0 == 7
    assert gen.s1 == 0
    assert gen.s2 == 262146
    assert gen.s3 == ((6 << 45) | (6 >> 19)) & ((1 << 64) - 1)


def test_seeding_is_deterministic_and_nontrivial():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Xoshiro256StarStar(43)
    assert a.next_u64() != c.next_u64() or a.next_u64() != c.next_u64()


def test_zero_seed_state_not_all_zero():
    gen = Xoshiro256StarStar(0)
    assert (gen.s0, gen.s1, gen.s2, gen.s3) != (0, 0, 0, 0)


@given(st.sampled_from((0, 1, 40)).flatmap(
    lambda lanes: st.lists(SEEDS, min_size=lanes, max_size=lanes)))
def test_packed_seeding_matches_one_seed_at_a_time(seeds):
    # a right shift left unmasked before a product carries one lane's
    # bits into the next, so the packed ints must match exactly
    reference = [Xoshiro256StarStar(seed) for seed in seeds]
    group = Xoshiro256StarStar.lanes(seeds)
    assert group.lane_count == len(seeds)
    assert state(group) == state(group_of(reference))
    rounds = [split_seeds(seed, 2) for seed in seeds]
    assert split_lanes(seeds, 2) == [sum(words[k] << 128 * i for i, words in enumerate(rounds))
                                     for k in range(2)]
    assert [lane_values(word, len(seeds)) for word in split_lanes(seeds, 2)] == [
        [words[k] for words in rounds] for k in range(2)]


@settings(deadline=None, max_examples=25)
@given(st.lists(SEEDS, min_size=40, max_size=40))
def test_double_exposures_match_split_seed_rounds(seeds):
    pg = build_catalog_product("Q4")
    p2 = 1.0 / (pg.d * pg.d)
    p1 = 1.0 - (1.0 - 0.4) / (1.0 - p2)
    firsts, seconds = double_exposures(pg, 0.4, seeds)
    assert len(firsts) == len(seconds) == len(seeds) * pg.m
    for i, seed in enumerate(seeds):
        s1, s2 = split_seeds(seed, 2)
        trial = slice(i * pg.m, (i + 1) * pg.m)
        assert firsts[trial] == sample_percolation(pg, p1, s1).mask
        assert seconds[trial] == sample_percolation(pg, p2, s2).mask
    # a seed is read mod 2**64
    assert sample_percolation(pg, 0.4, -1).mask == sample_percolation(pg, 0.4, MASK64).mask


@given(U64)
def test_double_in_unit_interval(seed):
    gen = Xoshiro256StarStar(seed)
    for _ in range(8):
        x = gen.next_double()
        assert 0.0 <= x < 1.0


@given(U64, st.integers(min_value=1, max_value=1000))
def test_next_below_range(seed, bound):
    gen = Xoshiro256StarStar(seed)
    for _ in range(8):
        assert 0 <= gen.next_below(bound) < bound


@given(U64, st.integers(min_value=0, max_value=40))
def test_shuffle_is_permutation(seed, size):
    gen = Xoshiro256StarStar(seed)
    items = list(range(size))
    gen.shuffle(items)
    assert sorted(items) == list(range(size))


@given(st.lists(st.one_of(U64, st.integers(min_value=0, max_value=3)), max_size=40),
       st.integers(min_value=0, max_value=300), PROBABILITIES)
def test_bernoulli_masks_match_one_generator_at_a_time(seeds, count, p):
    # small seeds repeat often: equal lanes must stay equal
    group = Xoshiro256StarStar.lanes(seeds)
    reference = [Xoshiro256StarStar(seed) for seed in seeds]
    assert bernoulli_masks(group, count, p) == [
        reference_mask(gen, count, p) for gen in reference]
    # one word per byte: each stream continues as after count next_u64 calls
    assert state(group) == state(group_of(reference))


def berlekamp_massey(bits) -> int:
    """Shortest linear recurrence over F2 that generates ``bits``, as its
    characteristic polynomial (bit k the coefficient of x**k)."""
    connection, previous, length, gap = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        for i in range(1, length + 1):
            bit ^= connection >> i & bits[n - i]
        if not bit:
            gap += 1
            continue
        updated = connection ^ previous << gap
        if 2 * length <= n:
            previous, length, gap = connection, n + 1 - length, 1
        else:
            gap += 1
        connection = updated
    # the connection polynomial 1 + c1 x + ... + cL x**L, reversed
    return int(format(connection, f"0{length + 1}b")[::-1], 2)


def test_characteristic_polynomial_is_the_generators():
    gen = Xoshiro256StarStar(1)
    bits = []
    for _ in range(600):
        bits.append(gen.s0 & 1)
        gen.next_u64()
    poly = berlekamp_massey(bits)
    assert poly.bit_length() == 257  # degree 256
    assert poly == _CHAR_POLY


ALL_ONES = (MASK64,) * 4


@pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 4097])
@settings(deadline=None, max_examples=5)
@given(st.sampled_from((1, 5)).flatmap(lambda lanes: st.lists(
    st.one_of(U64.map(lambda seed: state(Xoshiro256StarStar(seed))),
              st.tuples(*[STATE_WORDS] * 4)), min_size=lanes, max_size=lanes)))
@example([ALL_ONES])
@example([ALL_ONES, state(Xoshiro256StarStar(1)), ALL_ONES, (0, MASK64, 0, MASK64), ALL_ONES])
def test_jump_equals_stepping(k, states):
    # all-ones lanes side by side show a step or an xor leaking across lanes
    group = group_of([generator_in_state(words) for words in states])
    _jump(group, _x_power(k))
    reference = [generator_in_state(words) for words in states]
    for gen in reference:
        for _ in range(k):
            gen.next_u64()
    assert group.lane_count == len(states)
    assert state(group) == state(group_of(reference))


def check_chunked_masks(kernel, seeds, count, p):
    group = Xoshiro256StarStar.lanes(seeds)
    reference = [Xoshiro256StarStar(seed) for seed in seeds]
    assert kernel(group, count, p) == [reference_mask(gen, count, p) for gen in reference]
    # the last chunk's lanes drew the remainder: count words on
    assert group.lane_count == len(seeds)
    assert state(group) == state(group_of(reference))


@st.composite
def chunked_draws(draw):
    """(seeds, count, chunk minimum) with count // minimum chunks per lane,
    count not divisible by the chunks."""
    lanes = draw(st.integers(min_value=0, max_value=40))
    chunks = draw(st.sampled_from([j for j in (1, 2, 3, 7) if j <= _MASK_WIDTH // max(lanes, 1)]))
    length = draw(st.integers(min_value=chunks, max_value=60))
    count = chunks * length + (draw(st.integers(min_value=1, max_value=chunks - 1))
                               if chunks > 1 else 0)
    seeds = draw(st.lists(st.one_of(U64, st.integers(min_value=0, max_value=3)),
                          min_size=lanes, max_size=lanes))
    assert max(1, min(_MASK_WIDTH // max(lanes, 1), count // length)) == chunks
    assert chunks == 1 or count % chunks
    return seeds, count, length


@given(chunked_draws(), PROBABILITIES)
def test_chunked_bernoulli_masks_match_one_generator_at_a_time(case, p):
    seeds, count, minimum = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_MIN_CHUNK", minimum)
        check_chunked_masks(bernoulli_masks, seeds, count, p)


def test_chunk_test_catches_a_chunk_one_byte_off():
    # bernoulli_masks recompiled to write chunk 1 of every lane one byte
    # past its offset; 3 lanes of 7000 draws make 3 chunks
    shifted = mutant(rng.bernoulli_masks, "offsets = [c * length for c in range(chunks)]",
                     "offsets = [c * length + (c == 1) for c in range(chunks)]")
    assert max(1, min(_MASK_WIDTH // 3, 7000 // rng._MIN_CHUNK)) == 3
    check_chunked_masks(bernoulli_masks, [1, 2, 3], 7000, 0.5)
    with pytest.raises(AssertionError):
        check_chunked_masks(shifted, [1, 2, 3], 7000, 0.5)


@given(st.lists(st.one_of(U64, st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=300))
def test_lockstep_words_match_one_generator_at_a_time(seeds, count):
    # small seeds repeat often: equal lanes must stay equal
    group = Xoshiro256StarStar.lanes(seeds)
    reference = [Xoshiro256StarStar(seed) for seed in seeds]
    words = lockstep_words(group, count)
    assert [list(lane) for lane in words] == [
        [gen.next_u64() for _ in range(count)] for gen in reference]
    assert all(lane.itemsize == 8 for lane in words)
    assert state(group) == state(group_of(reference))
    # a group without its first lane continues with the others
    group.drop_first_lane()
    assert group.lane_count == len(seeds) - 1
    assert state(group) == state(group_of(reference[1:]))


@given(st.lists(st.one_of(U64.map(lambda seed: state(Xoshiro256StarStar(seed))),
                          st.tuples(*[STATE_WORDS] * 4)),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=130))
def test_closed_lockstep_stream_leaves_the_words_drawn(states, k):
    # k = 0 closes a stream that never started
    group = group_of([generator_in_state(words) for words in states])
    reference = [generator_in_state(words) for words in states]
    stream = lockstep(group)
    packed = [next(stream) for _ in range(k)]
    stream.close()
    # lane i's word in bits [72 i, 72 i + 64), every other bit clear
    assert packed == [sum(gen.next_u64() << LANE_BITS * i for i, gen in enumerate(reference))
                      for _ in range(k)]
    assert state(group) == state(group_of(reference))


def check_threshold_word(p, offset, others, at):
    """The largest word kept (offset -1) or the smallest word dropped
    (offset 0) in lane ``at``, with a lane for each seed in ``others``
    around it."""
    word = ((math.ceil(p * 2**53) << 11) + offset) & MASK64
    assert (generator_whose_next_word_is(word).next_double() < p) == (offset < 0)

    def lanes():
        gens = [Xoshiro256StarStar(seed) for seed in others]
        gens.insert(at, generator_whose_next_word_is(word))
        return gens

    masks = bernoulli_masks(group_of(lanes()), 3, p)
    assert masks[at][0] == (offset < 0)
    assert masks == [reference_mask(gen, 3, p) for gen in lanes()]


@pytest.mark.parametrize("p", [0.5, 1 / 3, 1e-12, 1.0 - 1e-12])
@pytest.mark.parametrize("offset", [-1, 0])
def test_bernoulli_mask_at_the_threshold_word(p, offset):
    # one lane on its own
    check_threshold_word(p, offset, others=(), at=0)


@pytest.mark.parametrize("p", [0.5, 1 / 3, 1e-12, 1.0 - 1e-12])
@pytest.mark.parametrize("offset", [-1, 0])
def test_bernoulli_masks_at_the_threshold_word(p, offset):
    # first, middle and last lane of a 5-lane group
    for at in (0, 2, 4):
        check_threshold_word(p, offset, others=(1, 2, 3, 4), at=at)


@given(U64, st.integers(min_value=0, max_value=200))
def test_shuffle_matches_next_below_fisher_yates(seed, size):
    reference = Xoshiro256StarStar(seed)
    expected = list(range(size))
    reference_shuffle(reference, expected)
    for shuffle in SHUFFLES:
        bulk = Xoshiro256StarStar(seed)
        items = list(range(size))
        shuffle(bulk, items)
        assert items == expected
        assert state(bulk) == state(reference)


@given(U64, st.integers(min_value=1, max_value=200), st.integers(min_value=0))
def test_stopped_placements_leave_the_words_drawn(seed, size, k):
    # below 2**64 - 200 every word is accepted, so k placements draw k
    # words unless one of them lands in the top 200 (probability ~1e-17)
    k %= size
    gen = Xoshiro256StarStar(seed)
    items = list(range(size))
    source = lockstep(gen)
    stream = placements(items, source)
    assert [next(stream) for _ in range(k)] == list(range(size - 1, size - 1 - k, -1))
    source.close()
    words = Xoshiro256StarStar(seed)
    for _ in range(k):
        words.next_u64()
    assert state(gen) == state(words)
    # the placed suffix is already that of the full shuffle
    expected = list(range(size))
    reference_shuffle(Xoshiro256StarStar(seed), expected)
    assert items[size - k:] == expected[size - k:]
    assert sorted(items) == list(range(size))


def test_next_below_rejects_the_top_word():
    # 2**64 % 3 == 1, so the rejection threshold for 3 is 2**64 - 1
    gen = generator_whose_next_word_is(MASK64)
    probe = generator_whose_next_word_is(MASK64)
    assert probe.next_u64() == MASK64
    second = probe.next_u64()
    assert second < MASK64
    assert gen.next_below(3) == second % 3
    assert state(gen) == state(probe)


@pytest.mark.parametrize("size, word", [(3, MASK64), (3, MASK64 - 1),
                                        (3, MASK64 - 2), (7, MASK64 - 1)])
def test_shuffle_near_the_rejection_threshold(size, word):
    # the first draw has bound = size and every word here is at or above the
    # safe bound 2**64 - size; 2**64 % 3 == 1 rejects only the top word for
    # 3 items, 2**64 % 7 == 2 also rejects the one below it for 7
    reference = generator_whose_next_word_is(word)
    expected = list("abcdefg"[:size])
    reference_shuffle(reference, expected)
    for shuffle in SHUFFLES:
        gen = generator_whose_next_word_is(word)
        items = list("abcdefg"[:size])
        shuffle(gen, items)
        assert items == expected
        assert state(gen) == state(reference)
    # the crafted word in the middle lane of a lockstep group
    gens = [Xoshiro256StarStar(seed) for seed in (1, 2, 3, 4)]
    gens.insert(2, generator_whose_next_word_is(word))
    lane = iter(lockstep_words(group_of(gens), 16)[2])
    items = list("abcdefg"[:size])
    deque(placements(items, lane), maxlen=0)
    assert items == expected
    # the placements read exactly the words the reference drew
    assert next(lane) == reference.next_u64()


def test_trial_seed_derivation_rule():
    base = 0xDEADBEEF
    for index in (0, 1, 7, 1 << 40):
        assert derive_trial_seed(base, index) == splitmix64(base ^ index)


def test_trial_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_trial_seed(1, -1)


@given(U64)
def test_trial_seeds_distinct_for_small_indices(base):
    seeds = {derive_trial_seed(base, i) for i in range(64)}
    assert len(seeds) == 64
