import numpy as np
import pytest

from kernelbandits.errors import InputError
from kernelbandits.fullinfo import full_info_ew_play
from kernelbandits.kernels import KernelSpec, make_rank_one
from kernelbandits.rng import _inverse_cdf, component_rng, sample_indices
from oracles import FixedBits, sample_index, scalar_inverse_cdf


def test_block_draws_equal_single_draws():
    # the blocked exponential-weights pass draws a whole block's uniforms in
    # one call; that must give the bits of one call per round, and numpy's
    # uint64 -> float64 conversion must round as Python's int -> float does
    edges = np.array([0, 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1025,
                      2**64 - 1024, 2**64 - 1], dtype=np.uint64)
    for k in (1, 7, 256):
        singles, block, raw = (component_rng(9, "player") for _ in range(3))
        one_at_a_time = np.array([singles.integers(0, 2**64, dtype=np.uint64)
                                  for _ in range(k)], dtype=np.uint64)
        assert np.array_equal(block.integers(0, 2**64, size=k, dtype=np.uint64),
                              one_at_a_time)
        assert np.array_equal(raw.bit_generator.random_raw(k), one_at_a_time)
        bits = np.concatenate([one_at_a_time, edges])
        assert np.array_equal(bits / 2.0**64, [int(b) / 2.0**64 for b in bits])


def test_a_seed_outside_the_64_bit_range_is_refused():
    # the key takes the seed as is, so no two accepted seeds share a stream;
    # masking to 64 bits made 2^64 replay seed 0 and -1 replay 2^64 - 1
    top = component_rng(2**64 - 1, "adversary").bit_generator.random_raw(4)
    assert not np.array_equal(component_rng(0, "adversary").bit_generator.random_raw(4),
                              top)
    assert np.array_equal(component_rng(np.uint64(2**64 - 1), "adversary")
                          .bit_generator.random_raw(4), top)
    for seed in (2**64, -1, -2**64, True, 1.0, "0", None):
        with pytest.raises(InputError, match="seed must be an integer"):
            component_rng(seed, "adversary")


def test_sample_indices_follow_thescalar_inverse_cdf():
    weights = component_rng(1, "weights").random((500, 9))
    weights[::3, :4] = 0.0          # leading zero mass is never drawn
    weights[::5, 4] = 0.0
    weights[::7] /= weights[::7].sum(axis=1, keepdims=True)
    oracle = component_rng(2, "draws")
    expected = [scalar_inverse_cdf(w, oracle.integers(0, 2**64, dtype=np.uint64))
                for w in weights]
    assert np.array_equal(sample_indices(weights, component_rng(2, "draws")), expected)
    rng = component_rng(2, "draws")
    assert [sample_index(w, rng) for w in weights] == expected


def test_sample_index_caps_at_the_last_index():
    # u rounds to 1.0 for the top 2^10 bit patterns, so u * total can reach
    # the total; the draw is then the last index, as searchsorted + min gives
    weights = np.array([0.25, 0.5, 0.25])
    for value in (2**64 - 1, 2**64 - 1024):
        assert sample_index(weights, FixedBits(value)) == 2
        assert scalar_inverse_cdf(weights, value) == 2
    assert sample_index(weights, FixedBits(0)) == 0
    assert sample_index(np.array([0.0, 0.0, 1.0]), FixedBits(0)) == 2
    assert sample_index(np.array([1.0]), FixedBits(2**64 - 1)) == 0


class _ListedBits:
    """Stand-in generator whose raw stream serves the listed 64-bit values
    in order, one per draw, whether they are asked for singly or in a block."""

    def __init__(self, values):
        self.bit_generator = self
        self.values = np.asarray(values, dtype=np.uint64)

    def random_raw(self, size):
        rows = int(np.prod(size, dtype=int))
        drawn, self.values = self.values[:rows], self.values[rows:]
        return drawn.reshape(size)


def test_one_block_of_raw_draws_gives_per_row_draws():
    # the bandit's block step takes a block's raw draws with one call and
    # applies the inverse-CDF rule row by row; that must give the index of
    # one sample_index call per row, on rows with zero weights and on the
    # top 2^10 bit patterns, where u rounds to 1.0 and the index is capped
    weights = component_rng(3, "weights").random((300, 9))
    weights[::3, :4] = 0.0
    weights[::5, 4] = 0.0
    weights[::4, -1] = 0.0
    top = [2**64 - 1, 2**64 - 1024, 2**64 - 1025, 0]
    bits = np.concatenate([component_rng(4, "draws").bit_generator.random_raw(300 - 8),
                           np.array(top * 2, dtype=np.uint64)])
    blocked = [int(_inverse_cdf(w, u)) for w, u in zip(weights, bits / 2.0**64)]
    singles = _ListedBits(bits)
    assert blocked == [sample_index(w, singles) for w in weights]
    assert blocked == [scalar_inverse_cdf(w, b) for w, b in zip(weights, bits)]
    # the top patterns draw the last index of positive weight: 7 on rows 292
    # and 296, whose last weight is zero
    capped = [t for t, b in enumerate(bits) if b >= 2**64 - 1024]
    assert capped == [292, 293, 296, 297]
    assert [blocked[t] for t in capped] == [7, 8, 7, 8]


def test_the_draw_never_plays_a_zero_tail():
    # u rounds to 1.0 for the top 2^10 bit patterns, so u times the total
    # reaches the running sum at every index of a zero tail; the rule caps
    # the draw at the last index of positive weight, for one row and a stack
    rows = ([0.5, 0.5, 0.0], [0.25, 0.0, 0.5, 0.25, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0])
    stack = np.array([[0.25, 0.0, 0.5, 0.25, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                      [0.5, 0.5, 0.0, 0.0, 0.0]])
    for value in (2**64 - 1, 2**64 - 1024):
        u = np.uint64(value) / 2.0**64
        assert u == 1.0
        for w, last in zip(rows, (1, 3, 1)):
            assert _inverse_cdf(np.array(w), u) == last
            assert scalar_inverse_cdf(w, value) == last
        assert _inverse_cdf(stack, np.full(3, u)).tolist() == [3, 1, 1]
        assert sample_indices(stack, FixedBits(value)).tolist() == [3, 1, 1]
    # exponential weights at a large step: from round two on, the last two
    # actions' probabilities underflow to 0, and the top pattern plays action 0
    linear = KernelSpec.linear()
    actions = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    schedule = [make_rank_one(linear, np.array([1.0, 0.0]))] * 300
    idx = full_info_ew_play(linear, actions, schedule, 1000.0, FixedBits(2**64 - 1))[0]
    assert idx[0] == 2
    assert (idx[1:] == 0).all()
