import numpy as np

from kernelbandits.rng import component_rng, sample_index, sample_indices
from oracles import scalar_inverse_cdf


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


class _FixedBits:
    """Stand-in generator whose raw stream repeats one 64-bit value."""

    def __init__(self, value):
        self.bit_generator = self
        self.value = np.uint64(value)

    def random_raw(self, size):
        return np.full(size, self.value, dtype=np.uint64)


def test_sample_index_caps_at_the_last_index():
    # u rounds to 1.0 for the top 2^10 bit patterns, so u * total can reach
    # the total; the draw is then the last index, as searchsorted + min gives
    weights = np.array([0.25, 0.5, 0.25])
    for value in (2**64 - 1, 2**64 - 1024):
        assert sample_index(weights, _FixedBits(value)) == 2
        assert scalar_inverse_cdf(weights, value) == 2
    assert sample_index(weights, _FixedBits(0)) == 0
    assert sample_index(np.array([0.0, 0.0, 1.0]), _FixedBits(0)) == 2
    assert sample_index(np.array([1.0]), _FixedBits(2**64 - 1)) == 0
