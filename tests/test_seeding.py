import numpy as np
import pytest

from gridmon.seeding import rng, rngs

MASTER_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345)


def _keys(n, seed):
    """``n`` three-entry keys, small and from 2**32 up, mixed row by row."""
    gen = np.random.default_rng(seed)
    keys = gen.integers(0, 5000, (n, 3)).astype(np.uint64)
    wide = gen.random((n, 3)) < 0.2
    keys[wide] += np.uint64(2**32) + gen.integers(0, 2**40, wide.sum()).astype(np.uint64)
    keys[:2] = [[0, 0, 0], [2**32, 0, 2**33 + 7]]
    return keys


@pytest.mark.parametrize("master", MASTER_SEEDS)
@pytest.mark.parametrize("n", [0, 1, 1100])
def test_rngs_draw_bitwise_as_rng(master, n):
    keys = _keys(max(n, 2), master % 1000)[:n]
    streams = list(rngs(master, keys))
    assert len(streams) == n
    for key, gen in zip(keys.tolist(), streams):
        ref = rng(master, *key)
        assert gen.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes(), key
        assert gen.uniform(0.8, 1.2, 15).tobytes() == ref.uniform(0.8, 1.2, 15).tobytes()


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_rngs_key_widths(master):
    """No key, a one-entry key and keys whose entries all need two words."""
    for keys in (np.zeros((3, 0), dtype=int), np.array([[5], [2**32 + 5]]),
                 np.array([[2**40, 2**63], [2**32, 2**33]], dtype=np.uint64)):
        for key, gen in zip(keys.tolist(), rngs(master, keys)):
            assert (gen.standard_normal(3).tobytes()
                    == rng(master, *key).standard_normal(3).tobytes())


def test_rngs_rejects_negative_input():
    with pytest.raises(ValueError):
        rngs(-1, [[1]])
    with pytest.raises(ValueError):
        rngs(1, np.array([[1, -2]]))
    with pytest.raises(ValueError):
        rngs(1, [1, 2])
    with pytest.raises(ValueError):
        rngs(1, [[0.5]])
