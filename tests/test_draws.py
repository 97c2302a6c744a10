"""The samplers' draws against numpy's own Generator methods.

`boxloss.boxes._uniform`, `_normal` and `_sign` stand in for
`Generator.uniform`, `.normal` and `.choice((-1.0, 1.0))`. They must give the
same bits and leave the generator at the same point, or gradcheck and fit
outputs change silently. Each helper is checked against numpy on a twin
generator, on the running numpy and platform, and the library's samplers are
checked against `tests/reference.py`'s copies, which call numpy directly.
The samplers draw runs of doubles and Gaussians as blocks, through
`_uniform_from` and `_normal_from`; the numpy property that makes a block
equal to its scalar calls is pinned here too.
"""

import math

import numpy as np
import pytest

from boxloss import REGIMES, Box, FitConfig, OverlapRegime, generate_dataset
from boxloss.boxes import _normal, _normal_from, _sign, _uniform, _uniform_from
from boxloss.gradients import _sample_pair

import reference

_DRAWS = 10_000


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_in_step(ours: np.random.Generator, numpys: np.random.Generator) -> None:
    """Same bit-generator state, buffered 32-bit half included, and the same
    next double."""
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert ours.random().hex() == numpys.random().hex()


def _bounds(n: int, seed: int) -> list[tuple[float, float]]:
    """Finite (lo, hi) pairs with hi >= lo, magnitudes from 1e-300 to 1e300,
    some given as Python ints, and some with lo == hi."""
    src = np.random.default_rng(seed)
    bounds = []
    for _ in range(n):
        lo = float(src.standard_normal()) * 10.0 ** int(src.integers(-300, 301))
        hi = lo + abs(float(src.standard_normal())) * 10.0 ** int(src.integers(-300, 301))
        roll = int(src.integers(0, 10))
        if roll == 0:
            bounds.append((int(src.integers(-100, 100)), int(src.integers(100, 10**6))))
        elif roll == 1:
            bounds.append((lo, lo))
        else:
            bounds.append((lo, hi))
    return bounds


def _scales(n: int, seed: int) -> list[float]:
    """Non-negative finite scales, zero included."""
    src = np.random.default_rng(seed)
    scales = [
        abs(float(src.standard_normal())) * 10.0 ** int(src.integers(-300, 301))
        for _ in range(n)
    ]
    return [0.0 if i % 97 == 0 else s for i, s in enumerate(scales)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_is_numpys(seed):
    ours, numpys = _twins(seed)
    for lo, hi in _bounds(_DRAWS, 100 + seed):
        assert _uniform(ours, lo, hi).hex() == float(numpys.uniform(lo, hi)).hex(), (lo, hi)
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_is_numpys(seed):
    ours, numpys = _twins(seed)
    for scale in _scales(_DRAWS, 200 + seed):
        assert _normal(ours, scale).hex() == float(numpys.normal(0.0, scale)).hex(), scale
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_is_numpys(seed):
    ours, numpys = _twins(seed)
    for _ in range(_DRAWS):
        assert _sign(ours).hex() == float(numpys.choice((-1.0, 1.0))).hex()
    _assert_in_step(ours, numpys)


def test_interleaved_draws_keep_the_streams_in_step():
    """Signs take 32-bit halves that numpy buffers; doubles and Gaussians take
    whole 64-bit words. Mixed in random order, as the samplers mix them, the
    two generators still agree draw for draw."""
    ours, numpys = _twins(3)
    order = np.random.default_rng(4).integers(0, 4, size=_DRAWS).tolist()
    bounds, scales = _bounds(_DRAWS, 5), _scales(_DRAWS, 6)
    for i, pick in enumerate(order):
        if pick == 0:
            got, want = _uniform(ours, *bounds[i]), numpys.uniform(*bounds[i])
        elif pick == 1:
            got, want = _normal(ours, scales[i]), numpys.normal(0.0, scales[i])
        elif pick == 2:
            got, want = _sign(ours), numpys.choice((-1.0, 1.0))
        else:
            got, want = int(ours.integers(0, 4)), int(numpys.integers(0, 4))
        assert float(got).hex() == float(want).hex(), i
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize(
    "lo, hi", [(1.0, 0.5), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)]
)
def test_uniform_refuses_what_numpy_refuses(lo, hi):
    """A negative or non-finite range is an error in both, before any bits
    are drawn."""
    ours, numpys = _twins(0)
    with pytest.raises((ValueError, OverflowError)):
        numpys.uniform(lo, hi)
    with pytest.raises(ValueError, match="negative or not finite"):
        _uniform(ours, lo, hi)
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize("pending", [False, True], ids=["whole_word", "pending_half"])
@pytest.mark.parametrize("method", ["random", "standard_normal"])
def test_block_draw_is_its_scalar_draws(method, pending):
    """rng.random(n) and rng.standard_normal(n) take whole 64-bit words in
    the order of n scalar calls and leave the buffered 32-bit half of an odd
    number of integers calls alone, so a sampler may draw a run of doubles
    or Gaussians in one call even between two integers calls."""
    ours, numpys = _twins(7)
    for rng in (ours, numpys):
        for _ in range(3 if pending else 2):
            rng.integers(0, 2)
    assert ours.bit_generator.state["has_uint32"] == int(pending)
    for n in (1, 2, 3, 4, 5, 8, 1000):
        block = getattr(ours, method)(n).tolist()
        assert _hex(block) == _hex(getattr(numpys, method)() for _ in range(n)), n
        assert ours.bit_generator.state == numpys.bit_generator.state, n
    assert int(ours.integers(0, 2**31)) == int(numpys.integers(0, 2**31))
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_transforms_are_the_one_draw_helpers(seed):
    """_uniform_from and _normal_from on a block's values give the bits of
    _uniform and _normal drawing one value per call."""
    bounds, scales = _bounds(_DRAWS, 300 + seed), _scales(_DRAWS, 400 + seed)
    ours, theirs = _twins(seed)
    u = iter(ours.random(_DRAWS).tolist()).__next__
    assert _hex(_uniform_from(u, lo, hi) for lo, hi in bounds) == _hex(
        _uniform(theirs, lo, hi) for lo, hi in bounds
    )
    z = iter(ours.standard_normal(_DRAWS).tolist()).__next__
    assert _hex(_normal_from(z, s) for s in scales) == _hex(_normal(theirs, s) for s in scales)
    _assert_in_step(ours, theirs)


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 0.5), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (3, 2)],
)
def test_uniform_from_refuses_before_it_draws(lo, hi):
    """The range check comes before the draw: a refused range takes no value
    from a block, and refuses with _uniform's message."""
    block = iter([0.5]).__next__
    with pytest.raises(ValueError, match="negative or not finite") as refused:
        _uniform_from(block, lo, hi)
    assert block() == 0.5
    with pytest.raises(ValueError) as one_draw:
        _uniform(np.random.default_rng(0), lo, hi)
    assert str(refused.value) == str(one_draw.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", REGIMES)
def test_sample_pair_matches_reference(regime, seed):
    ours, numpys = _twins(seed)
    for _ in range(2000):
        assert _hex(_sample_pair(ours, regime)) == _hex(reference._sample_pair(numpys, regime))
    _assert_in_step(ours, numpys)


_DATASETS = [
    *(
        FitConfig(num_pairs=100, batch_size=16, regime=regime, translation_sigma=1.0, seed=seed)
        for regime in OverlapRegime
        for seed in (0, 1, 2)
    ),
    # Most draws land in contact and are rejected: 28 to 48 draws per kept pair.
    *(
        FitConfig(
            num_pairs=30, batch_size=16, regime="disjoint", translation_sigma=0.4, seed=seed
        )
        for seed in (0, 1, 2)
    ),
    # Integer bounds, converted to float before the range is taken, and a
    # wide size jitter.
    FitConfig(
        num_pairs=50,
        frame=Box(0, 0, 70, 90),
        target_size_min=3,
        target_size_max=60,
        scale_sigma=0.7,
        translation_sigma=2.0,
        seed=8,
    ),
]


@pytest.mark.parametrize("config", _DATASETS)
def test_generate_dataset_matches_reference(config, monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    ours, theirs = generate_dataset(config), reference.generate_dataset(config)
    for got, want in ((ours.predicted, theirs.predicted), (ours.target, theirs.target)):
        assert [_hex(b.corners()) for b in got] == [_hex(b.corners()) for b in want]
    assert len(made) == 2
    _assert_in_step(*made)
