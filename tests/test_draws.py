"""The samplers' draws.

fit's `_draw_pairs` keeps numpy's exact streams: `boxloss.boxes._uniform_from`
and `_normal_from` turn a drawn double or Gaussian into the bits of
`Generator.uniform` and `.normal`, and a block `rng.random(n)` or
`rng.standard_normal(n)` takes the 64-bit words of n scalar calls in the same
order. Both are pinned here on the running numpy and platform, and
`generate_dataset` is checked against `tests/reference.py`'s copy, which calls
numpy's scalar methods directly.

gradcheck's `_sample_pairs` builds its pairs from array draws on two
generators spawned from the seed; its rows are checked against each regime's
geometric law, and the first rows against any number of samples after them.
"""

import math

import numpy as np
import pytest

from boxloss import REGIMES, Box, FitConfig, GradCheckConfig, LossKind, OverlapRegime
from boxloss import generate_dataset, gradients
from boxloss.boxes import _normal_from, _uniform_from, iou_array

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
        got = _uniform_from(ours.random(), lo, hi)
        assert got.hex() == float(numpys.uniform(lo, hi)).hex(), (lo, hi)
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_is_numpys(seed):
    ours, numpys = _twins(seed)
    for scale in _scales(_DRAWS, 200 + seed):
        got = _normal_from(ours.standard_normal(), scale)
        assert got.hex() == float(numpys.normal(0.0, scale)).hex(), scale
    _assert_in_step(ours, numpys)


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 0.5), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (3, 2)],
)
def test_uniform_refuses_what_numpy_refuses(lo, hi):
    """A negative or non-finite range is an error in both."""
    with pytest.raises((ValueError, OverflowError)):
        np.random.default_rng(0).uniform(lo, hi)
    with pytest.raises(ValueError, match="negative or not finite"):
        _uniform_from(0.5, lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 0.5), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (3, 2)],
)
def test_uniform_from_refuses_before_it_draws(lo, hi):
    """The range check comes before the drawn value is read: every double a
    block can hold, and a NaN that none can, meets one refusal that names the
    range."""
    refusals = set()
    for u in (0.0, 0.5, math.nextafter(1.0, 0.0), math.nan):
        with pytest.raises(ValueError, match="negative or not finite") as refused:
            _uniform_from(u, lo, hi)
        refusals.add(str(refused.value))
    assert refusals == {f"uniform range [{float(lo)!r}, {hi!r}] is negative or not finite"}


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


def _gradcheck_rows(config: GradCheckConfig) -> np.ndarray:
    """The rows _check_kinds samples for config, before its kink filter."""
    drawn = []
    sample_pairs = gradients._sample_pairs

    def recording(u, z, regime):
        drawn.append(sample_pairs(u, z, regime))
        return drawn[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradients, "_sample_pairs", recording)
        gradients._check_kinds([LossKind.HUBER], config, 1e-4, 1e-5)
    return np.concatenate(drawn)


def _assert_regime_law(rows: np.ndarray, regime: str) -> None:
    """Every row obeys its regime's geometry; rows are (n, 8), the predicted
    corners then the target's."""
    pred, target = rows[:, :4], rows[:, 4:]
    size, center = pred[:, 2:] - pred[:, :2], (pred[:, 2:] + pred[:, :2]) / 2
    t_size, t_center = target[:, 2:] - target[:, :2], (target[:, 2:] + target[:, :2]) / 2
    eps = 1e-9
    assert ((t_size >= 6.0 - eps) & (t_size < 24.0 + eps)).all()
    assert ((t_center >= 30.0 - eps) & (t_center < 70.0 + eps)).all()
    ious = iou_array(pred, target)
    shift = np.abs(center - t_center)
    if regime == "nested":
        assert ((pred[:, :2] > target[:, :2]) & (pred[:, 2:] < target[:, 2:])).all()
        ratio = size / t_size
        assert ((ratio >= 0.3 - eps) & (ratio < 0.7 + eps)).all()
        assert (shift <= 0.4 * (t_size - size) / 2 + eps).all()
    elif regime == "shifted":
        np.testing.assert_allclose(size, t_size, rtol=1e-12)
        ratio = shift / t_size
        assert ((ratio >= 0.15 - eps) & (ratio < 1.5 + eps)).all()
    elif regime == "partial":
        assert (ious > 0.0).all()
    else:
        assert (ious == 0.0).all()
        # The gap along the separating axis is at least 0.1 half-sum.
        half_sum = (size + t_size) / 2
        assert ((shift - half_sum) / half_sum >= 0.1 - eps).any(axis=1).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", REGIMES)
def test_sample_pairs_keep_their_regime(regime, seed):
    config = GradCheckConfig(num_samples=2000, regime=regime, seed=seed)
    rows = _gradcheck_rows(config)
    assert rows.shape == (2000, 8)
    assert np.array_equal(rows, _gradcheck_rows(config))
    if regime != "mixed":
        _assert_regime_law(rows, regime)
        return
    # Mixed picks among the other four by its fifth uniform, and each picked
    # row is that regime's row on the same draws.
    rng_u, rng_z = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    u, z = rng_u.random((2000, 10)), rng_z.standard_normal((2000, 2))
    pick = (4.0 * u[:, 4]).astype(int)
    assert set(pick.tolist()) == {0, 1, 2, 3}
    for k, picked in enumerate(REGIMES[1:]):
        mine = pick == k
        assert np.array_equal(rows[mine], gradients._sample_pairs(u[mine], z[mine], picked))
        _assert_regime_law(rows[mine], picked)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", REGIMES)
def test_first_samples_do_not_depend_on_how_many_follow(regime, seed, monkeypatch):
    config = GradCheckConfig(num_samples=300, regime=regime, seed=seed)
    first = _gradcheck_rows(config)
    doubled = _gradcheck_rows(GradCheckConfig(num_samples=600, regime=regime, seed=seed))
    assert np.array_equal(doubled[:300], first)
    monkeypatch.setattr(gradients, "_CHECK_CHUNK", 7)
    assert np.array_equal(_gradcheck_rows(config), first)


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
