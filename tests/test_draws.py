"""The samplers' draws.

fit's `_draw_pairs` draws on two generators spawned from the seed: the
targets from one `random((K, 4))` call on the first, and each rejection
round's size jitters and center shifts from one `standard_normal((P, 4))`
call on the second for the P pairs still pending. Its targets are numpy's
`Generator.uniform`, its shifts `.normal` and its size factors `math.exp`
of the drawn values, which on this platform are also `.lognormal`'s, all bit
for bit; `generate_dataset` is checked against `tests/reference.py`'s scalar
copy, and the pairs against their regime and the perturbation law.

gradcheck's `_sample_pairs` builds its pairs from array draws on two
generators spawned from the seed, with `math.exp` size jitters too; its rows
are checked against each regime's geometric law, and the first rows against
any number of samples after them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from boxloss import REGIMES, Box, FitConfig, GradCheckConfig, LossKind, OverlapRegime
from boxloss import fitting, generate_dataset, gradients
from boxloss.boxes import iou_array
from boxloss.fitting import _draw_pairs

import reference


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_in_step(ours: np.random.Generator, numpys: np.random.Generator) -> None:
    """Same bit-generator state, buffered 32-bit half included, and the same
    next double."""
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert ours.random().hex() == numpys.random().hex()


def _spawned(seed: int) -> list[np.random.Generator]:
    """The two generators fit's draw spawns from its seed."""
    return list(map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2)))


# Integer size bounds, converted to float as numpy's uniform converts them,
# and a frame off the origin.
_WIDE = FitConfig(
    num_pairs=2000,
    batch_size=1,
    frame=Box(-7, 3, 70, 93),
    target_size_min=3,
    target_size_max=60,
    scale_sigma=0.7,
    translation_sigma=2.0,
)


def _numpy_targets(config: FitConfig) -> tuple[np.ndarray, ...]:
    """Each target's w, h, cx and cy as Generator.uniform draws them on the
    first spawned generator: the sizes in the size range, then each center
    wherever its box fits in the frame."""
    n, f = config.num_pairs, config.frame
    lo, hi = config.target_size_min, config.target_size_max
    w, h = _spawned(config.seed)[0].uniform(lo, hi, size=(n, 4))[:, :2].T
    # The second call redraws the sizes as uniform(w, w), which is w.
    low = np.stack((w, h, f.xmin + w / 2, f.ymin + h / 2), axis=1)
    high = np.stack((w, h, f.xmax - w / 2, f.ymax - h / 2), axis=1)
    _, _, cx, cy = _spawned(config.seed)[0].uniform(low, high).T
    return w, h, cx, cy


def _perturbed(config: FitConfig, factors: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(n, 4) predicted corners: each target's size times its (n, 2) factors,
    its center moved by its (n, 2) shifts."""
    w, h, cx, cy = _numpy_targets(config)
    pw, ph = w * factors[:, 0], h * factors[:, 1]
    px, py = cx + shifts[:, 0], cy + shifts[:, 1]
    return np.stack((px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2), axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_is_numpys(seed):
    config = replace(_WIDE, seed=seed)
    w, h, cx, cy = _numpy_targets(config)
    want = np.stack((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), axis=1)
    _, targets = _draw_pairs(config)
    assert _hex(targets.ravel()) == _hex(want.ravel())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_is_numpys(seed):
    """A mixed dataset keeps every pair in its first round: each prediction
    is its target scaled by Generator.lognormal(0, scale_sigma) and shifted
    by Generator.normal(0, translation_sigma * size), drawn on the second
    spawned generator."""
    config = replace(_WIDE, seed=seed)
    w, h, _, _ = _numpy_targets(config)
    factors = _spawned(seed)[1].lognormal(0.0, config.scale_sigma, size=(len(w), 4))
    sigma = config.translation_sigma
    # The size jitters' columns of this call go unused.
    scales = np.stack((w, h, sigma * w, sigma * h), axis=1)
    shifts = _spawned(seed)[1].normal(0.0, scales)
    predicted, _ = _draw_pairs(config)
    want = _perturbed(config, factors[:, :2], shifts[:, 2:])
    assert _hex(predicted.ravel()) == _hex(want.ravel())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_size_factors_are_math_exp(seed):
    """Each size factor is math.exp of its drawn value scale_sigma * z, bit
    for bit. numpy's float64 exp may differ from it in the last bit,
    depending on the SIMD code numpy dispatches to."""
    config = replace(_WIDE, seed=seed)
    z = _spawned(seed)[1].standard_normal((config.num_pairs, 4))
    jitter = (config.scale_sigma * z[:, :2]).ravel().tolist()
    factors = np.reshape([math.exp(v) for v in jitter], (-1, 2))
    w, h, _, _ = _numpy_targets(config)
    shifts = config.translation_sigma * np.stack((w, h), axis=1) * z[:, 2:]
    predicted, _ = _draw_pairs(config)
    assert _hex(predicted.ravel()) == _hex(_perturbed(config, factors, shifts).ravel())


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 0.5), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (3, 2)],
)
def test_uniform_refuses_what_numpy_refuses(lo, hi):
    """The draw computes numpy's uniform itself, without numpy's refusal of
    a negative or non-finite range, so FitConfig refuses each such size
    range before anything is drawn."""
    with pytest.raises((ValueError, OverflowError)):
        np.random.default_rng(0).uniform(lo, hi)
    with pytest.raises(ValueError, match="target size range must satisfy"):
        FitConfig(target_size_min=lo, target_size_max=hi)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", list(OverlapRegime))
def test_every_pair_meets_its_regime(regime, seed):
    config = replace(_WIDE, num_pairs=500, regime=regime, seed=seed)
    predicted, targets = _draw_pairs(config)
    ious = iou_array(predicted, targets)
    if regime is OverlapRegime.DISJOINT:
        assert (ious == 0.0).all()
    elif regime is OverlapRegime.OVERLAPPING:
        assert (ious > 0.0).all()
    else:
        assert (ious == 0.0).any() and (ious > 0.0).any()
    f = config.frame
    assert (targets[:, :2] >= (f.xmin, f.ymin)).all()
    assert (targets[:, 2:] <= (f.xmax, f.ymax)).all()
    # A side is its drawn size up to the rounding of the two corners.
    sides = targets[:, 2:] - targets[:, :2]
    slack = 4 * np.spacing(max(map(abs, f.corners())))
    assert (sides >= config.target_size_min - slack).all()
    assert (sides <= config.target_size_max + slack).all()


# Each regime's rule, as the draw's rejection rounds must apply it.
_KEPT = {
    OverlapRegime.OVERLAPPING: lambda ious: ious > 0.0,
    OverlapRegime.DISJOINT: lambda ious: ious == 0.0,
    OverlapRegime.MIXED: lambda ious: np.full(ious.shape, True),
}


@pytest.mark.parametrize("regime", list(OverlapRegime))
def test_one_iou_call_per_rejection_round(monkeypatch, regime):
    """Each round calls fitting.iou once, on the pairs still pending: all K
    pairs first, then those the previous round rejected. The mixed regime
    keeps every pair in its first round, so it makes exactly one call, which
    bench/worker.py's traced run counts by replacing this name."""
    rows, pending = [], []

    def counted(a, b):
        ious = iou_array(a, b)
        rows.append(len(a))
        pending.append(int((~_KEPT[regime](ious)).sum()))
        return ious

    monkeypatch.setattr(fitting, "iou", counted)
    config = replace(_WIDE, num_pairs=500, regime=regime)
    _draw_pairs(config)
    assert rows[0] == config.num_pairs
    assert rows[1:] == pending[:-1] and pending[-1] == 0
    if regime is OverlapRegime.MIXED:
        assert rows == [config.num_pairs]
    else:
        assert len(rows) > 1


def test_mixed_pairs_follow_the_perturbation_law():
    """Over 20,000 mixed pairs, 40,000 values each, the log size factors
    have mean 0 and standard deviation scale_sigma, and the center shifts in
    units of the target's size mean 0 and standard deviation
    translation_sigma. Tolerance: five standard errors, sigma * 5 / sqrt(n)
    for the mean and 5 / sqrt(2n) relative (1.8 %) for the deviation."""
    config = FitConfig(num_pairs=20_000, batch_size=1, scale_sigma=0.2, translation_sigma=0.3)
    predicted, targets = _draw_pairs(config)
    size, p_size = targets[:, 2:] - targets[:, :2], predicted[:, 2:] - predicted[:, :2]
    shift = ((predicted[:, 2:] + predicted[:, :2]) - (targets[:, 2:] + targets[:, :2])) / 2
    for values, sigma in ((np.log(p_size / size), 0.2), (shift / size, 0.3)):
        n = values.size
        assert n == 40_000
        assert abs(values.mean()) < sigma * 5 / math.sqrt(n)
        assert abs(values.std() / sigma - 1) < 5 / math.sqrt(2 * n)


@pytest.mark.parametrize("n, m", [(1, 1), (37, 463), (500, 1)])
def test_mixed_dataset_is_a_prefix_of_a_larger_one(n, m):
    """Every mixed pair is kept in the first round, which draws one row per
    pair, so n pairs do not depend on how many follow. Rejection rounds draw
    for the pairs still pending, so the other regimes have no such prefix."""
    small = _draw_pairs(FitConfig(num_pairs=n, batch_size=1, seed=4))
    large = _draw_pairs(FitConfig(num_pairs=n + m, batch_size=1, seed=4))
    for ours, longer in zip(small, large):
        assert ours.tobytes() == longer[:n].tobytes()


@pytest.mark.parametrize("pending", [False, True], ids=["whole_word", "pending_half"])
@pytest.mark.parametrize("method", ["random", "standard_normal"])
def test_block_draw_is_its_scalar_draws(method, pending):
    """rng.random(n) and rng.standard_normal(n) take whole 64-bit words in
    the order of n scalar calls and leave the buffered 32-bit half of an odd
    number of integers calls alone. So the first rows of a block draw do not
    depend on how many rows follow, which is what makes gradcheck's first
    samples and a mixed dataset's first pairs independent of the count."""
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_size_jitters_are_math_exp(seed):
    """gradcheck's partial pairs have the sizes w * math.exp(0.15 * z) and
    h * math.exp(0.15 * z'), bit for bit, as fit's draw has math.exp's size
    factors. Each row is rebuilt here from Python floats, whose four basic
    operations round as numpy's do."""
    rng_u, rng_z = _spawned(seed)
    u, z = rng_u.random((4096, 10)), rng_z.standard_normal((4096, 2))
    want = []
    for (u0, u1, u2, u3, _, a, b, c, d, _), (zw, zh) in zip(u.tolist(), z.tolist()):
        w, h = 6.0 + 18.0 * u0, 6.0 + 18.0 * u1
        jw, jh = w * math.exp(0.15 * zw), h * math.exp(0.15 * zh)
        px = 30.0 + 40.0 * u2 + (0.25 + 0.5 * a) * ((w + jw) / 2) * (-1.0 if c < 0.5 else 1.0)
        py = 30.0 + 40.0 * u3 + (0.25 + 0.5 * b) * ((h + jh) / 2) * (-1.0 if d < 0.5 else 1.0)
        want.append((px - jw / 2, py - jh / 2, px + jw / 2, py + jh / 2))
    pred = gradients._sample_pairs(u, z, "partial")[:, :4]
    assert _hex(pred.ravel()) == _hex(np.ravel(want))


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
    # Most draws land in contact and are rejected, so pairs take many rounds.
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
def test_generate_dataset_matches_reference(config):
    ours, theirs = generate_dataset(config), reference.draw_dataset(config)
    for got, want in ((ours.predicted, theirs.predicted), (ours.target, theirs.target)):
        assert [_hex(b.corners()) for b in got] == [_hex(b.corners()) for b in want]
