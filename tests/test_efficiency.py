import math

import pytest

from ghzpurify import EfficiencyParams, p_one, p_two, ratio_R, sweep


def params(**overrides):
    base = dict(eta_d=0.9, eta_c=0.95, L=25.0, L0=25.0, N=3, p1=1.0)
    base.update(overrides)
    return EfficiencyParams(**base)


def test_p_one_ideal():
    assert p_one(params(eta_d=1.0, eta_c=1.0, L=0.0)) == pytest.approx(1.0)


def test_p_one_reference_point():
    value = p_one(params())
    expected = math.exp(-3.0) * 0.9**3 * 0.95**3
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(0.0311182, abs=1e-6)


def test_p_one_exponent_law():
    base = p_one(params(L=30.0))
    doubled = p_one(params(L=60.0))
    assert doubled == pytest.approx(base * math.exp(-3 * 30.0 / 25.0), rel=1e-12)


def test_p_two_ideal_quarter():
    assert p_two(params(eta_d=1.0, eta_c=1.0, L=0.0)) == pytest.approx(0.25)


def test_p_two_reference_point():
    assert p_two(params()) == pytest.approx((math.exp(-1.0) * 0.855) ** 6 / 4.0, rel=1e-15)
    assert p_two(params()) == pytest.approx(2.4210e-4, abs=5e-8)


def test_p_two_algebraic_identity():
    for p1 in (0.3, 0.62, 1.0):
        for L in (10.0, 40.0):
            point = params(p1=p1, L=L, N=4)
            assert p_two(point) == pytest.approx(p_one(point) ** 2 / (4.0 * p1), rel=1e-12)


def test_ratio_ideal():
    for n in (2, 3, 6):
        assert ratio_R(params(eta_d=1.0, eta_c=1.0, L=0.0, N=n)) == pytest.approx(4.0)


def test_ratio_reference_points():
    long_haul = ratio_R(params(N=6, L=100.0))
    assert long_haul == pytest.approx(4.0 / (math.exp(-4.0) * 0.9 * 0.95) ** 6, rel=1e-15)
    assert long_haul > 1e10
    assert long_haul == pytest.approx(2.71e11, rel=5e-3)
    assert ratio_R(params()) == pytest.approx(128.5, rel=1e-3)


def test_ratio_cancels_p1():
    assert ratio_R(params(p1=0.1)) == ratio_R(params(p1=0.97))


def test_ratio_times_p_two_equals_p_one():
    for n in (2, 3, 6):
        for L in (20.0, 60.0, 100.0):
            point = params(N=n, L=L, p1=0.62)
            assert ratio_R(point) * p_two(point) == pytest.approx(p_one(point), rel=1e-12)


def test_ratio_not_finite_raises():
    with pytest.raises(ValueError, match="not finite"):
        ratio_R(params(eta_d=0.0))
    with pytest.raises(ValueError, match="not finite"):
        ratio_R(params(N=2, L=8880.0))  # (eta_t eta_d eta_c)^2 is subnormal, 4 / it overflows
    assert math.isfinite(ratio_R(params(N=2, L=8000.0)))


def test_ratio_exceeds_one_for_lossy_links():
    for n in (2, 4, 8):
        assert ratio_R(params(N=n, L=5.0)) > 1.0


def test_sweep_distance():
    rows = sweep(params(N=6), "L", 20.0, 100.0, 1.0)
    assert len(rows) == 81
    assert rows[0][0] == 20.0 and rows[-1][0] == 100.0
    values = [r for _, r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_photon_number():
    rows = sweep(params(), "N", 2, 10, 1)
    values = [r for _, r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_n6_dominates_n3():
    low = dict(sweep(params(N=3), "L", 20.0, 100.0, 5.0))
    high = dict(sweep(params(N=6), "L", 20.0, 100.0, 5.0))
    assert all(high[L] > low[L] for L in low)


def test_sweep_single_point():
    rows = sweep(params(), "L", 25.0, 25.0, 1.0)
    assert rows == [(25.0, ratio_R(params()))]


def test_sweep_errors():
    with pytest.raises(ValueError, match="axis"):
        sweep(params(), "Q", 0.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        sweep(params(), "L", 50.0, 20.0)
    with pytest.raises(ValueError, match="step"):
        sweep(params(), "L", 20.0, 50.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError, match="eta_d"):
        params(eta_d=1.2)
    with pytest.raises(ValueError, match="attenuation"):
        params(L0=0.0)
    with pytest.raises(ValueError, match="photon count"):
        params(N=1)
    with pytest.raises(ValueError, match="distance"):
        params(L=-1.0)
    with pytest.raises(ValueError, match="p1"):
        params(p1=1.01)


def test_eta_t_derivation():
    assert params(L=50.0).eta_t == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert params(L=0.0).eta_t == 1.0
