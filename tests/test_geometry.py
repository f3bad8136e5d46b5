import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from _oracles import vector_move_along_great_circle
from conftest import directions
from doatrack.errors import FeasibilityExhausted
from doatrack.geometry import (
    Direction,
    angles_of_unit_vector,
    angular_distance,
    move_along_great_circle,
    pairwise_angular_distance,
    perturb_direction,
    sample_direction,
    sample_separated_set,
    unit_vectors_from_angles,
    unit_xyz,
)


@given(directions())
def test_identical_directions_have_zero_distance(d):
    assert angular_distance(d, d) == 0.0


def test_antipodal_directions_are_pi_apart():
    a = Direction(0.0, 0.0)
    b = Direction(math.pi, 0.0)
    assert angular_distance(a, b) == pytest.approx(math.pi, abs=1e-12)


def test_orthogonal_directions_are_half_pi_apart():
    a = Direction(0.0, 0.0)
    b = Direction(math.pi / 2, 0.0)
    assert angular_distance(a, b) == pytest.approx(math.pi / 2, abs=1e-12)


@given(directions())
def test_unit_vector_round_trip(d):
    v = unit_xyz(d.azimuth, d.elevation)
    assert abs(math.hypot(*v) - 1.0) < 1e-12
    back = angles_of_unit_vector(*v)
    # chord length bounds the angular deviation for small separations
    assert math.dist(unit_xyz(*back), v) < 1e-12


@given(st.lists(directions(), max_size=8))
def test_unit_vectors_from_angles_equal_unit_xyz_bit_for_bit(ds):
    units = unit_vectors_from_angles([d.azimuth for d in ds], [d.elevation for d in ds])
    assert units.shape == (len(ds), 3)
    for row, d in zip(units, ds):
        assert row.tobytes() == np.array(unit_xyz(d.azimuth, d.elevation)).tobytes()


def test_azimuth_wraps_into_range():
    d = Direction(3 * math.pi / 2, 0.1)
    assert -math.pi <= d.azimuth < math.pi
    assert angular_distance(d, Direction(-math.pi / 2, 0.1)) < 1e-12


def test_elevation_out_of_range_rejected():
    with pytest.raises(ValueError):
        Direction(0.0, 2.0)


def test_nan_azimuth_rejected():
    with pytest.raises(ValueError, match="NaN"):
        Direction(math.nan, 0.0)


@given(directions(), directions())
def test_distance_symmetric(a, b):
    assert angular_distance(a, b) == pytest.approx(angular_distance(b, a), abs=1e-15)
    assert 0.0 <= angular_distance(a, b) <= math.pi


@given(directions(), directions(), directions())
def test_triangle_inequality(a, b, c):
    assert angular_distance(a, c) <= (
        angular_distance(a, b) + angular_distance(b, c) + 1e-9
    )


def _rotation_matrix(axis, angle):
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


@given(
    directions(),
    directions(),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(0.1, 1),
    st.floats(0, 2 * math.pi),
)
def test_distance_invariant_under_common_rotation(a, b, ax, ay, az, angle):
    rot = _rotation_matrix(np.array([ax, ay, az + 1.5]), angle)
    ra, rb = (
        Direction(*angles_of_unit_vector(*(rot @ unit_xyz(d.azimuth, d.elevation)).tolist()))
        for d in (a, b)
    )
    assert angular_distance(ra, rb) == pytest.approx(angular_distance(a, b), abs=1e-9)


def test_stacked_pairwise_distance_equals_separate_calls_bit_for_bit():
    rng = np.random.default_rng(4)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for n in range(1, 5):
        for m in range(1, 5):
            for k in (1, 3, 200):
                v = rng.normal(size=(k, n + m, 3))
                v /= np.linalg.norm(v, axis=-1, keepdims=True)
                v[: k // 2, 0] = v[: k // 2, -1]  # duplicate directions
                v[1::3, -1] = poles[0]
                v[2::3, 0] = poles[1]
                ua, ub = v[:, :n], v[:, n:]
                stacked = pairwise_angular_distance(ua, ub)
                assert stacked.shape == (k, n, m)
                for i in range(k):
                    single = pairwise_angular_distance(ua[i], ub[i])
                    assert stacked[i].tobytes() == single.tobytes()
                    # the np.cross / np.linalg.norm form of _oracles._frame_distances
                    cross = np.cross(ua[i][:, None, :], ub[i][None, :, :])
                    plain = np.arctan2(np.linalg.norm(cross, axis=2), ua[i] @ ub[i].T)
                    assert single.tobytes() == plain.tobytes()


def test_sample_direction_deterministic_per_seed():
    a = sample_direction(np.random.default_rng(42))
    b = sample_direction(np.random.default_rng(42))
    assert a == b


def test_sample_direction_uniform_statistics():
    rng = np.random.default_rng(123)
    n = 100_000
    az = rng.uniform(-math.pi, math.pi, n)
    el = np.arcsin(rng.uniform(-1.0, 1.0, n))
    # vectorized mirror of sample_direction's construction
    vecs = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1
    )
    assert np.linalg.norm(vecs.mean(axis=0)) < 0.02
    assert abs(np.mean(el > 0) - 0.5) < 0.01


def test_separated_set_singleton():
    out = sample_separated_set(1, math.radians(170), np.random.default_rng(0))
    assert len(out) == 1


def test_separated_set_six_at_sixty_degrees():
    rng = np.random.default_rng(7)
    out = sample_separated_set(6, math.radians(60.0), rng)
    assert len(out) == 6
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert len(pairs) == 15
    for i, j in pairs:
        assert angular_distance(out[i], out[j]) >= math.radians(60.0)


def test_separated_set_infeasible_raises():
    with pytest.raises(FeasibilityExhausted):
        sample_separated_set(
            3, math.radians(179.9), np.random.default_rng(1), max_attempts=50
        )


@pytest.mark.parametrize("n, min_sep", [(0, 1.0), (2, 0.0), (2, math.nextafter(math.pi, 4))])
def test_separated_set_refuses_bad_arguments(n, min_sep):
    with pytest.raises(ValueError):
        sample_separated_set(n, min_sep, np.random.default_rng(0))


def test_separated_set_deterministic_per_seed():
    a = sample_separated_set(4, math.radians(40), np.random.default_rng(9))
    b = sample_separated_set(4, math.radians(40), np.random.default_rng(9))
    assert a == b


def test_great_circle_constant_step():
    heading = 1.1
    step = math.radians(2.0)
    points = [
        Direction(*move_along_great_circle(0.4, -0.3, heading, k * step)) for k in range(50)
    ]
    for a, b in zip(points, points[1:]):
        assert angular_distance(a, b) == pytest.approx(step, abs=1e-9)


_POLES = (-math.pi / 2, math.pi / 2)


@settings(max_examples=500)
@given(
    st.one_of(st.sampled_from((-math.pi, -0.0, 0.0)), st.floats(-math.pi, math.pi, exclude_max=True)),
    st.one_of(st.sampled_from((*_POLES, -0.0, 0.0)), st.floats(-math.pi / 2, math.pi / 2)),
    st.one_of(st.sampled_from((0.0, math.pi / 2, math.pi)), st.floats(0.0, 2 * math.pi)),
    st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi)),
)
@example(-math.pi, math.pi / 2, 0.0, 0.0)
@example(-math.pi, -math.pi / 2, math.pi, math.pi)
@example(-math.pi, 0.0, math.pi / 2, math.pi)
@example(0.0, math.pi / 2, 1.0, 0.5)
def test_float_walk_equals_the_vector_walk_bit_for_bit(azimuth, elevation, heading, arc):
    # the float walk does per component what the (3,)-array walk does,
    # down to the sign of a zero angle
    got = move_along_great_circle(azimuth, elevation, heading, arc)
    ref = vector_move_along_great_circle(Direction(azimuth, elevation), heading, arc)
    for a, b in zip(got, (ref.azimuth, ref.elevation)):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_perturb_magnitude_matches_folded_normal_mean():
    rng = np.random.default_rng(11)
    sigma = math.radians(5.0)
    base = Direction(0.2, 0.5)
    devs = [
        angular_distance(base, Direction(*perturb_direction(0.2, 0.5, sigma, rng)))
        for _ in range(10_000)
    ]
    expected = sigma * math.sqrt(2 / math.pi)
    assert abs(np.mean(devs) - expected) / expected < 0.15


def test_perturb_zero_sigma_is_identity():
    rng = np.random.default_rng(3)
    assert perturb_direction(1.0, 0.2, 0.0, rng) == (1.0, 0.2)
