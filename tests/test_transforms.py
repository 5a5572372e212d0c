import numpy as np
import pytest

from tmsnav.transforms import (
    RigidTransform,
    compose,
    invert,
    orthonormality_error,
    rotation_about_axis,
    rotation_angle,
)

from conftest import random_transform


def rz(deg):
    return rotation_about_axis([0, 0, 1], np.deg2rad(deg))


def test_compose_identity():
    rng = np.random.default_rng(1)
    t = random_transform(rng)
    out = compose(RigidTransform.identity(), t)
    np.testing.assert_array_equal(out.rotation, t.rotation)
    np.testing.assert_array_equal(out.translation, t.translation)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_transform(rng)
        ident = compose(t, invert(t))
        assert np.abs(ident.rotation - np.eye(3)).max() <= 1e-12
        assert np.linalg.norm(ident.translation) <= 1e-12


def test_compose_axis_aligned():
    a = RigidTransform(rz(90.0), [1.0, 0.0, 0.0])
    b = RigidTransform(rz(90.0), [0.0, 0.0, 0.0])
    out = compose(a, b)
    np.testing.assert_allclose(out.rotation, rz(180.0), atol=1e-15)
    np.testing.assert_allclose(out.translation, [1.0, 0.0, 0.0], atol=1e-15)


def test_invert_identity_and_translation():
    ident = invert(RigidTransform.identity())
    np.testing.assert_array_equal(ident.rotation, np.eye(3))
    np.testing.assert_array_equal(ident.translation, np.zeros(3))

    t = invert(RigidTransform(np.eye(3), [1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(t.translation, [-1.0, -2.0, -3.0])


def test_invert_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = random_transform(rng)
        back = invert(invert(t))
        assert np.abs(back.rotation - t.rotation).max() <= 1e-12
        assert np.linalg.norm(back.translation - t.translation) <= 1e-12


def test_rotations_stay_orthonormal_under_long_chains():
    rng = np.random.default_rng(4)
    t = random_transform(rng)
    acc = RigidTransform.identity()
    for _ in range(2000):
        acc = compose(acc, t)
    assert orthonormality_error(acc.rotation) <= 1e-9
    assert np.linalg.det(acc.rotation) == pytest.approx(1.0, abs=1e-9)


def test_matrix_round_trip():
    rng = np.random.default_rng(5)
    t = random_transform(rng)
    back = RigidTransform.from_matrix(t.to_matrix())
    np.testing.assert_array_equal(back.rotation, t.rotation)
    np.testing.assert_array_equal(back.translation, t.translation)


def test_apply_matches_matrix_product():
    rng = np.random.default_rng(6)
    t = random_transform(rng)
    pts = rng.normal(size=(10, 3))
    expected = (t.rotation @ pts.T).T + t.translation
    np.testing.assert_allclose(t.apply(pts), expected, atol=1e-12)
    np.testing.assert_allclose(t.apply(pts[0]), expected[0], atol=1e-12)


def test_rotation_angle_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.pi)
        r = rotation_about_axis(axis, angle)
        assert rotation_angle(r) == pytest.approx(angle, abs=1e-9)
