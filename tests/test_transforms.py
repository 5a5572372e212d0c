import numpy as np
import pytest

from tmsnav.errors import ValidationError
from tmsnav.transforms import (
    ORTHO_DRIFT_TOL,
    RIGID_TOL,
    RigidTransform,
    compose,
    invert,
    matmul3,
    orthonormality_error,
    orthonormalize,
    rotation_about_axis,
    rotation_angle,
)

from conftest import oracle_orthonormalize, random_rotation, random_transform


def rz(deg):
    return rotation_about_axis([0, 0, 1], np.deg2rad(deg))


def scalar_product(a, b):
    """a @ b for a (m, 3) and b (3, n), each entry summed (a0*b0 + a1*b1) + a2*b2 in Python floats."""
    return np.array([[(float(a[i, 0]) * float(b[0, j]) + float(a[i, 1]) * float(b[1, j]))
                      + float(a[i, 2]) * float(b[2, j]) for j in range(b.shape[1])]
                     for i in range(a.shape[0])])


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


def drifted(rotation, error, rng):
    """`rotation` plus a random perturbation scaled so its orthonormality error is `error`."""
    step = rng.normal(size=(3, 3))
    for _ in range(3):  # the error is about linear in the step: rescale it to the target
        step *= error / orthonormality_error(rotation + step)
    return rotation + step


def test_orthonormalize_matches_the_svd_oracle():
    rng = np.random.default_rng(10)
    for error in 10.0 ** rng.uniform(-12.0, -6.0, size=500):
        x = drifted(random_rotation(rng), error, rng)
        r = orthonormalize(x)
        assert np.abs(r - oracle_orthonormalize(x)).max() <= 1e-14
        assert orthonormality_error(r) <= 1e-15


def test_orthonormalize_at_the_rigid_bound():
    # about the most drift check_rigid accepts: a scaled, a sheared and a randomly
    # drifted rotation, each 0.999 RIGID_TOL off orthonormal
    rng = np.random.default_rng(11)
    r, error = random_rotation(rng), 0.999 * RIGID_TOL
    shear = np.eye(3)
    shear[0, 1] = error
    for x in (r * np.sqrt(1.0 + error), matmul3(r, shear), drifted(r, error, rng)):
        assert 0.99 * RIGID_TOL <= orthonormality_error(x) <= RIGID_TOL
        read = RigidTransform.from_matrix(np.r_[np.c_[x, [1.0, 2.0, 3.0]], [[0, 0, 0, 1]]])
        assert orthonormality_error(read.rotation) <= 1e-15
        np.testing.assert_array_equal(read.rotation, orthonormalize(x))
        assert np.abs(read.rotation - oracle_orthonormalize(x)).max() <= 1e-14
    with pytest.raises(ValidationError, match="not rigid"):
        RigidTransform.from_matrix(np.diag([1.0 + RIGID_TOL, 1.0, 1.0, 1.0]))


def test_from_matrix_keeps_a_rotation_within_the_drift_tolerance_bitwise():
    rng = np.random.default_rng(12)
    for error in (0.0, 1e-15, 1e-13, 0.99 * ORTHO_DRIFT_TOL):
        x = drifted(random_rotation(rng), error, rng) if error else random_rotation(rng)
        assert orthonormality_error(x) <= ORTHO_DRIFT_TOL
        read = RigidTransform.from_matrix(np.r_[np.c_[x, np.zeros(3)], [[0, 0, 0, 1]]])
        np.testing.assert_array_equal(read.rotation, x)


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


# --- matmul3: fixed-order sums, checked bit for bit against the scalar sums -----------

@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 3), (3, 3)),
    ((7, 3), (3, 3)),
    ((5, 3, 3), (3, 3)),
    ((3, 3), (5, 3, 3)),
    ((5, 7, 3), (3, 3)),
    ((7, 3), (5, 3, 3)),
    ((4, 1, 3, 3), (1, 5, 3, 3)),
    ((2, 1, 7, 3), (4, 3, 3)),
])
def test_matmul3_equals_the_left_to_right_scalar_sums(a_shape, b_shape):
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=a_shape) * 100.0, rng.normal(size=b_shape)
    out = matmul3(a, b)
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    assert out.shape == (*batch, a_shape[-2], b_shape[-1])
    a, b = np.broadcast_to(a, (*batch, *a_shape[-2:])), np.broadcast_to(b, (*batch, *b_shape[-2:]))
    for i in np.ndindex(*batch):
        np.testing.assert_array_equal(out[i], scalar_product(a[i], b[i]))


def test_compose_invert_apply_equal_the_scalar_sums():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = random_transform(rng), random_transform(rng)
        pts = rng.uniform(-100.0, 100.0, size=(6, 3))
        out = compose(a, b)
        np.testing.assert_array_equal(out.rotation, scalar_product(a.rotation, b.rotation))
        np.testing.assert_array_equal(
            out.translation, scalar_product(a.rotation, b.translation[:, None])[:, 0] + a.translation)
        inv = invert(a)
        np.testing.assert_array_equal(inv.rotation, a.rotation.T)
        np.testing.assert_array_equal(
            inv.translation, -scalar_product(a.rotation.T, a.translation[:, None])[:, 0])
        expected = scalar_product(pts, a.rotation.T) + a.translation
        np.testing.assert_array_equal(a.apply(pts), expected)
        np.testing.assert_array_equal(a.apply(pts[0]), expected[0])
