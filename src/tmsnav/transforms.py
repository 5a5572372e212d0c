"""Rigid-transform algebra.

A RigidTransform is a 3x3 rotation plus a 3-vector translation in
millimeters; it is the currency passed between every other module.
Transforms compose right-to-left: ``compose(a, b)`` applies ``b`` first.
Every 3x3 product, in ``compose``, ``invert`` and ``apply`` too, is a
``matmul3`` fixed-order sum, and so is ``orthonormalize``: no BLAS or LAPACK
routine picks the rounding. A rotation is made orthonormal once, when
``from_matrix`` reads it; nothing downstream repairs drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ORTHO_DRIFT_TOL = 1e-12  # from_matrix orthonormalizes a rotation read more than this off
RIGID_TOL = 1e-6  # max orthonormality error of a rotation read from outside


def as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3).copy()
    a.setflags(write=False)
    return a


def direction_length(d: np.ndarray, what: str) -> float:
    """|d| of a finite 3-vector as the fixed-order sqrt(x*x + y*y + z*z), where |d|^2 must be a
    finite normal float: else d / |d| is not a unit vector, or not to full precision."""
    x, y, z = d.tolist()  # Python floats: an overflow is inf, with no warning
    length2 = x * x + y * y + z * z
    if not np.finfo(float).tiny <= length2 < np.inf:
        raise ValidationError(f"{what} must not be zero, and its squared length must be "
                              f"a finite normal float: {d.tolist()}")
    return float(np.sqrt(length2))


def _as_mat3(m) -> np.ndarray:
    a = np.asarray(m, dtype=float).reshape(3, 3).copy()
    a.setflags(write=False)
    return a


def matmul3(a, b) -> np.ndarray:
    """a @ b over an inner axis of 3, for a (..., m, 3) and b (..., 3, n) with broadcast batch axes.

    The three products are summed left to right, so no BLAS kernel picks the
    rounding. A 3x3 times a 3x3, or rows of 3-vectors (m, 3) times a 3x3, with
    one or the other a stack. The sums run along a's rows, so the result is
    the transpose of a contiguous (..., n, m) array.
    """
    at = np.ascontiguousarray(np.swapaxes(np.asarray(a, dtype=float), -1, -2))[..., None, :, :]
    bt = np.swapaxes(np.asarray(b, dtype=float), -1, -2)[..., None]
    out = at[..., 0, :] * bt[..., 0, :]
    term = at[..., 1, :] * bt[..., 1, :]
    out += term
    np.multiply(at[..., 2, :], bt[..., 2, :], out=term)
    out += term
    return np.swapaxes(out, -1, -2)


def orthonormality_error(rotation: np.ndarray):
    """Max-norm deviation of R^T R from the identity, per rotation of a (..., 3, 3) stack."""
    return np.abs(matmul3(np.swapaxes(rotation, -1, -2), rotation) - np.eye(3)).max(axis=(-2, -1))


def _cofactors(r: np.ndarray) -> tuple[np.ndarray, float]:
    """det(r) r^-T as the cofactor rows r1 x r2, r2 x r0, r0 x r1, and det(r) = r0 . (r1 x r2)."""
    c = np.cross(r[[1, 2, 0]], r[[2, 0, 1]])
    return c, r[0, 0] * c[0, 0] + r[0, 1] * c[0, 1] + r[0, 2] * c[0, 2]


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Nearest rotation (Frobenius) to a 3x3 with det > 0 within RIGID_TOL of orthonormal: two
    Newton steps X <- (X + X^-T) / 2 to its polar factor (Higham 1986), each squaring the drift."""
    for _ in range(2):
        c, det = _cofactors(rotation)
        rotation = 0.5 * (rotation + c / det)
    return rotation


def check_rigid(matrix, what: str) -> float:
    """Reject a 4x4 matrix unless finite, bottom row [0, 0, 0, 1], rotation proper; return the
    rotation's orthonormality error."""
    m = np.asarray(matrix, dtype=float).reshape(4, 4)
    if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
        raise ValidationError(f"{what}: bottom row must be [0, 0, 0, 1], got {m[3].tolist()}")
    err = orthonormality_error(m[:3, :3]) if np.isfinite(m).all() else np.nan
    if not (err <= RIGID_TOL and _cofactors(m[:3, :3])[1] > 0.0):
        raise ValidationError(f"{what} is not rigid: the rotation must be orthonormal "
                              f"within {RIGID_TOL:g} (error {err:.3g}) with determinant +1, "
                              "and every value finite")
    return err


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray  # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,), mm

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_mat3(self.rotation))
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix) -> "RigidTransform":
        """Build from a 4x4 homogeneous matrix (row-major), checked as rigid, made orthonormal."""
        m = np.asarray(matrix, dtype=float).reshape(4, 4)
        r = m[:3, :3]
        return cls(orthonormalize(r) if check_rigid(m, "matrix") > ORTHO_DRIFT_TOL else r, m[:3, 3])

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return matmul3(p.reshape(-1, 3), self.rotation.T).reshape(p.shape) + self.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition applying b first, then a."""
    m = matmul3(a.rotation, np.column_stack([b.rotation, b.translation]))  # a.R [b.R | b.t]
    return RigidTransform(m[:, :3], m[:, 3] + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    return RigidTransform(t.rotation.T, -matmul3(t.translation[None], t.rotation)[0])


def rotation_about_axis(axis, angle_rad) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis; (..., 3) axes and (...) angles."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    if (n == 0.0).any():
        raise ValueError("rotation axis must be nonzero")
    x, y, z = np.moveaxis(a / n, -1, 0)
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(*x.shape, 3, 3)
    angle = np.asarray(angle_rad, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * matmul3(k, k)


def rotation_angle(rotation: np.ndarray):
    """Angle-axis angle of a rotation matrix, in [0, pi], per rotation of a (..., 3, 3) stack.

    Evaluates acos((trace - 1) / 2) in atan2 form using the skew part,
    which stays accurate where the bare arccos loses half the significant
    digits (angles near 0 and pi).
    """
    r = np.asarray(rotation, dtype=float)
    s = 0.5 * np.sqrt((r[..., 2, 1] - r[..., 1, 2]) ** 2 + (r[..., 0, 2] - r[..., 2, 0]) ** 2
                      + (r[..., 1, 0] - r[..., 0, 1]) ** 2)
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(s, c)
