"""Rigid-transform algebra.

A RigidTransform is a 3x3 rotation plus a 3-vector translation in
millimeters; it is the currency passed between every other module.
Transforms compose right-to-left: ``compose(a, b)`` applies ``b`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Rotation drift beyond this triggers re-orthonormalization on compose.
ORTHO_DRIFT_TOL = 1e-12
RIGID_TOL = 1e-6  # max orthonormality error of a rotation read from outside


def as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3).copy()
    a.setflags(write=False)
    return a


def _as_mat3(m) -> np.ndarray:
    a = np.asarray(m, dtype=float).reshape(3, 3).copy()
    a.setflags(write=False)
    return a


def orthonormality_error(rotation: np.ndarray) -> float:
    """Max-norm deviation of R^T R from the identity."""
    return float(np.abs(rotation.T @ rotation - np.eye(3)).max())


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Nearest proper rotation in the Frobenius sense (via SVD)."""
    u, _, vt = np.linalg.svd(rotation)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, -1] *= -1.0
        r = u @ vt
    return r


def check_rigid(matrix, what: str) -> None:
    """Reject a 4x4 matrix unless finite, bottom row [0, 0, 0, 1], rotation proper."""
    m = np.asarray(matrix, dtype=float).reshape(4, 4)
    if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
        raise ValidationError(f"{what}: bottom row must be [0, 0, 0, 1], got {m[3].tolist()}")
    err = orthonormality_error(m[:3, :3]) if np.isfinite(m).all() else np.nan
    if not (err <= RIGID_TOL and np.linalg.det(m[:3, :3]) > 0.0):
        raise ValidationError(f"{what} is not rigid: the rotation must be orthonormal "
                              f"within {RIGID_TOL:g} (error {err:.3g}) with determinant +1, "
                              "and every value finite")


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
        """Build from a rigid 4x4 homogeneous matrix (row-major), checked as rigid."""
        m = np.asarray(matrix, dtype=float).reshape(4, 4)
        check_rigid(m, "matrix")
        return cls(m[:3, :3], m[:3, 3])

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition applying b first, then a."""
    r = a.rotation @ b.rotation
    if orthonormality_error(r) > ORTHO_DRIFT_TOL:
        r = orthonormalize(r)
    t = a.rotation @ b.translation + a.translation
    return RigidTransform(r, t)


def invert(t: RigidTransform) -> RigidTransform:
    r = t.rotation.T
    return RigidTransform(r, -(r @ t.translation))


def rotation_about_axis(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def rotation_angle(rotation: np.ndarray) -> float:
    """Angle-axis angle of a rotation matrix, in [0, pi].

    Evaluates acos((trace - 1) / 2) in atan2 form using the skew part,
    which stays accurate where the bare arccos loses half the significant
    digits (angles near 0 and pi).
    """
    r = rotation
    s = 0.5 * np.sqrt(
        (r[2, 1] - r[1, 2]) ** 2 + (r[0, 2] - r[2, 0]) ** 2 + (r[1, 0] - r[0, 1]) ** 2
    )
    c = 0.5 * (np.trace(r) - 1.0)
    return float(np.arctan2(s, c))
