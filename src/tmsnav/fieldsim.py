"""Quasi-static magnetic model of a figure-8 coil and inductive sensors.

Each wing is a circle of wire in the plane z = 0, counterclockwise about
+z. `b_field` moves the evaluation points into the coil frame with one
rigid transform and takes each wing's Biot-Savart line integral in its
centred frame, signed by its sense: the closed form of a circular loop,
from the complete elliptic integrals by the arithmetic-geometric mean. A
point within 0.1 mm of a wing's circle raises SingularEvaluation. Every
step works point by point, so a point's field does not depend on the rest
of its batch, and the pose products are fixed-order sums (`matmul3`), so
no value goes through BLAS or depends on its kernel. Coil and sensor
poses must be rigid.

Sensor flux is, by Stokes, the loop integral of the vector potential A (the
circle's closed form, from the same mean) around each winding's rim; a session
or a sweep puts every rim node of every axis and pose through one evaluation.
`peak_to_peak_voltages` gives each axis's peak-to-peak EMF, the flux
coefficient times the peak dI/dt of a one-cycle biphasic pulse, for
one sensor pose or many, given as rotation and translation arrays.
Everything is linear in current and turns by construction; geometry is
in millimeters, fields in tesla.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SingularEvaluation, ValidationError
from .fileio import bounded, check_bounds
from .transforms import RigidTransform, check_rigid, direction_length, matmul3

MU0 = 4e-7 * np.pi  # T*m/A
WIRE_CLEARANCE_MM = 0.1
RIM_NODES = 32  # per sensor winding, equally spaced on its rim
_RIM_ANGLES = 2.0 * np.pi * np.arange(RIM_NODES) / RIM_NODES
# sensor-frame column of each winding normal: primary z, then x and y
_AXIS_COLUMN = (2, 0, 1)
VOLTAGE_COLUMNS = ("primary_vpp", "secondary1_vpp", "secondary2_vpp")  # one per axis, as above


@dataclass(frozen=True)
class CoilModel:
    loop_radius_mm: float = bounded("(0, 1e6]", 35.0)
    loop_turns: int = bounded("[1, 1e6]", 9)  # per wing
    wing_center_offset_mm: float = bounded("[0, 1e6]", 35.0)  # wings at +/- offset along coil x
    segments_per_loop: int = bounded("[64, 1e6]", 256)  # unused: each wing is a true circle
    peak_current_a: float = bounded("(0, 1e6]", 5000.0)
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})
    # winding sense per wing; two opposed wings make the figure-8
    wing_senses: tuple[float, ...] = (1.0, -1.0)

    def __post_init__(self):
        check_bounds(self)
        if len(self.wing_senses) not in (1, 2) or any(s not in (1, -1) for s in self.wing_senses):
            raise ValueError("coil.wing_senses must list one or two wings, each 1 or -1")
        check_rigid(self.pose.to_matrix(), "coil matrix")

    @classmethod
    def single_loop(cls, loop_radius_mm: float = 35.0, loop_turns: int = 1,
                    segments_per_loop: int = 256, peak_current_a: float = 5000.0,
                    pose: RigidTransform | None = None) -> "CoilModel":
        """One centered wing; the axisymmetric reference configuration."""
        return cls(
            loop_radius_mm=loop_radius_mm,
            loop_turns=loop_turns,
            wing_center_offset_mm=0.0,
            segments_per_loop=segments_per_loop,
            peak_current_a=peak_current_a,
            pose=pose if pose is not None else RigidTransform.identity(),
            wing_senses=(1.0,),
        )

    def wing_offsets(self) -> tuple[float, ...]:
        # single-wing models sit on the pose origin
        if len(self.wing_senses) == 1:
            return (0.0,)
        return (-self.wing_center_offset_mm, self.wing_center_offset_mm)


class SensorKind(str, Enum):
    SENSOR_2D = "sensor_2d"
    SENSOR_3D = "sensor_3d"


@dataclass(frozen=True)
class SensorModel:
    kind: SensorKind = SensorKind.SENSOR_3D
    loop_radius_mm: float = bounded("(0, 1e6]", 7.5)
    turns_per_axis: int = bounded("[1, 1e6]", 10)
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})

    def __post_init__(self):
        check_bounds(self)
        check_rigid(self.pose.to_matrix(), "sensor matrix")

    @property
    def n_axes(self) -> int:
        return 1 if self.kind is SensorKind.SENSOR_2D else 3


@dataclass(frozen=True)
class PulseTrain:
    pulses_per_train: int = bounded("[1, 1e6]", 25)
    train_rate_hz: float = bounded("[1e-6, 1e9]", 5.0)
    intensity_fraction: float = bounded("[0, 1]", 0.30)  # fraction of maximum system output
    trains: int = bounded("[1, 1e4]", 20)
    inter_train_wait_s: float = bounded("(0, 1e6]", 10.0)
    pulse_frequency_hz: float = bounded("[1e-6, 1e9]", 4000.0)  # biphasic carrier

    __post_init__ = check_bounds


def b_field(coil: CoilModel, points, current_a: float | None = None) -> np.ndarray:
    """Magnetic field at one point (3,) or a batch (N, 3), in tesla.

    Biot-Savart field of both wings' circles at the given current (peak
    current by default), in the coil frame, each wing's closed form taken in
    its centred frame and signed by its sense (see `_wing_sum`). Points
    closer than 0.1 mm to a wing's circle raise SingularEvaluation.
    """
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    rot = coil.pose.rotation
    q = matmul3(p.reshape(-1, 3) - coil.pose.translation, rot)  # coil frame, mm
    out = _wings(coil, q, _wing_sum)
    current = coil.peak_current_a if current_a is None else current_a
    # r and dl in mm: the integral carries a factor 1e3 against SI units
    out = (MU0 * current * coil.loop_turns / (4.0 * np.pi) * 1e3) * matmul3(out, rot.T)
    return out[0] if single else out


def _wings(coil: CoilModel, q, integral) -> np.ndarray:
    """The wings' `integral`s at coil-frame points q, each in its centred frame, signed, summed."""
    out = np.zeros_like(q)
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        out += sense * integral(q - [offset, 0.0, 0.0], coil.loop_radius_mm)
    return out


def _wing_agm(q, a):
    """s, alpha2 = (s - a)^2 + z^2, beta2 = (s + a)^2 + z^2, m = 4 a s / beta2, t and
    K / 2 of the circle of radius a in z = 0 at points q, s their distance from its axis.

    The arithmetic-geometric mean of 1 and kc = sqrt(1 - m) (means A_k, B_k; c_0^2 = m,
    c_k = (A_{k-1} - B_{k-1}) / 2 = c_{k-1}^2 / (4 A_k)) gives K = pi / (2 A_inf) and
    t = sum over k >= 1 of 2^(k-1) (c_k / m)^2. A point within the clearance raises.
    """
    x, y, z = q.T
    s = np.sqrt(x * x + y * y)
    alpha2 = (s - a) ** 2 + z * z
    if (alpha2 < WIRE_CLEARANCE_MM**2).any():
        raise SingularEvaluation("evaluation point within 0.1 mm of the wire")
    four_as = (4.0 * a) * s
    beta2 = alpha2 + four_as
    m = four_as / beta2
    kc = np.sqrt(alpha2 / beta2)
    arith, geom = 0.5 * (1.0 + kc), np.sqrt(kc)
    quarter_m = 0.25 * m
    u = 0.25 / arith  # c_1 / m
    t = u * u
    for k in range(1, _agm_steps(a)):
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = quarter_m * u * u / arith
        t += 2.0**k * u * u
    return s, alpha2, beta2, m, t, (0.25 * np.pi) / arith


def _wing_sum(q, a) -> np.ndarray:
    """Line integral of dl x r / |r|^3 around one wing's circle at each point, (len(q), 3).

    q is in the wing's centred frame, the wire the circle of radius a in z = 0,
    counterclockwise about +z; the caller signs it by the wing's sense. With the terms
    of `_wing_agm`, it is 16 a^2 z G / (alpha2 beta2^1.5) * (x, y) across the axis and
    4 a / beta2^1.5 * (2 a D + 4 a s (a - s) G / alpha2) along it, D = (K - E) / m =
    K (1/2 + m t) and G = (E - kc^2 K - m kc^2 D) / m^2 = K (1/2 - (2 - m) t) being
    positive quarter-period integrals (of sin^2 / Delta and kc^2 sin^4 / Delta^3), so
    nothing cancels near the axis (the textbook form divides K - E terms by s).
    """
    x, y, z = q.T
    s, alpha2, beta2, m, t, k_half = _wing_agm(q, a)
    d = k_half * (1.0 + 2.0 * m * t)
    g = k_half * (1.0 - 2.0 * (2.0 - m) * t) / alpha2  # G / alpha2
    along = (4.0 * a) / (beta2 * np.sqrt(beta2))
    across = (4.0 * a) * z * g * along
    axial = along * ((2.0 * a) * d + ((4.0 * a) * s) * (a - s) * g)
    return np.stack([across * x, across * y, axial], axis=1)


def _wing_potential(q, a) -> np.ndarray:
    """Line integral of dl / |r| around one wing's circle at each point, (len(q), 3).

    Frame and sense as in `_wing_sum`: 4 a / beta (2 D - K) along the azimuth (Jackson,
    Classical Electrodynamics, 5.5) is 64 a^2 t (K/2) / beta2^1.5 * (-y, x, 0), no s.
    """
    _, _, beta2, _, t, k_half = _wing_agm(q, a)
    c = (64.0 * a * a) * t * k_half / (beta2 * np.sqrt(beta2))
    return np.stack([-c * q[:, 1], c * q[:, 0], np.zeros(len(q))], axis=1)


def _agm_steps(a) -> int:
    """AGM steps after which t and A_inf of every point clear of the wire are exact to rounding:
    c_k / m grows with m, and such a point has kc >= clearance / (2 a + clearance)."""
    kc = WIRE_CLEARANCE_MM / (2.0 * a + WIRE_CLEARANCE_MM)
    arith, geom, u, steps = 0.5 * (1.0 + kc), np.sqrt(kc), 0.5 / (1.0 + kc), 1
    while u > 1e-9:
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = (1.0 - kc * kc) * u * u / (4.0 * arith)
        steps += 1
    return steps


def _wire_meets_discs(coil: CoilModel, centres, normals, radius) -> np.ndarray:
    """Whether a wire crosses each disc or touches it within the clearance, (P, n_axes).

    Coil frame: centres (P, 1, 3), unit normals (P, n_axes, 3). With w a centre in a wing's
    frame, h = n . w and rho^2 = n_x^2 + n_y^2, the circle meets the disc's plane where
    slack >= 0, at a q within reach of w if |q - w|^2 = a^2 + |w|^2 - 2 q . w <= reach^2 (the
    lhs test is that times rho^2). A flat disc meets a circle passing within reach of w.
    """
    a, reach = coil.loop_radius_mm, radius + WIRE_CLEARANCE_MM
    nx, ny, nz = np.moveaxis(normals, -1, 0)
    w = centres - np.outer(coil.wing_offsets(), [1.0, 0.0, 0.0])[:, None, None]
    wx, wy, wz = np.moveaxis(w, -1, 0)  # (wings, P, 1)
    rho2, h = nx * nx + ny * ny, nx * wx + ny * wy + nz * wz
    slack = a * a * rho2 - h * h
    lhs = rho2 * (a * a + (w * w).sum(-1) - reach * reach) - 2.0 * h * (nx * wx + ny * wy)
    crosses = (slack >= 0.0) & (lhs <= 2.0 * np.sqrt(np.abs(slack)) * np.abs(nx * wy - ny * wx))
    flat = np.abs(wz) + radius * np.sqrt(rho2) <= WIRE_CLEARANCE_MM
    return np.where(flat, np.abs(np.hypot(wx, wy) - a) <= reach, crosses).any(axis=0)


def _flux_coefficients(coil: CoilModel, sensor: SensorModel, rotations, translations) -> np.ndarray:
    """Webers per ampere through each winding of `sensor` placed at each pose, (P, n_axes).

    The P poses, rotations and translations, replace `sensor.pose`, in the frame the
    coil's pose is given in. A rim node within the clearance of the wire, or a wire
    that meets a disc, raises SingularEvaluation; a flux that overflowed is left as is.
    """
    # each pose's sensor axes, as rows, and centre in the coil frame
    axes = matmul3(np.reshape(rotations, (-1, 3, 3)).transpose(0, 2, 1), coil.pose.rotation)
    centres = matmul3(np.reshape(translations, (-1, 1, 3)) - coil.pose.translation,
                      coil.pose.rotation)
    cols = np.array(_AXIS_COLUMN[:sensor.n_axes])
    u, v = np.eye(3)[(cols + 1) % 3, None], np.eye(3)[(cols + 2) % 3, None]  # each disc's span
    cos, sin = np.cos(_RIM_ANGLES)[:, None], np.sin(_RIM_ANGLES)[:, None]
    nodes = matmul3(sensor.loop_radius_mm * (cos * u + sin * v).reshape(-1, 3), axes) + centres
    potential = _wings(coil, nodes.reshape(-1, 3), _wing_potential).reshape(nodes.shape)
    loop = (potential * matmul3((cos * v - sin * u).reshape(-1, 3), axes)).sum(axis=2)
    # the trapezoid rule of A . dl: A is mu0 N / 4 pi times the loop integral, dl in mm -> m
    flux_wb = loop.reshape(len(axes), len(cols), RIM_NODES).sum(axis=2) * (
        MU0 * coil.loop_turns * 0.5e-3 * sensor.loop_radius_mm / RIM_NODES)
    if (_wire_meets_discs(coil, centres, axes[:, cols], sensor.loop_radius_mm)
            & np.isfinite(flux_wb)).any():
        raise SingularEvaluation("the coil's wire meets a sensor winding's disc")
    return flux_wb * sensor.turns_per_axis


def peak_to_peak_voltages(coil: CoilModel, sensor: SensorModel, rotations, translations,
                          train: PulseTrain) -> np.ndarray:
    """Per-axis peak-to-peak EMF of `sensor` placed at each pose, (P, n_axes).

    The poses are (P, 3, 3) rotations and (P, 3) translations, or one pose.
    I(t) = intensity * peak * sin(2 pi f t) over one biphasic cycle; EMF is
    -k dI/dt per axis, so the peak-to-peak is 2 * |k| * intensity * peak * 2 pi f.
    """
    rate = train.intensity_fraction * coil.peak_current_a * 2.0 * np.pi * train.pulse_frequency_hz
    return 2.0 * np.abs(_flux_coefficients(coil, sensor, rotations, translations)) * rate


def displacement_sweep(coil: CoilModel, sensor: SensorModel, direction,
                       offsets_mm, train: PulseTrain | None = None) -> dict:
    """Per-axis peak-to-peak voltage at each lateral sensor offset.

    Returns a CSV-ready table: one row per offset with primary and the two
    secondary axes (zeros for axes a 2D sensor does not have).
    """
    d = np.asarray(direction, dtype=float).reshape(3)
    d = d / direction_length(d, "sweep direction")
    offs = [float(x) for x in offsets_mm]
    if not offs or offs[0] != 0.0 or not all(b > a for a, b in zip(offs, offs[1:])):
        raise ValidationError("offsets must be sorted ascending starting at 0")
    train = train or PulseTrain()
    shifts = sensor.pose.translation + np.array(offs)[:, None] * d
    rotations = np.broadcast_to(sensor.pose.rotation, (len(offs), 3, 3))
    vpp = peak_to_peak_voltages(coil, sensor, rotations, shifts, train).tolist()
    rows = [(off, *(row + [0.0, 0.0])[:3]) for off, row in zip(offs, vpp)]
    return {"header": ["offset_mm", *VOLTAGE_COLUMNS], "rows": rows}
