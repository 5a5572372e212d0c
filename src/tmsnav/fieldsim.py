"""Quasi-static magnetic model of a figure-8 coil and inductive sensors.

Both wings share one regular N-gon of straight wire segments in the
plane z = 0, counterclockwise about +z. `b_field` moves the evaluation
points into the coil frame with one rigid transform and takes each
wing's Biot-Savart midpoint sum in its centred frame, signed by its
sense. Away from the wire that sum is a periodic trapezoid rule and
equals its closed-form limit to rounding: N tan(pi/N)/pi times the field
of the circle through the segment midpoints, from the complete elliptic
integrals by the arithmetic-geometric mean. Points near the wire are
summed over the segments from exact differences, and one within 0.1 mm
of any segment raises SingularEvaluation. Every step works point by
point, so a point's field does not depend on the rest of its batch, and
the pose products are fixed-order sums (`matmul3`), so no value goes
through BLAS or depends on its kernel. Coil and sensor poses must be
rigid.

Sensor flux is a polar quadrature of B over each winding disc. The nodes
of every axis and every sensor pose go through one `b_field` call, so a
holding session or a displacement sweep evaluates the field once.
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
from .transforms import RigidTransform, check_rigid, direction_length, matmul3

MU0 = 4e-7 * np.pi  # T*m/A
WIRE_CLEARANCE_MM = 0.1
MIN_SEGMENTS_PER_LOOP = 64
# a point whose integrand around an N-gon wing is analytic in a strip of
# half-width _FAR_STRIP / N (and that is clear of the wire) takes the wing's
# closed-form limit: the midpoint sum then differs from it by about
# exp(-_FAR_STRIP) relative, far below rounding (see _wing_sum)
_FAR_STRIP = 40.0
# cap on each point x segment temporary of the segment sum
_BLOCK_ELEMENTS = 2**14
# sensor-frame column of each winding normal: primary z, then x and y
_AXIS_COLUMN = (2, 0, 1)
VOLTAGE_COLUMNS = ("primary_vpp", "secondary1_vpp", "secondary2_vpp")  # one per axis, as above


@dataclass(frozen=True)
class CoilModel:
    loop_radius_mm: float = 35.0
    loop_turns: int = 9  # per wing
    wing_center_offset_mm: float = 35.0  # wings at +/- offset along coil x
    segments_per_loop: int = 256
    peak_current_a: float = 5000.0
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})
    # winding sense per wing; two opposed wings make the figure-8
    wing_senses: tuple[float, ...] = (1.0, -1.0)

    def __post_init__(self):
        if self.segments_per_loop < MIN_SEGMENTS_PER_LOOP:
            raise ValueError(f"segments_per_loop must be >= {MIN_SEGMENTS_PER_LOOP}")
        if len(self.wing_senses) not in (1, 2) or any(s not in (1, -1) for s in self.wing_senses):
            raise ValueError("coil.wing_senses must list one or two wings, each 1 or -1")
        if not self.loop_radius_mm > 0:
            raise ValueError("coil loop_radius_mm must be positive")
        if self.loop_turns < 1:
            raise ValueError("coil loop_turns must be >= 1")
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

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Segment midpoints and dl of one wing, (S, 3) each, in its centred frame (mm).

        The wing is a regular polygon in the z = 0 plane, traversed
        counterclockwise about +z; every wing shares it. A wing's offset, its
        sense and the pose are applied by the caller.
        """
        theta = np.linspace(0.0, 2.0 * np.pi, self.segments_per_loop + 1)
        ring = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        ring *= self.loop_radius_mm
        return 0.5 * (ring[:-1] + ring[1:]), ring[1:] - ring[:-1]


class SensorKind(str, Enum):
    SENSOR_2D = "sensor_2d"
    SENSOR_3D = "sensor_3d"


@dataclass(frozen=True)
class SensorModel:
    kind: SensorKind = SensorKind.SENSOR_3D
    loop_radius_mm: float = 7.5
    turns_per_axis: int = 10
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})

    def __post_init__(self):
        if not self.loop_radius_mm > 0:
            raise ValueError("sensor loop_radius_mm must be positive")
        if self.turns_per_axis < 1:
            raise ValueError("sensor turns_per_axis must be >= 1")
        check_rigid(self.pose.to_matrix(), "sensor matrix")

    @property
    def n_axes(self) -> int:
        return 1 if self.kind is SensorKind.SENSOR_2D else 3


@dataclass(frozen=True)
class PulseTrain:
    pulses_per_train: int = 25
    train_rate_hz: float = 5.0
    intensity_fraction: float = 0.30  # fraction of maximum system output
    trains: int = 20
    inter_train_wait_s: float = 10.0
    pulse_frequency_hz: float = 4000.0  # biphasic carrier

    def __post_init__(self):
        for name in ("pulses_per_train", "train_rate_hz", "trains",
                     "inter_train_wait_s", "pulse_frequency_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.intensity_fraction < 0:
            raise ValueError("intensity_fraction must be >= 0")


def b_field(coil: CoilModel, points, current_a: float | None = None) -> np.ndarray:
    """Magnetic field at one point (3,) or a batch (N, 3), in tesla.

    Discretized Biot-Savart midpoint sum over both wings at the given
    current (peak current by default), in the coil frame, each wing in its
    centred frame and signed by its sense. Away from a wing's wire the sum
    is its closed-form limit, which it equals to rounding; near the wire it
    is summed segment by segment (see `_wing_sum`). Points closer than
    0.1 mm to any wire segment raise SingularEvaluation.
    """
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    rot = coil.pose.rotation
    q = matmul3(p.reshape(-1, 3) - coil.pose.translation, rot)  # coil frame, mm
    out = np.zeros_like(q)
    mids, dls = coil.segments()
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        out += sense * _wing_sum(q - [offset, 0.0, 0.0], coil.loop_radius_mm, mids, dls)
    current = coil.peak_current_a if current_a is None else current_a
    # r and dl in mm: the sum carries a factor 1e3 against SI units
    out = (MU0 * current * coil.loop_turns / (4.0 * np.pi) * 1e3) * matmul3(out, rot.T)
    return out[0] if single else out


def _wing_sum(q, radius, mids, dls) -> np.ndarray:
    """Sum of dl x r / |r|^3 over one wing's N segments at each point, (len(q), 3).

    q is in the wing's centred frame; mids and dls traverse the wing
    counterclockwise, as `CoilModel.segments` gives them, and the caller
    signs the sum by the wing's sense. The midpoints lie at equal angles on
    the circle of radius a = R cos(pi/N), so the sum is N tan(pi/N) / pi
    times the N-point periodic trapezoid rule of that circle's line
    integral. At distance s from the axis and height z the integrand is
    analytic in the strip |Im angle| < acosh((s^2 + a^2 + z^2) / (2 s a)),
    and the rule's error falls as exp(-N times that half-width) (Trefethen &
    Weideman, SIAM Rev. 56(3), 2014). Points whose half-width is at least
    _FAR_STRIP / N, and that lie farther from the wire's circle than the
    clearance plus the polygon's sagitta (so no segment is within the
    clearance), take the closed form; the others take the segment sum and
    its clearance check.
    """
    n = len(mids)
    x, y, z = q.T
    s = np.sqrt(x * x + y * y)
    a = radius * np.cos(np.pi / n)
    alpha2 = (s - a) ** 2 + z * z
    # s^2 + a^2 + z^2 >= 2 s a cosh(T / N), as alpha^2 >= 2 s a (cosh(T / N) - 1)
    far = alpha2 >= (4.0 * a * np.sinh(0.5 * _FAR_STRIP / n) ** 2) * s
    gap = WIRE_CLEARANCE_MM + 2.0 * radius * np.sin(0.5 * np.pi / n) ** 2  # plus the sagitta
    far &= (s - radius) ** 2 + z * z > (gap * (1.0 + 1e-9)) ** 2
    scale = n * np.tan(np.pi / n) / np.pi
    if far.all():
        return _loop_sum(q, s, alpha2, a, n, scale)
    out = np.empty_like(q)
    out[far] = _loop_sum(q[far], s[far], alpha2[far], a, n, scale)
    out[~far] = _segment_sum(q[~far], mids, dls)
    return out


def _loop_sum(q, s, alpha2, a, n, scale) -> np.ndarray:
    """scale times the line integral of dl x r / |r|^3 around the circle of radius a in z = 0.

    s is each point's distance from the axis, alpha2 = (s - a)^2 + z^2 its
    squared distance from the circle's nearest point. With
    beta2 = (s + a)^2 + z^2, m = 4 a s / beta2 = 1 - kc^2 and the complete
    elliptic integrals K and E of parameter m, the integral is
        16 a^2 z G / (alpha2 beta2^1.5) * (x, y) across the axis and
        4 a / beta2^1.5 * (2 a D + 4 a s (a - s) G / alpha2) along it,
    where D = (K - E) / m and G = (E - kc^2 K - m kc^2 D) / m^2 are the
    integrals over a quarter period of sin^2 / Delta and kc^2 sin^4 / Delta^3,
    Delta^2 = 1 - m sin^2. Both are positive, so no difference of K and E
    cancels near the axis (the textbook form divides one by s). They come
    without a subtraction from the arithmetic-geometric mean of 1 and kc,
    the means A_k and B_k: with c_0^2 = m, c_k = (A_{k-1} - B_{k-1}) / 2 =
    c_{k-1}^2 / (4 A_k) and t the sum over k >= 1 of 2^(k-1) (c_k / m)^2,
    K = pi / (2 A_inf), D = K (1/2 + m t) and G = K (1/2 - (2 - m) t).
    """
    x, y, z = q.T
    four_as = (4.0 * a) * s
    beta2 = alpha2 + four_as
    m = four_as / beta2
    kc = np.sqrt(alpha2 / beta2)
    arith = 0.5 * (1.0 + kc)
    geom = np.sqrt(kc)
    quarter_m = 0.25 * m
    u = 0.25 / arith  # c_1 / m
    t = u * u
    for k in range(1, _agm_steps(n)):
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = quarter_m * u * u / arith
        t += 2.0**k * u * u
    k_half = (0.25 * np.pi) / arith  # K / 2
    d = k_half * (1.0 + 2.0 * m * t)
    g = k_half * (1.0 - 2.0 * (2.0 - m) * t) / alpha2  # G / alpha2
    along = (4.0 * a * scale) / (beta2 * np.sqrt(beta2))
    across = (4.0 * a) * z * g * along
    out = np.empty_like(q)
    out[:, 0] = across * x
    out[:, 1] = across * y
    out[:, 2] = along * ((2.0 * a) * d + four_as * (a - s) * g)
    return out


def _agm_steps(n) -> int:
    """AGM steps after which t and A_inf of every far point of an n-gon are exact to rounding.

    c_k / m grows with m, and a far point has kc >= tanh(_FAR_STRIP / (2 n)),
    so the steps that settle that kc settle all.
    """
    kc = np.tanh(0.5 * _FAR_STRIP / n)
    m = 1.0 - kc * kc
    arith, geom = 0.5 * (1.0 + kc), np.sqrt(kc)
    u, steps = 0.25 / arith, 1
    while u > 1e-9:
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = m * u * u / (4.0 * arith)
        steps += 1
    return steps


def _segment_sum(q, mids, dls) -> np.ndarray:
    """Midpoint sum of dl x r / |r|^3 over the segments at each point, (len(q), 3).

    r comes from exact differences and each row is reduced by itself, so a
    point's sum does not depend on the other points of its batch. Raises
    SingularEvaluation if a point lies within the clearance of a segment.
    """
    # contiguous rows: broadcasting against strided columns is much slower
    mx, my = np.ascontiguousarray(mids[:, :2].T)
    dlx, dly = np.ascontiguousarray(dls[:, :2].T)
    # a pair can only be within the clearance if its midpoint distance is
    # below half the segment length plus the clearance (padded for rounding)
    reach = (0.5 * np.hypot(dlx, dly) + WIRE_CLEARANCE_MM) * (1.0 + 1e-9)
    reach2 = reach * reach
    out = np.empty_like(q)
    block = max(1, _BLOCK_ELEMENTS // len(mids))
    for lo in range(0, len(q), block):
        qb = q[lo:lo + block]
        x, y, z = qb[:, :, None].transpose(1, 0, 2)
        rx = x - mx
        ry = y - my
        r2 = rx * rx + ry * ry + z * z
        rows, segs = np.nonzero(r2 < reach2)
        if len(rows):
            _check_clearance(qb[rows], mids[segs], dls[segs])
        inv3 = np.sqrt(r2)
        inv3 *= r2
        np.divide(1.0, inv3, out=inv3)
        # dl and the midpoints lie in z = 0: dl x r = (dly z, -dlx z, dlx ry - dly rx)
        out[lo:lo + block, 0] = z[:, 0] * (inv3 * dly).sum(axis=1)
        out[lo:lo + block, 1] = -z[:, 0] * (inv3 * dlx).sum(axis=1)
        out[lo:lo + block, 2] = ((dlx * ry - dly * rx) * inv3).sum(axis=1)
    return out


def _check_clearance(q, mids, dls) -> None:
    """Raise if any point q[i] lies within the clearance of segment i."""
    w = q - (mids - 0.5 * dls)
    t = np.clip((w * dls).sum(-1) / (dls * dls).sum(-1), 0.0, 1.0)
    nearest = w - t[:, None] * dls
    if ((nearest * nearest).sum(-1) < WIRE_CLEARANCE_MM**2).any():
        raise SingularEvaluation("evaluation point within 0.1 mm of a wire segment")


def _disc_nodes(sensor: SensorModel, n_radial: int, n_angular: int):
    """Equal-area polar quadrature nodes of each winding disc, sensor frame.

    Returns the nodes stacked axis by axis, (n_axes, n_radial * n_angular,
    3), and the common weight (mm^2).
    """
    rj = sensor.loop_radius_mm * np.sqrt((np.arange(n_radial) + 0.5) / n_radial)
    tk = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
    rr, tt = np.meshgrid(rj, tk, indexing="ij")
    u = (rr * np.cos(tt)).ravel()
    v = (rr * np.sin(tt)).ravel()
    local = np.zeros((sensor.n_axes, len(u), 3))
    for axis in range(sensor.n_axes):
        # the other two sensor axes span the winding disc
        col = _AXIS_COLUMN[axis]
        local[axis, :, (col + 1) % 3] = u
        local[axis, :, (col + 2) % 3] = v
    # a numpy power: one that overflows is inf, where a float's raises OverflowError
    weight = np.pi * np.float64(sensor.loop_radius_mm) ** 2 / (n_radial * n_angular)
    return local, weight


def _flux_coefficients(coil: CoilModel, sensor: SensorModel, rotations, translations,
                       n_radial: int = 8, n_angular: int = 16) -> np.ndarray:
    """Webers per ampere through each winding of `sensor` placed at each pose.

    Returns (P, n_axes). The P poses, rotations and translations, replace
    `sensor.pose`, in the frame the coil's pose is given in; the quadrature
    nodes of every pose and axis go through one b_field call.
    """
    rot = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    shift = np.asarray(translations, dtype=float).reshape(-1, 3)
    local, weight_mm2 = _disc_nodes(sensor, n_radial, n_angular)
    nodes = matmul3(local.reshape(-1, 3), rot.transpose(0, 2, 1)) + shift[:, None, :]
    b = b_field(coil, nodes.reshape(-1, 3), current_a=1.0).reshape(len(rot), *local.shape)
    normals = rot[:, :, list(_AXIS_COLUMN[:sensor.n_axes])].transpose(0, 2, 1)
    flux_wb = (b * normals[:, :, None, :]).sum(axis=3).sum(axis=2)
    return flux_wb * weight_mm2 * 1e-6 * sensor.turns_per_axis  # mm^2 -> m^2


def peak_to_peak_voltages(coil: CoilModel, sensor: SensorModel, rotations, translations,
                          train: PulseTrain) -> np.ndarray:
    """Per-axis peak-to-peak EMF of `sensor` placed at each pose, (P, n_axes).

    The poses are (P, 3, 3) rotations and (P, 3) translations, or one pose.
    I(t) = intensity * peak * sin(2 pi f t) over one biphasic cycle; EMF is
    -k dI/dt per axis, so the peak-to-peak is 2 * |k| * intensity * peak * 2 pi f.
    Every pose's nodes go through one b_field call.
    """
    rate = train.intensity_fraction * coil.peak_current_a * 2.0 * np.pi * train.pulse_frequency_hz
    return 2.0 * np.abs(_flux_coefficients(coil, sensor, rotations, translations)) * rate


def displacement_sweep(coil: CoilModel, sensor: SensorModel, direction,
                       offsets_mm, train: PulseTrain | None = None) -> dict:
    """Per-axis peak-to-peak voltage at each lateral sensor offset.

    Returns a CSV-ready table: one row per offset with primary and the
    two secondary axes (zeros for axes a 2D sensor does not have). Every
    offset's nodes go through one field evaluation.
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
