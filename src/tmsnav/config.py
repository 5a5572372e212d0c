"""Project configuration: one JSON document tying a session together.

The document mirrors `ProjectConfig` and its sections and is read by
`fileio.parse`, so unknown keys and malformed values are rejected with
the key path. Paths are resolved relative to the config file. Only the
sections a command actually needs are required to be present; anything
present must exist and parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .fieldsim import CoilModel, PulseTrain, SensorModel
from .fileio import parse, read_json
from .mesh import TriangleMesh, load_stl
from .registration import ICP_ACCEPT_MM, PAIRPOINT_ACCEPT_MM, IcpConfig
from .transforms import RigidTransform


@dataclass(frozen=True)
class Calibration:
    e_to_cr: RigidTransform | None = None
    cr_to_c: RigidTransform | None = None


@dataclass(frozen=True)
class RegistrationSettings(IcpConfig):
    """The ICP settings plus the two acceptance thresholds."""
    pairpoint_threshold_mm: float = PAIRPOINT_ACCEPT_MM
    icp_threshold_mm: float = ICP_ACCEPT_MM

    def __post_init__(self):
        super().__post_init__()
        if not (self.pairpoint_threshold_mm > 0 and self.icp_threshold_mm > 0):
            raise ValueError("registration thresholds must be positive")


@dataclass
class ProjectConfig:
    skin_mesh_path: Path | None = field(default=None, metadata={"json": "skin_mesh"})
    cortex_mesh_path: Path | None = field(default=None, metadata={"json": "cortex_mesh"})
    landmarks_path: Path | None = field(default=None, metadata={"json": "landmarks"})
    calibration: Calibration = field(default_factory=Calibration)
    registration: RegistrationSettings = field(default_factory=RegistrationSettings)
    coil: CoilModel = field(default_factory=CoilModel)
    sensor: SensorModel = field(default_factory=SensorModel)
    train: PulseTrain = field(default_factory=PulseTrain)
    output_dir: Path = Path("out")

    _skin: TriangleMesh | None = field(default=None, init=False, repr=False)
    _cortex: TriangleMesh | None = field(default=None, init=False, repr=False)

    def skin_mesh(self) -> TriangleMesh:
        if self.skin_mesh_path is None:
            raise ValidationError("config has no skin_mesh entry")
        if self._skin is None:
            self._skin = load_stl(self.skin_mesh_path)
        return self._skin

    def cortex_mesh(self) -> TriangleMesh:
        if self.cortex_mesh_path is None:
            raise ValidationError("config has no cortex_mesh entry")
        if self._cortex is None:
            self._cortex = load_stl(self.cortex_mesh_path)
        return self._cortex


def load_config(path) -> ProjectConfig:
    path = Path(path)
    cfg = parse(ProjectConfig, read_json(path), "config")
    base = path.parent
    for key in ("skin_mesh", "cortex_mesh", "landmarks"):
        rel = getattr(cfg, f"{key}_path")
        if rel is not None:
            if not (base / rel).exists():
                raise ValidationError(f"config {key} points to a missing file: {base / rel}")
            setattr(cfg, f"{key}_path", base / rel)
    cfg.output_dir = base / cfg.output_dir
    return cfg
