"""Headless command-line front end.

Subcommands mirror the pipeline: register, plan, chain, hotspot,
fieldsim, session, report. Outputs are deterministic files (JSON/CSV,
optional SVG); identical inputs and seeds give identical bytes.

Exit codes: 0 success, 1 internal error, 2 scientific gate rejection or
domain validation failure, 64 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Annotated

import numpy as np

from .config import ProjectConfig, load_config
from .errors import SingularEvaluation, ToolkitError, ValidationError
from .fieldsim import VOLTAGE_COLUMNS, displacement_sweep
from .fileio import INT_BOUND, Points, dump, parse, read_json, write_csv, write_json, write_svg
from .registration import LandmarkSet, RegistrationResult, icp_refine, pairpoint_register
from .transforms import RigidTransform, direction_length

# pose_plan, kinematics and session are imported by the commands that run them; the
# names that annotate _Cloud, _Responses and _Stat stay here, where fileio.parse finds them

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64


# the three input documents that have no library type of their own
@dataclass(frozen=True)
class _Cloud:
    points: Points


@dataclass(frozen=True)
class _Responses:
    responses: Annotated[np.ndarray, (-1,)]


@dataclass(frozen=True)
class _Stat:
    mean: float
    std: float
    min: float
    max: float


def _out_dir(args, config: ProjectConfig | None) -> Path:
    if args.out is not None:
        out, source = Path(args.out), "--out"
    elif config is not None:
        out, source = config.output_dir, "config output_dir"
    else:
        out, source = Path("out"), "the default output directory"
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValidationError(f"{source} cannot be created: {err}") from err
    return out


@contextmanager
def _sensor_placement_named(where: str):
    """Name the inputs that place the sensor when it lands on the coil's wire (the
    default sensor pose, the identity, sits on a figure-8's crossing at the origin)."""
    try:
        yield
    except SingularEvaluation as err:
        raise SingularEvaluation(f"{err}: place the sensor off the coil's wire "
                                 f"with {where}") from None


def _require_config(args) -> ProjectConfig:
    if args.config is None:
        raise ValidationError("this command requires --config")
    return load_config(args.config)


# --- subcommands -----------------------------------------------------------------

def cmd_register(args) -> int:
    config = _require_config(args)
    out = _out_dir(args, config)
    if config.landmarks_path is None:
        raise ValidationError("config has no landmarks entry")
    landmarks = parse(LandmarkSet, read_json(config.landmarks_path), "landmarks")
    settings = config.registration
    result = pairpoint_register(landmarks, settings.pairpoint_threshold_mm)
    if args.cloud is not None:
        cloud = parse(_Cloud, read_json(args.cloud), "cloud").points
        result = icp_refine(
            config.skin_mesh(), cloud, result.transform, settings,
            pairpoint_residual_mean=result.pairpoint_residual_mean,
            pairpoint_threshold_mm=settings.pairpoint_threshold_mm,
            icp_threshold_mm=settings.icp_threshold_mm,
        )
    write_json(out / "registration.json", dump(result))
    state = "accepted" if result.accepted else "rejected"
    print(f"registration {state}: pair-point {result.pairpoint_residual_mean:.4f} mm"
          + (f", surface {result.icp_residual_mean:.4f} mm"
             if result.icp_residual_mean is not None else ""))
    return EXIT_OK if result.accepted else EXIT_REJECTED


def cmd_plan(args) -> int:
    from .pose_plan import (ConstraintKind, PoseConstraintInput, Strategy, closest_skin_pose,
                            free_skin_pose, restricted_cortex_pose)
    config = _require_config(args)
    out = _out_dir(args, config)
    constraint = parse(PoseConstraintInput, read_json(args.constraint), "constraint")
    strategy = Strategy(args.strategy.replace("-", "_").lower())
    # only a two-point constraint reads the mesh it is placed on: the others carry a plane
    placed_on = config.skin_mesh if strategy is Strategy.FREE_SKIN else config.cortex_mesh
    mesh = placed_on() if constraint.kind is ConstraintKind.TWO_POINT else None
    if strategy is Strategy.FREE_SKIN:
        plan = free_skin_pose(mesh, constraint)
    elif strategy is Strategy.RESTRICTED_CORTEX:
        plan = restricted_cortex_pose(mesh, config.skin_mesh(), constraint)
    else:
        plan = closest_skin_pose(mesh, config.skin_mesh(), constraint)
    write_json(out / "plan.json", dump(plan))
    t = plan.pose.translation
    flag = " [skin-collision warning]" if plan.skin_collision_warning else ""
    print(f"{strategy.value} pose at ({t[0]:.2f}, {t[1]:.2f}, {t[2]:.2f}) mm{flag}")
    return EXIT_OK


def cmd_chain(args) -> int:
    from .kinematics import FrameGraph, GraphDocument, GraphEdge, solve_commanded_end_effector
    from .pose_plan import PlanPose
    config = load_config(args.config) if args.config else None
    out = _out_dir(args, config)
    file_graph = parse(GraphDocument, read_json(args.graph), "graph").graph()
    edges = {}
    if config is not None:
        if config.calibration.e_to_cr is not None:
            edges[("E", "Cr")] = GraphEdge(config.calibration.e_to_cr, "calibration")
        if config.calibration.cr_to_c is not None:
            edges[("Cr", "C")] = GraphEdge(config.calibration.cr_to_c, "calibration")
    edges.update(file_graph.edges)
    if args.registration is not None:
        reg = parse(RegistrationResult, read_json(args.registration), "registration")
        edges[("Hr", "H")] = GraphEdge(reg.transform, "registration")
    graph = FrameGraph(edges)
    plan = parse(PlanPose, read_json(args.plan), "plan")
    commanded = solve_commanded_end_effector(graph, plan)
    write_json(out / "commanded.json", {"matrix": dump(commanded)})
    t = commanded.translation
    print(f"commanded end-effector at ({t[0]:.2f}, {t[1]:.2f}, {t[2]:.2f}) mm")
    return EXIT_OK


def cmd_hotspot(args) -> int:
    from .pose_plan import PlanPose, hotspot_grid, select_hotspot
    config = _require_config(args)
    out = _out_dir(args, config)
    seed_plan = parse(PlanPose, read_json(args.plan), "plan")
    grid = hotspot_grid(config.skin_mesh(), seed_plan, args.rows, args.cols, args.spacing)
    doc = dump(grid)
    if args.responses is not None:
        responses = parse(_Responses, read_json(args.responses), "responses").responses
        idx, best = select_hotspot(grid, responses)
        doc["selected_index"] = idx
        doc["selected_pose"] = dump(best)
    write_json(out / "hotspot.json", doc)
    note = f", selected {doc['selected_index']}" if "selected_index" in doc else ""
    print(f"hotspot grid {args.rows}x{args.cols} at {args.spacing} mm pitch{note}")
    return EXIT_OK


def _parse_offsets(text: str) -> list[float]:
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            values = [float(x) for x in np.linspace(float(start), float(stop), int(count))]
        else:
            values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not (values and np.isfinite(values).all()):
        raise ValidationError("--offsets must be finite numbers, a comma list or "
                              f"start:stop:count, got {text!r}")
    return values


def _parse_direction(text: str) -> np.ndarray:
    named = {"x": "1,0,0", "y": "0,1,0", "z": "0,0,1"}
    try:
        parts = np.array([float(x) for x in named.get(text.lower(), text).split(",")])
    except ValueError:
        parts = np.array([])
    if not (len(parts) == 3 and np.isfinite(parts).all()):
        raise ValidationError(f"--direction must be x, y, z or three finite numbers, got {text!r}")
    direction_length(parts, "--direction")  # the rule displacement_sweep applies
    return parts


def cmd_fieldsim(args) -> int:
    config = _require_config(args)
    out = _out_dir(args, config)
    coil = config.coil
    if args.single_loop:
        coil = replace(coil, wing_senses=(1.0,))  # wing_offsets() centers a single wing
    sensor = config.sensor
    if args.standoff is not None:
        if not np.isfinite(args.standoff):
            raise ValidationError(f"--standoff must be finite, got {args.standoff}")
        below = coil.pose.apply(np.array([0.0, 0.0, -float(args.standoff)]))
        sensor = replace(sensor, pose=RigidTransform(coil.pose.rotation, below))
    direction, offsets = _parse_direction(args.direction), _parse_offsets(args.offsets)
    with _sensor_placement_named("the config's sensor.matrix or --standoff"):
        table = displacement_sweep(coil, sensor, direction, offsets, config.train)
    write_csv(out / "sweep.csv", table["header"], table["rows"])
    print(f"sweep over {len(table['rows'])} offsets written")
    return EXIT_OK


def _default_plan():
    from .pose_plan import PoseConstraintInput, pose_from_constraint
    constraint = PoseConstraintInput.four_point(
        [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], tail="p1"
    )
    return pose_from_constraint(constraint)


def cmd_session(args) -> int:
    from . import session as session_mod
    from .pose_plan import PlanPose
    config = _require_config(args)
    out = _out_dir(args, config)
    if not 0 <= args.seed <= INT_BOUND:  # so session.json reads back through fileio.parse
        raise ValidationError(f"--seed must be in [0, 2**53], got {args.seed}")
    if args.plan is not None:
        plan = parse(PlanPose, read_json(args.plan), "plan")
    else:
        plan = _default_plan()
    if args.actuation == "robotic":
        model = session_mod.ActuationModel.robotic(args.seed)
    elif args.actuation == "manual":
        model = session_mod.ActuationModel.manual(args.seed)
    else:  # noise-free reference actuation
        model = session_mod.ActuationModel("none", 0.0, 0.0, 0.0, args.seed)
    if args.mode == "alignment":
        record = session_mod.run_alignment_trials(plan, model, args.repetitions)
    else:
        with _sensor_placement_named("the config's sensor.matrix"):
            record = session_mod.run_holding_session(
                plan, model, config.coil, config.sensor, config.train
            )
    write_json(out / "session.json", session_mod.session_to_dict(record))
    header, rows = session_mod.session_csv_rows(record)
    write_csv(out / "session.csv", header, rows)
    if args.svg and record.voltages_vpp is not None:
        series = {name: [float(v) for v in column]
                  for name, column in zip(VOLTAGE_COLUMNS, record.voltages_vpp.T)}
        times = [s.timestamp_s for s in record.samples]
        write_svg(out / "session.svg", series, times,
                  title=f"{model.label} per-train voltages")
    key = "primary_vpp" if record.voltages_vpp is not None else "translation_error_mm"
    stats = record.stats[key]
    print(f"{args.mode} session ({model.label}): {key} mean {stats['mean']:.4g} "
          f"std {stats['std']:.4g}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = _out_dir(args, None)
    doc = read_json(args.input)
    stats = doc.get("stats") if isinstance(doc, dict) else None
    if not stats:
        raise ValidationError("session record has no stats block")
    stats = parse(dict[str, _Stat], stats, "session record.stats")
    rows = [(name, s.mean, s.std, s.min, s.max) for name, s in sorted(stats.items())]
    write_csv(out / "report.csv", ["metric", "mean", "std", "min", "max"], rows)
    print(f"report with {len(rows)} metrics written")
    return EXIT_OK


# --- parser ------------------------------------------------------------------------

@cache  # parse_args makes a fresh namespace per call and nothing changes the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsnav",
        description="Deterministic planning and validation toolkit for "
                    "robotic TMS neuronavigation.",
    )
    parser.add_argument("--config", help="project configuration JSON")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for simulations")
    parser.add_argument("--out", help="output directory (default from config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="landmark registration with optional surface refinement")
    p.add_argument("--cloud", help="probe point-cloud JSON for surface refinement")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("plan", help="compute a coil pose from a point constraint")
    p.add_argument("--strategy", required=True,
                   choices=["free-skin", "restricted-cortex", "closest-skin",
                            "free_skin", "restricted_cortex", "closest_skin"])
    p.add_argument("--constraint", required=True, help="constraint JSON file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("chain", help="solve the commanded end-effector pose")
    p.add_argument("--graph", required=True, help="frame-graph snapshot JSON")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--registration", help="registration result JSON for the head edge")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("hotspot", help="generate a candidate-pose grid")
    p.add_argument("--plan", required=True, help="seed plan JSON")
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--spacing", type=float, default=10.0, help="lattice pitch, mm")
    p.add_argument("--responses", help="JSON with per-pose responses to select the hotspot")
    p.set_defaults(func=cmd_hotspot)

    p = sub.add_parser("fieldsim", help="sensor displacement sweep")
    p.add_argument("--direction", default="x", help="sweep direction (x, y, z or i,j,k)")
    p.add_argument("--offsets", default="0:10:11",
                   help="offsets in mm: comma list or start:stop:count")
    p.add_argument("--standoff", type=float,
                   help="place the sensor this far under the coil, mm")
    p.add_argument("--single-loop", action="store_true",
                   help="one wing of the configured coil: same radius, turns, current, pose")
    p.set_defaults(func=cmd_fieldsim)

    p = sub.add_parser("session", help="simulated alignment or holding session")
    p.add_argument("--mode", choices=["alignment", "holding"], default="holding")
    p.add_argument("--actuation", choices=["robotic", "manual", "none"], default="robotic")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--plan", help="plan JSON (defaults to an origin pose)")
    p.add_argument("--svg", action="store_true", help="also write a voltage plot")
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("report", help="emit a statistics table from a session record")
    p.add_argument("--input", required=True, help="session JSON file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage; remap to the config/usage code
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
