"""The four workloads: seeded input files and the CLI command mix of each.

A workload is a list of round templates. Every round is a fixed list of
CLI commands; `{r}` in an argument is replaced by that round's output
directory, so a round can feed one command's output to the next, as a
user would. Rounds of plan-head, holding-session and plan-phantom are
identical, so round k must reproduce round 0 byte for byte. register-icp
gives every round its own subject, so the timed loop never reads a mesh
file twice (a traced run repeats each round once, traced, so that its
overhead compares like with like).

Inputs are generated here from the benchmark seed alone, with the
benchmark's own geometry (phantoms.py); the program only receives files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phantoms import (
    apply, ellipsoid, fit_rigid, random_rigid, rigid_inverse, rotation, sample_on_surface,
    write_stl,
)

NAMES = ("plan-head", "register-icp", "holding-session", "plan-phantom")

# Sizes of each workload; `smoke` shrinks every one of them to seconds.
FULL = {
    "plan-head": {"subdivisions": 5, "hotspot": 5},
    "register-icp": {"subdivisions": 5, "cloud": 100, "subjects": 24, "icp_iterations": 10},
    "holding-session": {"trains": 20, "segments_per_loop": 256, "sweep": 11},
    "plan-phantom": {"subdivisions": 4, "hotspot": 7},
}
SMOKE = {
    "plan-head": {"subdivisions": 2, "hotspot": 3},
    "register-icp": {"subdivisions": 3, "cloud": 30, "subjects": 3, "icp_iterations": 10},
    "holding-session": {"trains": 3, "segments_per_loop": 64, "sweep": 3},
    "plan-phantom": {"subdivisions": 2, "hotspot": 3},
}
# fresh-process set-ups per run; their median is setup_s
SETUP_REPEATS = 6

LANDMARK_NOISE_MM = 1.0
CLOUD_NOISE_MM = 0.3
# the landmark fit ICP starts from is mostly translated off the truth: with
# 4 deg / 4 mm, about 1 subject in 50 had its offset along a rotation the
# ellipsoid barely constrains, and 10 ICP iterations left its landmark
# error just above the start; with 2 deg / 8 mm the smallest improvement
# over 144 subjects was 4.3 mm
START_OFFSET_DEG = 2.0
START_OFFSET_MM = 8.0
HOTSPOT_SPACING_MM = 8.0


@dataclass
class Workload:
    name: str
    # round templates: lists of {"kind", "argv", "primary"}; the median
    # adjusted wall time of the commands marked primary is primary_p50_s
    rounds: list
    max_rounds: int  # 0 = unbounded
    setup: dict  # {"config", "stls", "query"} for the fresh-process probe
    files: list = field(default_factory=list)  # every generated input
    truth: dict = field(default_factory=dict)  # what the output checks compare to


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _mat16(m: np.ndarray) -> list:
    return [float(x) for x in m.reshape(16)]


def _head(rng, subdivisions: int):
    """Skin and cortex ellipsoids of a seeded subject, in mm."""
    skin_axes = np.array([80.0, 95.0, 70.0]) + rng.uniform(-4.0, 4.0, size=3)
    cortex_axes = skin_axes - rng.uniform(12.0, 16.0, size=3)
    return ellipsoid(skin_axes, subdivisions), ellipsoid(cortex_axes, subdivisions), skin_axes


def _crown_point(rng, mesh, min_height: float):
    """A surface point on the upper head (z above min_height) and its tangents."""
    v, t = mesh
    while True:
        (p,), _ = sample_on_surface(v, t, 1, rng)
        if p[2] > min_height:
            break
    normal = p / np.linalg.norm(p)
    e1 = np.cross([0.0, 0.0, 1.0], normal)
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.array([1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)  # e1 x e2 = normal, so plane triples wind outward
    return p, e1, e2


def _graph(rng) -> dict:
    """Frame-graph snapshot: six measured/calibrated edges, 5 ms apart."""
    pairs = [("Cr", "C", "calibration"), ("E", "Cr", "calibration"), ("Hr", "H", "registration"),
             ("O", "Cr", "tracker"), ("O", "Hr", "tracker"), ("R", "E", "sensor")]
    return {"edges": [
        {"from": a, "to": b, "matrix": _mat16(random_rigid(rng, 100.0)),
         "provenance": prov, "timestamp_ms": 5.0 * i}
        for i, (a, b, prov) in enumerate(pairs)
    ]}


def _planning(name, rng, root: Path, size: dict) -> Workload:
    skin, cortex, axes = _head(rng, size["subdivisions"])
    write_stl(root / "skin.stl", *skin, "skin")
    write_stl(root / "cortex.stl", *cortex, "cortex")
    files = [root / "skin.stl", root / "cortex.stl"]

    c_two, e1, _ = _crown_point(rng, skin, 0.6 * axes[2])
    files.append(_write_json(root / "two_point.json", {
        "constraint_kind": "two_point", "center": list(c_two),
        "plane_points": None, "tail_point": list(c_two + 10.0 * e1), "tail_selector": None,
    }))
    p, e1, e2 = _crown_point(rng, cortex, 0.5 * axes[2])
    files.append(_write_json(root / "three_point.json", {
        "constraint_kind": "three_point", "center": list(p),
        "plane_points": [list(p), list(p + 10.0 * e1), list(p + 10.0 * e2)],
        "tail_point": None, "tail_selector": "p1",
    }))
    c, e1, e2 = _crown_point(rng, cortex, 0.5 * axes[2])
    base = c - 4.0 * e1 - 4.0 * e2
    files.append(_write_json(root / "four_point.json", {
        "constraint_kind": "four_point", "center": list(c),
        "plane_points": [list(base), list(base + 10.0 * e1), list(base + 10.0 * e2)],
        "tail_point": None, "tail_selector": "p2",
    }))
    n = size["hotspot"]
    responses = [float(x) for x in rng.uniform(0.0, 1.0, size=n * n)]
    files.append(_write_json(root / "responses.json", {"responses": responses}))
    graph = _graph(rng)
    files.append(_write_json(root / "graph.json", graph))
    config = root / "config.json"
    files.append(_write_json(config, {"skin_mesh": "skin.stl", "cortex_mesh": "cortex.stl"}))

    cfg = f"--config={config}"
    mix = [
        {"kind": "plan", "argv": [cfg, "--out={r}/free", "plan", "--strategy=free-skin",
                                  f"--constraint={root / 'two_point.json'}"]},
        # the headline commands: plans that load and query skin and cortex
        # (free-skin loads the skin only and takes about half as long)
        {"kind": "plan", "primary": True,
         "argv": [cfg, "--out={r}/restricted", "plan", "--strategy=restricted-cortex",
                  f"--constraint={root / 'three_point.json'}"]},
        {"kind": "plan", "primary": True,
         "argv": [cfg, "--out={r}/closest", "plan", "--strategy=closest-skin",
                  f"--constraint={root / 'four_point.json'}"]},
        {"kind": "hotspot", "argv": [cfg, "--out={r}/hotspot", "hotspot",
                                     "--plan={r}/free/plan.json", f"--rows={n}", f"--cols={n}",
                                     f"--spacing={HOTSPOT_SPACING_MM}",
                                     f"--responses={root / 'responses.json'}"]},
        {"kind": "chain", "argv": [cfg, "--out={r}/chain", "chain",
                                   f"--graph={root / 'graph.json'}",
                                   "--plan={r}/closest/plan.json"]},
    ]
    if name == "plan-phantom":
        session_seed = int(rng.integers(0, 2**31 - 1))
        mix += [
            {"kind": "session", "argv": [cfg, f"--seed={session_seed}", "--out={r}/align",
                                         "session", "--mode=alignment", "--actuation=robotic",
                                         "--plan={r}/free/plan.json"]},
            {"kind": "report", "argv": ["--out={r}/align_report", "report",
                                        "--input={r}/align/session.json"]},
        ]
    return Workload(
        name, [mix], 0,
        {"config": str(config), "stls": [str(root / "skin.stl"), str(root / "cortex.stl")],
         "query": list(c_two)}, files,
        {"skin": skin, "graph": graph, "responses": responses},
    )


def _register(rng, root: Path, size: dict) -> Workload:
    rounds, files, subjects = [], [], []
    for k in range(size["subjects"]):
        sub = root / f"subject{k}"
        sub.mkdir()
        skin, _, _ = _head(rng, size["subdivisions"])
        write_stl(sub / "skin.stl", *skin, "skin")
        truth = random_rigid(rng, 100.0)  # probe/head-marker frame -> image frame
        image, _ = sample_on_surface(*skin, 6, rng)
        probe_true = apply(rigid_inverse(truth), image)
        # the landmark fit starts START_OFFSET_DEG / START_OFFSET_MM off the truth
        offset = np.eye(4)
        offset[:3, :3] = rotation(rng.normal(size=3), np.deg2rad(START_OFFSET_DEG))
        centroid = probe_true.mean(axis=0)
        direction = rng.normal(size=3)
        offset[:3, 3] = (centroid - offset[:3, :3] @ centroid
                         + START_OFFSET_MM * direction / np.linalg.norm(direction))
        probe = apply(offset, probe_true) + rng.normal(0.0, LANDMARK_NOISE_MM, size=(6, 3))
        cloud_image, _ = sample_on_surface(*skin, size["cloud"], rng)
        cloud_image = cloud_image + rng.normal(0.0, CLOUD_NOISE_MM, size=cloud_image.shape)
        cloud = apply(rigid_inverse(truth), cloud_image)
        _write_json(sub / "landmarks.json", {
            "names": [f"fiducial{i}" for i in range(6)],
            "image_points": [list(q) for q in image], "probe_points": [list(q) for q in probe],
        })
        _write_json(sub / "cloud.json", {"points": [list(q) for q in cloud]})
        # a fixed ICP iteration cap that these phantoms reach unconverged,
        # so every command does the same amount of work
        _write_json(sub / "config.json", {
            "skin_mesh": "skin.stl", "landmarks": "landmarks.json",
            "registration": {"icp_max_iterations": size["icp_iterations"]}})
        files += [sub / "skin.stl", sub / "landmarks.json", sub / "cloud.json",
                  sub / "config.json"]
        rounds.append([{"kind": "register", "primary": True, "argv": [
            f"--config={sub / 'config.json'}", "--out={r}/register", "register",
            f"--cloud={sub / 'cloud.json'}"]}])
        # landmark error of the landmark-only fit that ICP starts from
        start = fit_rigid(probe, image)
        start_error = np.linalg.norm(apply(start, probe_true) - image, axis=1).mean()
        subjects.append({"truth": truth, "probe_true": probe_true,
                         "start_error_mm": float(start_error)})
    return Workload(
        "register-icp", rounds, len(rounds),
        {"config": str(root / "subject0" / "config.json"),
         "stls": [str(root / "subject0" / "skin.stl")], "query": [0.0, 0.0, 100.0]},
        files, {"subjects": subjects},
    )


def _holding(rng, root: Path, size: dict) -> Workload:
    config = root / "config.json"
    _write_json(config, {
        "coil": {"segments_per_loop": size["segments_per_loop"]},
        # primary winding 20 mm under the centre of one wing of the held figure-8
        # (the default plan puts that wing at +35 mm y); under the coil centre
        # the two wings' axial fields cancel and the primary voltage is ~0
        "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 35.0, 0, 0, 1, -20.0, 0, 0, 0, 1]},
        "train": {"trains": size["trains"]},
    })
    cfg = f"--config={config}"
    seed = int(rng.integers(0, 2**31 - 1))
    sweep = f"--offsets=0:10:{size['sweep']}"
    mix = [
        {"kind": "session", "primary": True,
         "argv": [cfg, f"--seed={seed}", "--out={r}/robotic", "session", "--mode=holding",
                  "--actuation=robotic"]},
        {"kind": "session", "primary": True,
         "argv": [cfg, f"--seed={seed}", "--out={r}/manual", "session", "--mode=holding",
                  "--actuation=manual"]},
        {"kind": "fieldsim", "argv": [cfg, "--out={r}/sweep8", "fieldsim", "--standoff=20",
                                      "--direction=x", sweep]},
        {"kind": "fieldsim", "argv": [cfg, "--out={r}/sweep1", "fieldsim", "--single-loop",
                                      "--standoff=20", "--direction=y", sweep]},
        {"kind": "report", "argv": ["--out={r}/report", "report",
                                    "--input={r}/manual/session.json"]},
    ]
    return Workload("holding-session", [mix], 0,
                    {"config": str(config), "stls": [], "query": [0.0, 0.0, 0.0]}, [config])


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Write the inputs of one workload under root and describe its rounds."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed % 2**64, NAMES.index(name)])
    size = (SMOKE if smoke else FULL)[name]
    root.mkdir(parents=True, exist_ok=True)
    if name == "register-icp":
        return _register(rng, root, size)
    if name == "holding-session":
        return _holding(rng, root, size)
    return _planning(name, rng, root, size)
