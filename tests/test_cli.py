import json
from pathlib import Path

import numpy as np
import pytest

from tmsnav.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from tmsnav.fileio import read_json, write_json
from tmsnav.kinematics import CANONICAL_EDGES
from tmsnav.mesh import sample_surface, save_stl
from tmsnav.meshgen import icosphere
from tmsnav.pose_plan import PoseConstraintInput
from tmsnav.transforms import random_transform


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """Concentric-spheres phantom project: skin r=85, cortex r=70."""
    root = tmp_path_factory.mktemp("project")
    skin = icosphere(85.0, subdivisions=3)
    cortex = icosphere(70.0, subdivisions=3)
    save_stl(skin, root / "skin.stl", name="skin")
    save_stl(cortex, root / "cortex.stl", name="cortex")

    rng = np.random.default_rng(81)
    probe = sample_surface(skin, 6, rng)
    write_json(root / "landmarks.json", {
        "names": ["nose_tip", "nasion", "mid_eyes", "tragus_l", "tragus_r", "inion"],
        "image_points": [list(p) for p in probe],
        "probe_points": [list(p) for p in probe],
    })
    # a deliberately bad set: alternating +/-12 mm offsets survive the fit
    bad = probe + np.array([[12, 0, 0], [-12, 0, 0], [0, 12, 0],
                            [0, -12, 0], [0, 0, 12], [0, 0, -12]], dtype=float)
    write_json(root / "landmarks_bad.json", {
        "names": ["nose_tip", "nasion", "mid_eyes", "tragus_l", "tragus_r", "inion"],
        "image_points": [list(p) for p in bad],
        "probe_points": [list(p) for p in probe],
    })
    cloud = sample_surface(skin, 40, np.random.default_rng(82))
    write_json(root / "cloud.json", {"points": [list(p) for p in cloud]})

    write_json(root / "constraint.json", PoseConstraintInput.two_point(
        [0.0, 0.0, 70.0], [8.0, 0.0, 70.0]
    ).to_dict())

    config = {
        "skin_mesh": "skin.stl",
        "cortex_mesh": "cortex.stl",
        "landmarks": "landmarks.json",
        "calibration": {
            "e_to_cr": [float(x) for x in random_transform(
                np.random.default_rng(83)).to_matrix().reshape(16)],
            "cr_to_c": [float(x) for x in random_transform(
                np.random.default_rng(84)).to_matrix().reshape(16)],
        },
        "registration": {"pairpoint_threshold_mm": 6.0, "icp_threshold_mm": 2.0},
        "coil": {"segments_per_loop": 128},
        "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, -20.0, 0, 0, 0, 1]},
        "train": {"trains": 5},
        "output_dir": "out",
    }
    write_json(root / "config.json", config)

    bad_config = dict(config, landmarks="landmarks_bad.json")
    write_json(root / "config_bad.json", bad_config)

    missing_config = dict(config, skin_mesh="nope.stl")
    (root / "config_missing.json").write_text(json.dumps(missing_config))

    rng = np.random.default_rng(85)
    edges = []
    for i, (pair, provenance) in enumerate(sorted(CANONICAL_EDGES.items())):
        if pair == ("H", "b"):
            continue
        edges.append({
            "from": pair[0], "to": pair[1],
            "matrix": [float(x) for x in random_transform(rng).to_matrix().reshape(16)],
            "provenance": provenance, "timestamp_ms": float(i),
        })
    write_json(root / "graph.json", {"edges": edges})
    return root


def run(project, *argv) -> int:
    return main([f"--config={project / 'config.json'}", *argv])


def tree_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


# --- register -----------------------------------------------------------------------

def test_register_self_consistent_accepts(project, tmp_path):
    code = run(project, f"--out={tmp_path}", "register")
    assert code == EXIT_OK
    doc = read_json(tmp_path / "registration.json")
    assert doc["accepted"] is True
    assert doc["pairpoint_residual_mean"] <= 1e-9


def test_register_with_surface_refinement(project, tmp_path):
    code = run(project, f"--out={tmp_path}", "register",
               f"--cloud={project / 'cloud.json'}")
    assert code == EXIT_OK
    doc = read_json(tmp_path / "registration.json")
    assert doc["icp_residual_mean"] <= 1e-6
    assert doc["accepted"] is True


def test_register_bad_landmarks_rejected(project, tmp_path):
    code = main([f"--config={project / 'config_bad.json'}",
                 f"--out={tmp_path}", "register"])
    assert code == EXIT_REJECTED
    doc = read_json(tmp_path / "registration.json")
    assert doc["pairpoint_residual_mean"] > 6.0
    assert doc["accepted"] is False


def test_register_missing_mesh_is_usage_error(project, tmp_path):
    code = main([f"--config={project / 'config_missing.json'}",
                 f"--out={tmp_path}", "register"])
    assert code == EXIT_USAGE


def _register_with_skin(project, tmp_path, skin: bytes) -> int:
    """Exit code of `register --cloud` on the project with its skin file replaced."""
    (tmp_path / "skin_bad.stl").write_bytes(skin)
    config = read_json(project / "config.json")
    config.update(skin_mesh=str(tmp_path / "skin_bad.stl"),
                  cortex_mesh=str(project / "cortex.stl"),
                  landmarks=str(project / "landmarks.json"))
    write_json(tmp_path / "config.json", config)
    return main([f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}",
                 "register", f"--cloud={project / 'cloud.json'}"])


def test_register_short_facet_skin_is_usage_error(project, tmp_path):
    # drop the third vertex of facet 1: the skin file no longer parses
    lines = (project / "skin.stl").read_text().splitlines()
    third_vertex = [i for i, line in enumerate(lines) if "vertex" in line][5]
    del lines[third_vertex]
    assert _register_with_skin(project, tmp_path, ("\n".join(lines) + "\n").encode()) == EXIT_USAGE


@pytest.mark.parametrize("token", [b"abc", b"\xff"])
def test_register_non_numeric_vertex_skin_is_usage_error(project, tmp_path, capsys, token):
    # replace the first coordinate of facet 1's first vertex
    lines = (project / "skin.stl").read_bytes().split(b"\n")
    first = [i for i, line in enumerate(lines) if b"vertex" in line][3]
    indent, _, coordinates = lines[first].partition(b"vertex ")
    lines[first] = indent + b"vertex " + token + b" " + coordinates.split(b" ", 1)[1]
    assert _register_with_skin(project, tmp_path, b"\n".join(lines)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "facet 1:" in err and repr(token) in err


# --- plan ----------------------------------------------------------------------------

def test_plan_closest_skin_symmetry(project, tmp_path):
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=closest-skin",
               f"--constraint={project / 'constraint.json'}")
    assert code == EXIT_OK
    doc = read_json(tmp_path / "plan.json")
    np.testing.assert_allclose(doc["translation"], [0.0, 0.0, 85.0], atol=1.5)
    assert doc["strategy"] == "closest_skin"


def test_plan_restricted_cortex_same_center(project, tmp_path):
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=restricted-cortex",
               f"--constraint={project / 'constraint.json'}")
    assert code == EXIT_OK
    doc = read_json(tmp_path / "plan.json")
    np.testing.assert_allclose(doc["translation"], [0.0, 0.0, 85.0], atol=1.5)


def test_plan_deterministic_bytes(project, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(project, f"--out={out}", "plan", "--strategy=closest-skin",
                   f"--constraint={project / 'constraint.json'}") == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)


def test_plan_off_surface_is_domain_error(project, tmp_path):
    write_json(tmp_path / "far.json", PoseConstraintInput.two_point(
        [0.0, 0.0, 200.0], [8.0, 0.0, 200.0]
    ).to_dict())
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=free-skin",
               f"--constraint={tmp_path / 'far.json'}")
    assert code == EXIT_REJECTED


# --- chain ------------------------------------------------------------------------------

def make_plan(project, tmp_path):
    out = tmp_path / "plan_out"
    assert run(project, f"--out={out}", "plan", "--strategy=closest-skin",
               f"--constraint={project / 'constraint.json'}") == EXIT_OK
    return out / "plan.json"


def test_chain_solves_and_is_deterministic(project, tmp_path):
    plan = make_plan(project, tmp_path)
    reg_out = tmp_path / "reg"
    assert run(project, f"--out={reg_out}", "register") == EXIT_OK
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(project, f"--out={out}", "chain",
                   f"--graph={project / 'graph.json'}", f"--plan={plan}",
                   f"--registration={reg_out / 'registration.json'}")
        assert code == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)
    doc = read_json(a / "commanded.json")
    assert len(doc["matrix"]) == 16


def test_chain_missing_edge_maps_to_domain_error(project, tmp_path):
    plan = make_plan(project, tmp_path)
    graph = read_json(project / "graph.json")
    graph["edges"] = [e for e in graph["edges"] if (e["from"], e["to"]) != ("O", "Hr")]
    write_json(tmp_path / "graph_missing.json", graph)
    code = main([f"--out={tmp_path / 'o'}", "chain",
                 f"--graph={tmp_path / 'graph_missing.json'}", f"--plan={plan}"])
    assert code == EXIT_REJECTED


# --- hotspot ------------------------------------------------------------------------------

def test_hotspot_1x1_echoes_seed(project, tmp_path):
    plan = make_plan(project, tmp_path)
    out = tmp_path / "o"
    code = run(project, f"--out={out}", "hotspot", f"--plan={plan}",
               "--rows=1", "--cols=1", "--spacing=10")
    assert code == EXIT_OK
    doc = read_json(out / "hotspot.json")
    assert doc["poses"][0] == read_json(plan)


def test_hotspot_with_responses(project, tmp_path):
    plan = make_plan(project, tmp_path)
    write_json(tmp_path / "responses.json", {"responses": [0, 1, 5, 1, 0, 0, 0, 0, 0]})
    out = tmp_path / "o"
    code = run(project, f"--out={out}", "hotspot", f"--plan={plan}",
               "--rows=3", "--cols=3", "--spacing=8",
               f"--responses={tmp_path / 'responses.json'}")
    assert code == EXIT_OK
    doc = read_json(out / "hotspot.json")
    assert doc["selected_index"] == 2
    assert len(doc["poses"]) == 9


# --- fieldsim -------------------------------------------------------------------------------

@pytest.mark.parametrize("section, entry, named", [
    ("coil", {"matrix": [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1]}, "coil matrix"),
    ("coil", {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1]}, "coil matrix"),
    ("coil", {"loop_radius_mm": 0.0}, "loop_radius_mm"),
    ("coil", {"loop_turns": 0}, "loop_turns"),
    ("sensor", {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, -20, 0, 0, 0, 1]}, "sensor matrix"),
])
def test_fieldsim_bad_coil_or_sensor_is_usage_error(project, tmp_path, capsys,
                                                     section, entry, named):
    config = read_json(project / "config.json")
    config = {key: config[key] for key in ("coil", "sensor", "train")}  # no meshes needed
    config[section] = dict(config[section], **entry)
    write_json(tmp_path / "config.json", config)
    code = main([f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}",
                 "fieldsim", "--offsets=0,2"])
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err


def test_fieldsim_sweep_primary_decreases(project, tmp_path):
    out = tmp_path / "o"
    code = run(project, f"--out={out}", "fieldsim", "--single-loop",
               "--standoff=20", "--direction=x", "--offsets=0:10:11")
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "offset_mm,primary_vpp,secondary1_vpp,secondary2_vpp"
    primary = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(primary, primary[1:]))


def test_fieldsim_deterministic(project, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(project, f"--out={out}", "fieldsim", "--single-loop",
                   "--standoff=20", "--offsets=0,2,4") == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)


# --- session / report --------------------------------------------------------------------------

def test_session_zero_noise_std_zero(project, tmp_path):
    out = tmp_path / "o"
    code = run(project, f"--out={out}", "session", "--mode=holding",
               "--actuation=none")
    assert code == EXIT_OK
    doc = read_json(out / "session.json")
    assert doc["stats"]["primary_vpp"]["std"] == 0.0
    csv_lines = (out / "session.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 6  # header + 5 trains


def test_session_deterministic_with_seed(project, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(project, "--seed=123", f"--out={out}", "session",
                   "--mode=holding", "--actuation=manual", "--svg") == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)
    assert (a / "session.svg").exists()


def test_session_alignment_mode(project, tmp_path):
    out = tmp_path / "o"
    code = run(project, f"--out={out}", "session", "--mode=alignment",
               "--actuation=robotic", "--repetitions=10")
    assert code == EXIT_OK
    doc = read_json(out / "session.json")
    assert len(doc["samples"]) == 10
    assert doc["stats"]["rotation_error_rad"]["mean"] > 0.0


def test_report_from_session(project, tmp_path):
    s_out = tmp_path / "s"
    assert run(project, f"--out={s_out}", "session", "--mode=holding",
               "--actuation=robotic") == EXIT_OK
    r_out = tmp_path / "r"
    code = main([f"--out={r_out}", "report", f"--input={s_out / 'session.json'}"])
    assert code == EXIT_OK
    lines = (r_out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,mean,std,min,max"
    assert any(line.startswith("primary_vpp") for line in lines)


def test_outputs_round_trip_through_their_parsers(project, tmp_path):
    from tmsnav.fileio import canonical_json, write_csv

    plan = make_plan(project, tmp_path)
    s_out = tmp_path / "s"
    assert run(project, f"--out={s_out}", "session", "--mode=holding",
               "--actuation=manual") == EXIT_OK
    f_out = tmp_path / "f"
    assert run(project, f"--out={f_out}", "fieldsim", "--single-loop",
               "--standoff=20", "--offsets=0,2,4") == EXIT_OK
    # JSON outputs: read -> canonical re-dump reproduces the bytes
    for path in (plan, s_out / "session.json"):
        assert canonical_json(read_json(path)) == path.read_text()
    # CSV outputs: parse -> rewrite reproduces the bytes
    csv_path = f_out / "sweep.csv"
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    write_csv(tmp_path / "rewritten.csv", header, rows)
    assert (tmp_path / "rewritten.csv").read_bytes() == csv_path.read_bytes()


# --- usage ---------------------------------------------------------------------------------------

def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error(project):
    assert run(project, "plan", "--strategy=free-skin") == EXIT_USAGE


def test_register_without_config_is_usage_error(tmp_path):
    assert main([f"--out={tmp_path}", "register"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "register" in capsys.readouterr().out

# --- malformed input exits 64 and names the key or flag, never 1 ----------------------

MISSING = object()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Small project with absolute paths, plus one output of each command that
    later commands read: plan, registration and session record."""
    root = tmp_path_factory.mktemp("tiny")
    skin = icosphere(85.0, subdivisions=2)
    save_stl(skin, root / "skin.stl", name="skin")
    save_stl(icosphere(70.0, subdivisions=1), root / "cortex.stl", name="cortex")
    probe = sample_surface(skin, 6, np.random.default_rng(91))
    write_json(root / "landmarks.json", {
        "names": [f"f{i}" for i in range(6)],
        "image_points": [list(p) for p in probe], "probe_points": [list(p) for p in probe],
    })
    cloud = sample_surface(skin, 20, np.random.default_rng(92))
    write_json(root / "cloud.json", {"points": [list(p) for p in cloud]})
    write_json(root / "constraint.json", PoseConstraintInput.two_point(
        [0.0, 0.0, 70.0], [8.0, 0.0, 70.0]).to_dict())
    write_json(root / "constraint4.json", PoseConstraintInput.four_point(
        [0.0, 0.0, 70.0], [0.0, 0.0, 70.0], [1.0, 0.0, 70.0], [0.0, 1.0, 70.0]).to_dict())
    write_json(root / "responses.json", {"responses": [0, 1, 5, 1, 0, 0, 0, 0, 0]})
    rng = np.random.default_rng(93)
    write_json(root / "graph.json", {"edges": [
        {"from": a, "to": b, "provenance": provenance, "timestamp_ms": float(i),
         "matrix": [float(x) for x in random_transform(rng).to_matrix().reshape(16)]}
        for i, ((a, b), provenance) in enumerate(sorted(CANONICAL_EDGES.items()))
        if (a, b) not in (("H", "b"), ("E", "Cr"), ("Cr", "C"))
    ]})
    write_json(root / "config.json", {
        "skin_mesh": str(root / "skin.stl"),
        "cortex_mesh": str(root / "cortex.stl"),
        "landmarks": str(root / "landmarks.json"),
        "calibration": {
            "e_to_cr": [float(x) for x in random_transform(rng).to_matrix().reshape(16)],
            "cr_to_c": [float(x) for x in random_transform(rng).to_matrix().reshape(16)],
        },
        "registration": {"pairpoint_threshold_mm": 6.0, "icp_max_iterations": 5},
        "coil": {"segments_per_loop": 64},
        "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, -20.0, 0, 0, 0, 1]},
        "train": {"trains": 2},
        "output_dir": str(root / "out"),
    })
    cfg = f"--config={root / 'config.json'}"
    assert main([cfg, f"--out={root}", "plan", "--strategy=closest-skin",
                 f"--constraint={root / 'constraint.json'}"]) == EXIT_OK
    assert main([cfg, f"--out={root}", "register"]) == EXIT_OK
    assert main([cfg, f"--out={root}", "session", "--mode=alignment",
                 "--repetitions=2"]) == EXIT_OK
    return root


def _argv(root: Path, name: str, path: Path, key: str = "") -> list[str]:
    """A command that reads input document `name` from `path`, the rest from `root`.

    Config documents pick the command that uses the section `key` is in.
    """
    cfg = f"--config={root / 'config.json'}"
    plan, graph = f"--plan={root / 'plan.json'}", f"--graph={root / 'graph.json'}"
    register = ["register", f"--cloud={root / 'cloud.json'}"]
    if name == "config":
        cfg = f"--config={path}"
        section = key.split(".")[0]
        if section == "calibration":
            return [cfg, "chain", graph, plan]
        if section in ("coil", "sensor", "train"):
            return [cfg, "fieldsim", "--offsets=0,2"]
        if section == "cortex_mesh":
            return [cfg, "plan", "--strategy=closest-skin",
                     f"--constraint={root / 'constraint.json'}"]
    if name == "landmarks":
        config = dict(read_json(root / "config.json"), landmarks=str(path))
        cfg = f"--config={path.with_name('landmarks_config.json')}"
        write_json(path.with_name("landmarks_config.json"), config)
    commands = {
        "config": register, "landmarks": ["register"],
        "cloud": ["register", f"--cloud={path}"],
        "constraint": ["plan", "--strategy=closest-skin", f"--constraint={path}"],
        "constraint4": ["plan", "--strategy=closest-skin", f"--constraint={path}"],
        "plan": ["chain", graph, f"--plan={path}"],
        "graph": ["chain", f"--graph={path}", plan],
        "registration": ["chain", graph, plan, f"--registration={path}"],
        "responses": ["hotspot", plan, "--spacing=8", f"--responses={path}"],
        "session": ["report", f"--input={path}"],
    }
    return [cfg, f"--out={path.parent / 'out'}", *commands[name]]


def _with(doc, key: str, value):
    """Deep copy of `doc` with the dotted `key` set to `value` (or deleted)."""
    doc = json.loads(json.dumps(doc))
    *head, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    target = doc
    for k in head:
        target = target[k]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return doc


# (input document, edit of the well-formed document, extra flags, text stderr must name)
MALFORMED = {
    "constraint kind bogus": ("constraint", lambda d: _with(d, "constraint_kind", "bogus"),
                              "constraint.constraint_kind"),
    "constraint kind missing": ("constraint",
                                lambda d: _with(d, "constraint_kind", MISSING),
                                "constraint.constraint_kind"),
    "two-value center": ("constraint", lambda d: _with(d, "center", [0.0, 70.0]),
                         "constraint.center"),
    "two-point with plane_points": ("constraint", lambda d: _with(
        d, "plane_points", [[0.0, 0.0, 70.0], [1.0, 0.0, 70.0], [0.0, 1.0, 70.0]]),
        "plane_points"),
    "two-point with tail_selector": ("constraint", lambda d: _with(d, "tail_selector", "p1"),
                                     "tail_selector"),
    "four-point with tail_point": ("constraint4", lambda d: _with(
        d, "tail_point", [8.0, 0.0, 70.0]), "tail_point"),
    "config is a list": ("config", lambda d: [d], "config"),
    "skin_mesh number": ("config", lambda d: _with(d, "skin_mesh", 5), "config.skin_mesh"),
    "threshold text": ("config",
                       lambda d: _with(d, "registration.pairpoint_threshold_mm", "abc"),
                       "config.registration.pairpoint_threshold_mm"),
    "threshold NaN": ("config",
                      lambda d: _with(d, "registration.pairpoint_threshold_mm", float("nan")),
                      "config.registration.pairpoint_threshold_mm"),
    "icp trim fraction": ("config", lambda d: _with(d, "registration.icp_trim_fraction", 2.5),
                          "icp_trim_fraction"),
    "icp zero iterations": ("config", lambda d: _with(d, "registration.icp_max_iterations", 0),
                            "icp_max_iterations"),
    "icp negative delta": ("config", lambda d: _with(
        d, "registration.icp_convergence_delta_mm", -1e-4), "icp_convergence_delta_mm"),
    "trains text": ("config", lambda d: _with(d, "train.trains", "3"), "config.train.trains"),
    "trains fraction": ("config", lambda d: _with(d, "train.trains", 2.5),
                        "config.train.trains"),
    "wing_senses text": ("config", lambda d: _with(d, "coil.wing_senses", "ab"),
                         "config.coil.wing_senses"),
    "three wing senses": ("config", lambda d: _with(d, "coil.wing_senses", [1, -1, 1]),
                          "wing_senses"),
    "coil a list": ("config", lambda d: _with(d, "coil", [1, 2]), "config.coil"),
    "misspelt coil key": ("config", lambda d: _with(d, "coil.loop_radius", 30.0),
                          "config.coil.loop_radius"),
    "e_to_cr three values": ("config", lambda d: _with(d, "calibration.e_to_cr", [1, 2, 3]),
                             "config.calibration.e_to_cr"),
    "e_to_cr scaled": ("config", lambda d: _with(
        d, "calibration.e_to_cr", [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1]),
        "config.calibration.e_to_cr"),
    "cr_to_c bottom row": ("config", lambda d: _with(
        d, "calibration.cr_to_c", d["calibration"]["cr_to_c"][:12] + [5, 5, 5, 7]),
        "config.calibration.cr_to_c"),
    "graph edge from Z": ("graph", lambda d: _with(d, "edges.0.from", "Z"), "graph.edges[0]"),
    "graph edge without matrix": ("graph", lambda d: _with(d, "edges.0.matrix", MISSING),
                                  "graph.edges[0].matrix"),
    "graph edge R00 tripled": ("graph", lambda d: _with(d, "edges.0.matrix.0",
                                                        3.0 * d["edges"][0]["matrix"][0]),
                               "graph.edges[0]"),
    "plan strategy": ("plan", lambda d: _with(d, "strategy", "x"), "plan.strategy"),
    "plan rotation scaled": ("plan", lambda d: _with(
        d, "rotation", [2, 0, 0, 0, 2, 0, 0, 0, 2]), "plan.rotation"),
    "registration without pairpoint": ("registration", lambda d: _with(
        d, "pairpoint_residual_mean", MISSING), "registration.pairpoint_residual_mean"),
    "registration scaled": ("registration", lambda d: _with(
        d, "matrix", [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1]),
        "registration matrix"),
    "landmarks without names": ("landmarks", lambda d: _with(d, "names", MISSING),
                                "landmarks.names"),
    "cloud without points": ("cloud", lambda d: _with(d, "points", MISSING), "cloud.points"),
    "responses missing": ("responses", lambda d: _with(d, "responses", MISSING),
                          "responses.responses"),
    "responses NaN": ("responses", lambda d: _with(d, "responses.4", float("nan")),
                      "responses"),
    "stats a list": ("session", lambda d: _with(d, "stats", [1]), "session record.stats"),
    "stat without std": ("session", lambda d: _with(
        d, "stats.rotation_error_rad.std", MISSING), "stats.rotation_error_rad.std"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error_naming_the_key(tiny, tmp_path, capsys, case):
    name, edit, named = MALFORMED[case]
    path = tmp_path / f"{name}.json"
    # plain json: NaN must reach the parser as written
    path.write_text(json.dumps(edit(read_json(tiny / f"{name}.json"))))
    assert main(_argv(tiny, name, path)) == EXIT_USAGE
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["hotspot", "--rows=0"], "rows"),
    (["hotspot", "--spacing=-5"], "spacing"),
    (["hotspot", "--spacing=inf"], "spacing"),
    (["session", "--mode=alignment", "--repetitions=0"], "repetitions"),
    (["--seed=-1", "session", "--mode=alignment"], "--seed"),
    (["fieldsim", "--direction=0,0,0"], "--direction"),
    (["fieldsim", "--offsets=a,b"], "--offsets"),
    (["fieldsim", "--offsets=0:1:0"], "--offsets"),
    (["fieldsim", "--offsets=nan,1"], "--offsets"),
    (["fieldsim", "--standoff=nan"], "--standoff"),
])
def test_bad_flag_value_is_usage_error_naming_the_flag(tiny, tmp_path, capsys, argv, named):
    if argv[0] == "hotspot":
        argv = [*argv, f"--plan={tiny / 'plan.json'}"]
    code = main([f"--config={tiny / 'config.json'}", f"--out={tmp_path}", *argv])
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err


def _key_paths(doc, prefix: str = ""):
    """Dotted path of every object key, recursing into objects and the first
    element of lists of objects."""
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        yield from _key_paths(doc[0], f"{prefix}0.")
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + key
            yield from _key_paths(value, f"{prefix}{key}.")


REPLACEMENTS = {"missing": MISSING, "null": None, '"x"': "x", "NaN": float("nan"),
                "[]": [], "{}": {}, "2.5": 2.5, "true": True}


@pytest.mark.parametrize("name", ["config", "constraint", "constraint4", "plan", "graph",
                                  "registration", "landmarks", "cloud", "responses",
                                  "session"])
def test_no_single_key_replacement_exits_internal(tiny, tmp_path, capsys, name):
    doc = read_json(tiny / f"{name}.json")
    path = tmp_path / f"{name}.json"
    internal = []
    for key in _key_paths(doc):
        for label, value in REPLACEMENTS.items():
            path.write_text(json.dumps(_with(doc, key, value)))
            code = main(_argv(tiny, name, path, key))
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_REJECTED, EXIT_USAGE):
                internal.append(f"{key} = {label}: exit {code}: {err.strip()}")
    assert not internal
