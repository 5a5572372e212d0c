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


def test_register_short_facet_skin_is_usage_error(project, tmp_path):
    # drop the third vertex of facet 1: the skin file no longer parses
    lines = (project / "skin.stl").read_text().splitlines()
    third_vertex = [i for i, line in enumerate(lines) if "vertex" in line][5]
    del lines[third_vertex]
    (tmp_path / "skin_short.stl").write_text("\n".join(lines) + "\n")
    config = read_json(project / "config.json")
    config.update(skin_mesh=str(tmp_path / "skin_short.stl"),
                  cortex_mesh=str(project / "cortex.stl"),
                  landmarks=str(project / "landmarks.json"))
    write_json(tmp_path / "config.json", config)
    code = main([f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}",
                 "register", f"--cloud={project / 'cloud.json'}"])
    assert code == EXIT_USAGE


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