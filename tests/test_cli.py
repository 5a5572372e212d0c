import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tmsnav import cli
from tmsnav import mesh as mesh_module
from tmsnav import session as session_mod
from tmsnav.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from tmsnav.fileio import canonical_json, dump, parse, read_json, write_json
from tmsnav.kinematics import CANONICAL_EDGES
from tmsnav.mesh import sample_surface, save_stl
from tmsnav.meshgen import ellipsoid, icosphere
from tmsnav.pose_plan import PlanPose, PoseConstraintInput
from tmsnav.registration import RegistrationResult
from tmsnav.transforms import RigidTransform, rotation_about_axis

from conftest import random_transform


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

    write_json(root / "constraint.json", dump(PoseConstraintInput.two_point(
        [0.0, 0.0, 70.0], [8.0, 0.0, 70.0]
    )))

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


def test_registration_json_carries_the_icp_residual_history(project, tmp_path):
    icp, plain = tmp_path / "icp", tmp_path / "plain"
    assert run(project, f"--out={icp}", "register", f"--cloud={project / 'cloud.json'}") == EXIT_OK
    assert run(project, f"--out={plain}", "register") == EXIT_OK
    doc = read_json(icp / "registration.json")
    assert len(doc["residual_history"]) == doc["iterations"] >= 1
    assert doc["residual_history"][-1] == doc["icp_residual_mean"]
    assert read_json(plain / "registration.json")["residual_history"] == []
    # chain reads both, and a file written before the key existed (its default is empty)
    del doc["residual_history"]
    write_json(tmp_path / "older.json", doc)
    plan = make_plan(project, tmp_path)
    outs = []
    for reg in (icp / "registration.json", plain / "registration.json", tmp_path / "older.json"):
        outs.append(tmp_path / f"chain_{len(outs)}")
        assert run(project, f"--out={outs[-1]}", "chain", f"--graph={project / 'graph.json'}",
                   f"--plan={plan}", f"--registration={reg}") == EXIT_OK
    assert tree_bytes(outs[0]) == tree_bytes(outs[2])


def test_registration_json_reports_the_plane_sv_ratio(project, tmp_path):
    outs = [tmp_path / name for name in ("icp", "again", "plain")]
    for out in outs[:2]:
        assert run(project, f"--out={out}", "register",
                   f"--cloud={project / 'cloud.json'}") == EXIT_OK
    assert run(project, f"--out={outs[2]}", "register") == EXIT_OK
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])
    assert 0.0 < read_json(outs[0] / "registration.json")["icp_plane_sv_ratio"] <= 1.0
    assert read_json(outs[2] / "registration.json")["icp_plane_sv_ratio"] is None


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


@pytest.mark.parametrize("key", ["skin_mesh", "cortex_mesh", "landmarks"])
def test_config_path_naming_a_directory_is_usage_error(project, tmp_path, capsys, key):
    config = read_json(project / "config.json")
    config.update({k: str(project / config[k]) for k in ("skin_mesh", "cortex_mesh", "landmarks")})
    (tmp_path / "folder").mkdir()
    config[key] = "folder"
    write_json(tmp_path / "config.json", config)
    code = main([f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}",
                 "plan", "--strategy=free-skin", f"--constraint={project / 'constraint.json'}"])
    assert code == EXIT_USAGE
    assert f"config {key} " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--out", "output_dir"])
def test_output_dir_below_a_regular_file_is_usage_error(project, tmp_path, capsys, source):
    (tmp_path / "o").write_text("a file, not a directory")
    config = read_json(project / "config.json")
    config.update({k: str(project / config[k]) for k in ("skin_mesh", "cortex_mesh", "landmarks")})
    config["output_dir"] = str(tmp_path / "o" / "sub")
    write_json(tmp_path / "config.json", config)
    out = [f"--out={tmp_path / 'o' / 'sub'}"] if source == "--out" else []
    code = main([f"--config={tmp_path / 'config.json'}", *out, "session", "--mode=holding"])
    assert code == EXIT_USAGE
    assert source in capsys.readouterr().err
    assert (tmp_path / "o").read_text() == "a file, not a directory"


@pytest.mark.parametrize("argv", [
    ["register", "--cloud=cloud.json"], ["plan", "--strategy=free-skin", "--constraint=c.json"],
    ["chain", "--graph=graph.json", "--plan=plan.json"], ["hotspot", "--plan=plan.json"],
    ["fieldsim"], ["session", "--mode=holding"], ["report", "--input=session.json"],
], ids=lambda argv: argv[0])
def test_unusable_out_is_reported_before_any_work(project, tmp_path, capsys, monkeypatch, argv):
    def work(*args, **kwargs):
        raise AssertionError("the command started its work")

    # every input document, and the work of the two commands that read none
    monkeypatch.setattr(cli, "read_json", work)
    monkeypatch.setattr(cli, "displacement_sweep", work)
    monkeypatch.setattr(session_mod, "run_holding_session", work)
    (tmp_path / "o").write_text("a file, not a directory")
    code = main([f"--config={project / 'config.json'}", f"--out={tmp_path / 'o' / 'sub'}",
                 *argv])
    assert code == EXIT_USAGE
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["session", "--mode=holding"], ["sensor.matrix"]),
    (["fieldsim"], ["sensor.matrix", "--standoff"]),
])
def test_default_sensor_on_the_coil_wire_names_its_placement(tmp_path, capsys, argv, named):
    # the default sensor pose (the identity) is the default coil's wire crossing
    write_json(tmp_path / "config.json", {})
    code = main([f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}", *argv])
    assert code == EXIT_REJECTED
    err = capsys.readouterr().err
    assert "SingularEvaluation" in err and all(name in err for name in named)


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
    write_json(tmp_path / "far.json", dump(PoseConstraintInput.two_point(
        [0.0, 0.0, 200.0], [8.0, 0.0, 200.0]
    )))
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=free-skin",
               f"--constraint={tmp_path / 'far.json'}")
    assert code == EXIT_REJECTED


def test_plan_center_too_far_for_exact_distances_is_input_error(project, tmp_path, capsys):
    # every squared distance from the center overflows: an input error, not a crash
    write_json(tmp_path / "huge.json", dump(PoseConstraintInput.two_point(
        [1e300, 0.0, 0.0], [1e300, 8.0, 0.0]
    )))
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=free-skin",
               f"--constraint={tmp_path / 'huge.json'}")
    assert code == EXIT_USAGE
    assert "too far from the mesh" in capsys.readouterr().err


def test_plan_on_a_skin_too_large_for_exact_distances_is_input_error(project, constraints,
                                                                     tmp_path, capsys):
    # the first vertex spelling at 1e300 mm: the mesh, not a query, is named, and no cross
    # product overflows on the way
    text = (project / "skin.stl").read_text()
    first = text.index("vertex ")
    skin = tmp_path / "skin.stl"
    skin.write_text(text[:first] + "vertex 1e300 0 0" + text[text.index("\n", first):])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _plan(project, tmp_path / "out", "free-skin", constraints["two"],
                     skin_mesh=skin) == (EXIT_USAGE, None)
    assert "vertex 0 has a coordinate of 1e75 mm or more: [1e+300, 0.0, 0.0]" in (
        capsys.readouterr().err)


def test_plan_two_point_tail_at_the_center_is_domain_error(project, tmp_path, capsys):
    # a constraint read from JSON gets the same check as PoseConstraintInput.two_point
    write_json(tmp_path / "same.json", {"constraint_kind": "two_point", "center": [0, 0, 70],
                                        "tail_point": [0, 0, 70]})
    code = run(project, f"--out={tmp_path}", "plan", "--strategy=free-skin",
               f"--constraint={tmp_path / 'same.json'}")
    assert code == EXIT_REJECTED
    assert "tail point coincides with the center point" in capsys.readouterr().err


@pytest.fixture(scope="module")
def constraints(project):
    """The two-point constraint and cortex-crown three- and four-point ones, which carry
    their own plane."""
    paths = {"two": project / "constraint.json"}
    for kind, constraint in (
        ("three", PoseConstraintInput.three_point([0, 0, 70], [10, 0, 70], [0, 10, 70])),
        ("four", PoseConstraintInput.four_point([0, 0, 70], [-4, -4, 70], [6, -4, 70],
                                                [-4, 6, 70], tail="p2")),
    ):
        paths[kind] = project / f"constraint_{kind}.json"
        write_json(paths[kind], dump(constraint))
    return paths


def _plan(project, out: Path, strategy: str, constraint: Path, **meshes):
    """(exit code, plan.json bytes or None) of a plan on the project config with the given
    mesh entries replaced by a path, or dropped for None."""
    config = read_json(project / "config.json")
    config.update({k: str(project / config[k]) for k in ("skin_mesh", "cortex_mesh", "landmarks")})
    config.update({k: str(v) for k, v in meshes.items() if v is not None})
    for key in (k for k, v in meshes.items() if v is None):
        del config[key]
    out.mkdir()
    write_json(out / "config.json", config)
    code = main([f"--config={out / 'config.json'}", f"--out={out}", "plan",
                 f"--strategy={strategy}", f"--constraint={constraint}"])
    return code, (out / "plan.json").read_bytes() if code == EXIT_OK else None


@pytest.mark.parametrize("kind", ["three", "four"])
@pytest.mark.parametrize("strategy", ["restricted-cortex", "closest-skin"])
def test_plane_carrying_cortex_plan_reads_no_cortex(project, constraints, tmp_path, strategy,
                                                    kind):
    (tmp_path / "cortex.txt").write_text("not an STL file\n")
    code, plan = _plan(project, tmp_path / "real", strategy, constraints[kind])
    assert code == EXIT_OK
    for cortex, name in ((tmp_path / "cortex.txt", "not_stl"), (None, "absent")):
        assert _plan(project, tmp_path / name, strategy, constraints[kind],
                     cortex_mesh=cortex) == (EXIT_OK, plan)


@pytest.mark.parametrize("strategy", ["restricted-cortex", "closest-skin"])
def test_two_point_cortex_plan_still_reads_the_cortex(project, constraints, tmp_path, capsys,
                                                      strategy):
    (tmp_path / "cortex.txt").write_text("not an STL file\n")
    assert _plan(project, tmp_path / "not_stl", strategy, constraints["two"],
                 cortex_mesh=tmp_path / "cortex.txt") == (EXIT_USAGE, None)
    assert str(tmp_path / "cortex.txt") in capsys.readouterr().err
    assert _plan(project, tmp_path / "absent", strategy, constraints["two"],
                 cortex_mesh=None) == (EXIT_USAGE, None)
    assert "no cortex_mesh entry" in capsys.readouterr().err


def test_four_point_free_skin_plan_reads_no_skin(project, constraints, tmp_path):
    corrupt = tmp_path / "skin.stl"
    corrupt.write_bytes((project / "skin.stl").read_bytes()[:5000])  # cut inside a facet
    code, plan = _plan(project, tmp_path / "real", "free-skin", constraints["four"])
    assert code == EXIT_OK
    assert _plan(project, tmp_path / "corrupt", "free-skin", constraints["four"],
                 skin_mesh=corrupt) == (EXIT_OK, plan)
    assert _plan(project, tmp_path / "two", "free-skin", constraints["two"],
                 skin_mesh=corrupt)[0] == EXIT_USAGE


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


def test_fieldsim_single_loop_keeps_the_configured_turns(project, tmp_path):
    config = read_json(project / "config.json")
    config = {key: config[key] for key in ("coil", "sensor", "train")}  # no meshes needed
    primary = {}
    for turns in (1, 9):
        write_json(tmp_path / "config.json",
                   dict(config, coil=dict(config["coil"], loop_turns=turns)))
        out = tmp_path / str(turns)
        assert main([f"--config={tmp_path / 'config.json'}", f"--out={out}", "fieldsim",
                     "--single-loop", "--standoff=20", "--offsets=0,2,4"]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        primary[turns] = np.array([float(line.split(",")[1]) for line in lines])
    np.testing.assert_allclose(primary[9], 9.0 * primary[1], rtol=1e-12, atol=0.0)


# numpy's wheels ship an OpenBLAS built with DYNAMIC_ARCH, which reads the kernel
# from this variable; an OpenBLAS without it ignores the variable
BLAS_KERNELS = (None, "Haswell", "Prescott", "SandyBridge")
FIXTURES = Path(__file__).parent / "fixtures"
# the control: the chain fixture's commanded pose composed as plain 4x4 products with
# numpy's @, which goes through BLAS, so its bytes differ between kernels wherever the
# variable takes effect
RUN_CONTROL = """
import sys
from pathlib import Path
import numpy as np
from tmsnav.cli import main
from tmsnav.fileio import read_json, write_json
config, out, fixture = sys.argv[1:]
record = read_json(fixture)
m = {(e["from"], e["to"]): np.reshape(e["matrix"], (4, 4)) for e in record["graph"]["edges"]}
plan = np.eye(4)
plan[:3, :3] = np.reshape(record["plan"]["rotation"], (3, 3))
plan[:3, 3] = record["plan"]["translation"]
inv = np.linalg.inv
control = (m["R", "E"] @ m["E", "Cr"] @ inv(m["O", "Cr"]) @ m["O", "Hr"] @ m["Hr", "H"] @ plan
           @ np.diag([1.0, -1.0, -1.0, 1.0]) @ inv(m["Cr", "C"]) @ inv(m["E", "Cr"]))
Path(out).mkdir(parents=True)
write_json(Path(out) / "control.json", {"matrix": control.ravel().tolist()})
"""
RUN_SWEEPS = """
for name, args in (("sweep8", ["--direction=x"]), ("sweep1", ["--single-loop", "--direction=y"])):
    assert main([f"--config={config}", f"--out={out}/{name}", "fieldsim", "--standoff=20",
                 "--offsets=0:10:11", *args]) == 0
"""
RUN_CHAIN = """
inputs = Path(config).parent
for name, args in (("plain", []), ("registered", [f"--registration={inputs / 'registration.json'}"])):
    assert main([f"--out={out}/{name}", "chain", f"--graph={inputs / 'graph.json'}",
                 f"--plan={inputs / 'plan.json'}", *args]) == 0
assert main([f"--config={config}", f"--out={out}/rounded", "chain",
             f"--graph={inputs / 'rounded_graph.json'}", f"--plan={inputs / 'plan.json'}"]) == 0
"""
RUN_SESSIONS = """
for name, args in (("robotic", ["--mode=holding", "--actuation=robotic"]),
                   ("manual", ["--mode=holding", "--actuation=manual"]),
                   ("alignment", ["--mode=alignment", "--actuation=robotic"]),
                   ("rounded", ["--mode=holding", "--actuation=manual",
                                f"--plan={Path(config).parent / 'rounded_plan.json'}"])):
    assert main([f"--config={config}", "--seed=7", f"--out={out}/{name}", "session", *args]) == 0
assert main([f"--out={out}/report", "report", f"--input={out}/manual/session.json"]) == 0
"""

RUN_PHANTOMS = """
from tmsnav.mesh import save_stl
from tmsnav.meshgen import ellipsoid, icosphere
save_stl(icosphere(85.0, 5), Path(out) / "icosphere.stl", name="icosphere")
save_stl(ellipsoid((80.0, 95.0, 70.0), 4), Path(out) / "ellipsoid.stl", name="ellipsoid")
"""
RUN_PLANS = """
inputs = Path(config).parent
for i in range(4):
    for strategy, mesh in (("free-skin", "skin"), ("restricted-cortex", "cortex"),
                           ("closest-skin", "cortex")):
        assert main([f"--config={config}", f"--out={out}/{strategy}{i}", "plan",
                     f"--strategy={strategy}", f"--constraint={inputs / f'{mesh}{i}.json'}"]) == 0
    assert main([f"--config={config}", f"--out={out}/hotspot{i}", "hotspot",
                 f"--plan={out}/free-skin{i}/plan.json", "--rows=5", "--cols=5"]) == 0
"""


def distinct_outputs_per_kernel(tmp_path, script: str, config: dict, outputs) -> dict:
    """Run the control and `script` in a fresh process per kernel; count each output's
    distinct files. Skips where every kernel gives the same control bytes, since the
    variable then selects nothing and one file per output would prove nothing."""
    write_json(tmp_path / "config.json", config)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    files = {}
    for kernel in BLAS_KERNELS:
        out = tmp_path / str(kernel)
        # an overflow in a child fails its test, as pytest's filterwarnings makes it in-process
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                        RUN_CONTROL + script, str(tmp_path / "config.json"), str(out),
                        str(FIXTURES / "chain_seed42.json")],
                       env=dict(env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})),
                       check=True)
        for name in ("control.json", *outputs):
            files.setdefault(name, set()).add((out / name).read_bytes())
    if len(files.pop("control.json")) == 1:
        pytest.skip("OPENBLAS_CORETYPE selects no other BLAS kernel here (numpy without OpenBLAS, "
                    "or an OpenBLAS without DYNAMIC_ARCH): the BLAS-bound control is the same "
                    "under every kernel")
    return {name: len(versions) for name, versions in files.items()}


def test_fieldsim_sweeps_do_not_depend_on_the_blas_kernel(tmp_path):
    # the figure-8 and single-loop sweeps of a benchmark-sized coil
    outputs = ("sweep8/sweep.csv", "sweep1/sweep.csv")
    counts = distinct_outputs_per_kernel(
        tmp_path, RUN_SWEEPS, {"coil": {"segments_per_loop": 256}}, outputs)
    assert counts == dict.fromkeys(outputs, 1)


def test_sessions_do_not_depend_on_the_blas_kernel(tmp_path):
    # the holding-session benchmark's config: the primary winding 20 mm under one wing;
    # and a manual holding session on the chain fixture's plan rounded to 8 decimals, about
    # 1e-8 off orthonormal, as a plan written by hand or by another tool may be
    config = {"coil": {"segments_per_loop": 256},
              "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 35.0, 0, 0, 1, -20.0, 0, 0, 0, 1]}}
    plan = read_json(FIXTURES / "chain_seed42.json")["plan"]
    write_json(tmp_path / "rounded_plan.json", dict(plan, **{
        key: [round(x, 8) for x in plan[key]] for key in ("rotation", "translation")}))
    outputs = [f"{name}/session.{ext}" for name in ("robotic", "manual", "alignment", "rounded")
               for ext in ("json", "csv")] + ["report/report.csv"]
    counts = distinct_outputs_per_kernel(tmp_path, RUN_SESSIONS, config, outputs)
    assert counts == dict.fromkeys(outputs, 1)


def test_chain_does_not_depend_on_the_blas_kernel(tmp_path):
    # the chain fixture's graph and plan, alone and with one fixed registration; and its
    # matrices rounded to 8 decimals, about 1e-8 off orthonormal, the two calibration edges
    # read from the config and the rest from a graph
    record = read_json(FIXTURES / "chain_seed42.json")
    write_json(tmp_path / "graph.json", record["graph"])
    write_json(tmp_path / "plan.json", record["plan"])
    head = RigidTransform(rotation_about_axis([1.0, -2.0, 0.5], 0.3), [4.0, -5.0, 6.0])
    write_json(tmp_path / "registration.json", dump(RegistrationResult(head, 1.0, 0.5, True)))
    rounded = {(e["from"], e["to"]): dict(e, matrix=[round(x, 8) for x in e["matrix"]])
               for e in record["graph"]["edges"]}
    calibration = {"e_to_cr": rounded.pop(("E", "Cr"))["matrix"],
                   "cr_to_c": rounded.pop(("Cr", "C"))["matrix"]}
    write_json(tmp_path / "rounded_graph.json", {"edges": list(rounded.values())})
    outputs = ("plain/commanded.json", "registered/commanded.json", "rounded/commanded.json")
    counts = distinct_outputs_per_kernel(tmp_path, RUN_CHAIN, {"calibration": calibration},
                                         outputs)
    assert counts == dict.fromkeys(outputs, 1)
    # the default kernel's file is the fixture's pinned pose
    pinned = read_json(tmp_path / "None" / "plain" / "commanded.json")["matrix"]
    assert canonical_json(pinned) == canonical_json(record["commanded_matrix"])


def test_phantom_meshes_do_not_depend_on_the_blas_kernel(tmp_path):
    # a 20,480-triangle sphere and a head-sized 5,120-triangle ellipsoid, built in each child:
    # every midpoint norm is a fixed-order sum, so no kernel picks a vertex's rounding
    outputs = ("icosphere.stl", "ellipsoid.stl")
    counts = distinct_outputs_per_kernel(tmp_path, RUN_PHANTOMS, {}, outputs)
    assert counts == dict.fromkeys(outputs, 1)


def test_plans_do_not_depend_on_the_blas_kernel(tmp_path):
    # head-sized ellipsoids of 5,120 triangles, written here once, so each child plans on the
    # same bytes whatever its kernel (test_phantom_meshes_do_not_depend_on_the_blas_kernel
    # pins the builders themselves)
    for name, axes in (("skin", np.array([80.0, 95.0, 70.0])),
                       ("cortex", np.array([65.0, 80.0, 55.0]))):
        save_stl(ellipsoid(axes, 4), tmp_path / f"{name}.stl", name=name)
        # two-point constraints 0.7 mm off the analytic surface, tails along its tangent
        for i, d in enumerate(np.array([[0.3, 0.2, 1.0], [0.9, -0.4, 0.5], [-0.6, 0.7, 0.4],
                                        [-0.2, -0.8, 0.6]])):
            point = d / np.sqrt((d * d / axes ** 2).sum())
            normal = point / axes ** 2
            normal /= np.sqrt((normal * normal).sum())
            center = point + 0.7 * normal
            tail = center + 8.0 * np.cross(normal, [0.0, 0.0, 1.0])
            write_json(tmp_path / f"{name}{i}.json",
                       dump(PoseConstraintInput.two_point(center, tail)))
    config = {"skin_mesh": str(tmp_path / "skin.stl"), "cortex_mesh": str(tmp_path / "cortex.stl")}
    outputs = [f"{name}{i}/{kind}.json" for i in range(4) for name, kind in (
        ("free-skin", "plan"), ("restricted-cortex", "plan"), ("closest-skin", "plan"),
        ("hotspot", "hotspot"))]
    counts = distinct_outputs_per_kernel(tmp_path, RUN_PLANS, config, outputs)
    assert counts == dict.fromkeys(outputs, 1)


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
    r_out = tmp_path / "r"
    assert run(project, f"--out={r_out}", "register",
               f"--cloud={project / 'cloud.json'}") == EXIT_OK
    registration = r_out / "registration.json"
    # JSON outputs: read -> canonical re-dump reproduces the bytes
    for path in (plan, s_out / "session.json", registration):
        assert canonical_json(read_json(path)) == path.read_text()
    # and so does parse -> dump through the library types
    for tp, path in ((PlanPose, plan), (RegistrationResult, registration)):
        assert canonical_json(dump(parse(tp, read_json(path), path.stem))) == path.read_text()
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


def test_repeated_calls_in_one_process_are_independent(project, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert run(project, "--seed=9", f"--out={tmp_path / 'a'}", "session", "--svg") == EXIT_OK
    assert (tmp_path / "a" / "session.svg").is_file()
    assert run(project, f"--out={tmp_path / 'b'}", "session") == EXIT_OK
    assert run(project, "session", "--mode=bogus") == EXIT_USAGE
    assert run(project, f"--out={tmp_path / 'c'}", "session") == EXIT_OK
    assert not (tmp_path / "b" / "session.svg").exists()
    assert tree_bytes(tmp_path / "c") == tree_bytes(tmp_path / "b")
    # the flags of the first call left no trace: no seed means seed 0
    assert run(project, "--seed=0", f"--out={tmp_path / 'd'}", "session") == EXIT_OK
    assert tree_bytes(tmp_path / "d") == tree_bytes(tmp_path / "b")


def plan_mix(root: Path, out: Path) -> list[list[str]]:
    """Free-skin, restricted-cortex and closest-skin plans, a hotspot grid and a chain, each
    plan on a two-point constraint, so every plan reads the meshes it places it on."""
    cfg = f"--config={root / 'config.json'}"
    return [
        [cfg, f"--out={out}/free", "plan", "--strategy=free-skin",
         f"--constraint={root / 'skin_constraint.json'}"],
        [cfg, f"--out={out}/restricted", "plan", "--strategy=restricted-cortex",
         f"--constraint={root / 'cortex_constraint.json'}"],
        [cfg, f"--out={out}/closest", "plan", "--strategy=closest-skin",
         f"--constraint={root / 'cortex_constraint.json'}"],
        [cfg, f"--out={out}/hotspot", "hotspot", f"--plan={out}/free/plan.json", "--rows=5",
         "--cols=5", f"--responses={root / 'responses.json'}"],
        [cfg, f"--out={out}/chain", "chain", f"--graph={root / 'graph.json'}",
         f"--plan={out}/closest/plan.json"],
    ]


def test_repeated_plans_in_one_process_reuse_meshes_and_write_fresh_process_bytes(
        tmp_path, monkeypatch):
    # from the second round on the meshes come from load_stl's kept table, their indexes
    # already built; every round must still write the bytes of a fresh process
    monkeypatch.setattr(mesh_module, "_kept", {})
    for name, axes, offset in (("skin", np.array([80.0, 95.0, 70.0]), 0.7),
                               ("cortex", np.array([65.0, 80.0, 55.0]), -5.0)):
        save_stl(ellipsoid(axes, 3), tmp_path / f"{name}.stl", name=name)
        d = np.array([0.3, 0.2, 1.0])
        point = d / np.sqrt((d * d / axes ** 2).sum())
        normal = point / axes ** 2
        normal /= np.sqrt((normal * normal).sum())
        center = point + offset * normal
        write_json(tmp_path / f"{name}_constraint.json", dump(PoseConstraintInput.two_point(
            center, center + 8.0 * np.cross(normal, [0.0, 0.0, 1.0]))))
    write_json(tmp_path / "config.json", {"skin_mesh": "skin.stl", "cortex_mesh": "cortex.stl"})
    write_json(tmp_path / "responses.json", {"responses": [float(i % 7) for i in range(25)]})
    write_json(tmp_path / "graph.json", read_json(FIXTURES / "chain_seed42.json")["graph"])

    def files(out: Path) -> dict:
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()}

    rounds = []
    for k in range(3):
        for argv in plan_mix(tmp_path, tmp_path / f"round{k}"):
            assert main(argv) == EXIT_OK
        rounds.append(files(tmp_path / f"round{k}"))
    assert sum(entry is not None for entry in mesh_module._kept.values()) == 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c",
                    "import json, sys\nfrom tmsnav.cli import main\n"
                    "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0\n",
                    json.dumps(plan_mix(tmp_path, tmp_path / "fresh"))], env=env, check=True)
    assert len(rounds[0]) == 5  # three plan.json, hotspot.json and commanded.json
    assert rounds[1] == rounds[0] and rounds[2] == rounds[0]
    assert files(tmp_path / "fresh") == rounds[0]

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
    write_json(root / "constraint.json", dump(PoseConstraintInput.two_point(
        [0.0, 0.0, 70.0], [8.0, 0.0, 70.0])))
    write_json(root / "constraint4.json", dump(PoseConstraintInput.four_point(
        [0.0, 0.0, 70.0], [0.0, 0.0, 70.0], [1.0, 0.0, 70.0], [0.0, 1.0, 70.0])))
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
    # counts no float holds exactly: a count scales a float, and 10**400 overflowed there
    "pulses_per_train 10**400": ("config", lambda d: _with(d, "train.pulses_per_train", 10**400),
                                 "config.train.pulses_per_train"),
    "loop_turns 10**400": ("config", lambda d: _with(d, "coil.loop_turns", 10**400),
                           "config.coil.loop_turns"),
    "turns_per_axis 10**400": ("config", lambda d: _with(d, "sensor.turns_per_axis", 10**400),
                               "config.sensor.turns_per_axis"),
    "loop_turns 2**53 + 1": ("config", lambda d: _with(d, "coil.loop_turns", 2**53 + 1),
                             "config.coil.loop_turns"),
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
    "wing_senses [2, -1]": ("config", lambda d: _with(d, "coil.wing_senses", [2, -1]),
                            "coil.wing_senses"),
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
    ([f"--seed={2**53 + 1}", "session", "--mode=alignment"], "--seed"),  # session.json reads back
    (["fieldsim", "--direction=1e300,1e300,0"], "--direction"),  # its squared length overflows
])
def test_bad_flag_value_is_usage_error_naming_the_flag(tiny, tmp_path, capsys, argv, named):
    if argv[0] == "hotspot":
        argv = [*argv, f"--plan={tiny / 'plan.json'}"]
    code = main([f"--config={tiny / 'config.json'}", f"--out={tmp_path}", *argv])
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err


# flags whose products overflow a float with the tiny config: (command, output file, text
# stderr names)
OVERFLOWING = {
    "standoff 1e300": (["fieldsim", "--standoff=1e300", "--offsets=0,2"], "sweep.csv", "column"),
    "offsets to 1e300": (["fieldsim", "--offsets=0:1e300:3"], "sweep.csv", "column"),
}


def _fresh_cli(tmp_path, config: dict, argv, *flags) -> subprocess.CompletedProcess:
    """`python *flags -m tmsnav.cli` in a fresh process, as a user runs it (in-process,
    pytest's filterwarnings would turn the first numpy warning into an error), on `config`
    written to tmp_path and with its outputs in tmp_path / "out"."""
    write_json(tmp_path / "config.json", config)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-m", "tmsnav.cli",
                           f"--config={tmp_path / 'config.json'}", f"--out={tmp_path / 'out'}",
                           *argv], env=env, capture_output=True, text=True, check=False)


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_inputs_are_usage_errors_that_write_no_output(tiny, tmp_path, case):
    argv, output, named = OVERFLOWING[case]
    proc = _fresh_cli(tmp_path, read_json(tiny / "config.json"), argv)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    error = proc.stderr.strip().splitlines()[-1]
    assert error.startswith(f"error: cannot write {tmp_path / 'out' / output}") and named in error
    assert not (tmp_path / "out" / output).exists()


# config values outside their field's interval: (key, value, command). Unbounded, the large
# ones overflowed, and only the writer refused them, after numpy's warnings; a negative
# current wrote negative voltages
OUT_OF_RANGE = {
    "sensor radius 1e200": ("sensor.loop_radius_mm", 1e200, ["fieldsim", "--offsets=0,2"]),
    "coil radius 1e300": ("coil.loop_radius_mm", 1e300, ["fieldsim", "--offsets=0,2"]),
    "wing offset 1e300": ("coil.wing_center_offset_mm", 1e300, ["fieldsim", "--offsets=0,2"]),
    "sweep current 1e308": ("coil.peak_current_a", 1e308, ["fieldsim", "--offsets=0,2"]),
    "negative current": ("coil.peak_current_a", -5000.0, ["fieldsim", "--offsets=0,2"]),
    "session current 1e308": ("coil.peak_current_a", 1e308, ["session"]),
    "session frequency 1e308": ("train.pulse_frequency_hz", 1e308, ["session"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_config_values_exit_64_naming_the_key(tiny, tmp_path, case):
    # refused as the config is read, before the output directory is made: one line on
    # stderr, with no numpy warning before it
    key, value, argv = OUT_OF_RANGE[case]
    proc = _fresh_cli(tmp_path, _with(read_json(tiny / "config.json"), key, value), argv,
                      "-W", "error::RuntimeWarning")
    section, name = key.split(".")
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith(f"error: config.{section}: {name} must be in ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert not (tmp_path / "out").exists()


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
