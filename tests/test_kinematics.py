from pathlib import Path

import numpy as np
import pytest

from tmsnav.errors import MissingEdge, StaleSnapshot
from tmsnav.fileio import canonical_json, parse, read_json
from tmsnav.kinematics import (
    APPROACH_FLIP,
    CANONICAL_EDGES,
    FrameGraph,
    GraphDocument,
    GraphEdge,
    achieved_coil_pose,
    chain,
    pose_error,
    solve_commanded_end_effector,
)
from tmsnav.pose_plan import PlanPose, PoseConstraintInput, Strategy, pose_from_constraint
from tmsnav.transforms import (
    RigidTransform,
    compose,
    invert,
    random_transform,
    rotation_about_axis,
    rotation_angle,
)

FIXTURES = Path(__file__).parent / "fixtures"


def random_graph(rng, timestamps=False):
    edges = {}
    for i, (pair, provenance) in enumerate(sorted(CANONICAL_EDGES.items())):
        stamp = float(i) if timestamps else None
        edges[pair] = GraphEdge(random_transform(rng), provenance, stamp)
    return FrameGraph(edges)


def plan_from_transform(t: RigidTransform) -> PlanPose:
    con = PoseConstraintInput.four_point(
        t.translation, [0, 0, 0], [1, 0, 0], [0, 1, 0], tail="p1"
    )
    base = pose_from_constraint(con)
    return PlanPose(t, Strategy.FREE_SKIN, base.source)


def random_plan(rng) -> PlanPose:
    return plan_from_transform(random_transform(rng))


# --- chain ---------------------------------------------------------------------

def test_chain_single_edge():
    rng = np.random.default_rng(51)
    t = random_transform(rng)
    graph = FrameGraph({("R", "E"): GraphEdge(t, "sensor")})
    out = chain(graph, "R", "E")
    np.testing.assert_array_equal(out.rotation, t.rotation)
    np.testing.assert_array_equal(out.translation, t.translation)


def test_chain_reverse_is_inverse():
    rng = np.random.default_rng(52)
    t = random_transform(rng)
    graph = FrameGraph({("R", "E"): GraphEdge(t, "sensor")})
    out = chain(graph, "E", "R")
    expected = invert(t)
    np.testing.assert_allclose(out.to_matrix(), expected.to_matrix(), atol=1e-12)


def test_chain_h_to_c_matches_hand_written_composition():
    rng = np.random.default_rng(53)
    graph = random_graph(rng)
    out = chain(graph, "H", "C")
    # independent composition with plain homogeneous matrices:
    # {H->C} = inv({Hr->H}) then inv({O->Hr}) then {O->Cr} then {Cr->C}
    def m(pair):
        return graph.edges[pair].transform.to_matrix()

    expected = (
        np.linalg.inv(m(("Hr", "H")))
        @ np.linalg.inv(m(("O", "Hr")))
        @ m(("O", "Cr"))
        @ m(("Cr", "C"))
    )
    np.testing.assert_allclose(out.to_matrix(), expected, atol=1e-9)


def test_chain_symmetry_all_pairs():
    rng = np.random.default_rng(54)
    graph = random_graph(rng)
    frames = ("R", "E", "C", "Cr", "O", "H", "Hr", "b")
    for a in frames:
        for b in frames:
            if a == b:
                continue
            fwd = chain(graph, a, b)
            back = chain(graph, b, a)
            ident = compose(fwd, back)
            assert np.abs(ident.rotation - np.eye(3)).max() <= 1e-12
            assert np.linalg.norm(ident.translation) <= 1e-9


def test_chain_missing_edge_is_named():
    rng = np.random.default_rng(55)
    edges = {("R", "E"): GraphEdge(random_transform(rng), "sensor")}
    graph = FrameGraph(edges)
    with pytest.raises(MissingEdge) as err:
        chain(graph, "R", "C")
    assert err.value.edge == ("E", "Cr")


def test_graph_rejects_unknown_edge():
    rng = np.random.default_rng(56)
    with pytest.raises(ValueError):
        FrameGraph({("R", "C"): GraphEdge(random_transform(rng), "sensor")})


def test_graph_json_round_trip():
    rng = np.random.default_rng(57)
    graph = random_graph(rng, timestamps=True)
    back = parse(GraphDocument, graph.to_dict(), "graph").graph()
    assert canonical_json(back.to_dict()) == canonical_json(graph.to_dict())


# --- solve_commanded_end_effector -------------------------------------------------

def identity_graph():
    return FrameGraph(
        {pair: GraphEdge(RigidTransform.identity(), prov)
         for pair, prov in CANONICAL_EDGES.items()}
    )


def test_solve_identity_chain_returns_flip():
    plan = plan_from_transform(RigidTransform.identity())
    out = solve_commanded_end_effector(identity_graph(), plan)
    np.testing.assert_allclose(out.to_matrix(), APPROACH_FLIP.to_matrix(), atol=1e-15)


def test_solve_round_trip_random_graphs():
    rng = np.random.default_rng(58)
    for _ in range(50):
        graph = random_graph(rng)
        plan = random_plan(rng)
        commanded = solve_commanded_end_effector(graph, plan)
        achieved = achieved_coil_pose(graph, commanded)
        target = compose(
            compose(compose(graph.edge("O", "Hr"), graph.edge("Hr", "H")), plan.pose),
            APPROACH_FLIP,
        )
        assert rotation_angle(achieved.rotation.T @ target.rotation) <= 1e-9
        assert np.linalg.norm(achieved.translation - target.translation) <= 1e-9


def test_solve_missing_edge():
    rng = np.random.default_rng(59)
    edges = {
        pair: GraphEdge(random_transform(rng), prov)
        for pair, prov in CANONICAL_EDGES.items()
        if pair != ("O", "Hr")
    }
    with pytest.raises(MissingEdge) as err:
        solve_commanded_end_effector(FrameGraph(edges), random_plan(rng))
    assert err.value.edge == ("O", "Hr")


def test_solve_stale_snapshot():
    rng = np.random.default_rng(60)
    edges = {}
    for pair, prov in CANONICAL_EDGES.items():
        stamp = None
        if prov in ("sensor", "tracker"):
            stamp = 0.0 if pair != ("O", "Hr") else 80.0
        edges[pair] = GraphEdge(random_transform(rng), prov, stamp)
    graph = FrameGraph(edges)
    with pytest.raises(StaleSnapshot):
        solve_commanded_end_effector(graph, random_plan(rng))
    # a looser bound admits the same snapshot
    solve_commanded_end_effector(graph, random_plan(rng), snapshot_skew_ms=100.0)


def test_solve_regression_fixture_is_byte_stable():
    record = read_json(FIXTURES / "chain_seed42.json")
    graph = parse(GraphDocument, record["graph"], "graph").graph()
    plan = parse(PlanPose, record["plan"], "plan")
    commanded = solve_commanded_end_effector(graph, plan)
    out = {"matrix": [float(x) for x in commanded.to_matrix().reshape(16)]}
    assert canonical_json(out) == canonical_json({"matrix": record["commanded_matrix"]})


# --- pose_error --------------------------------------------------------------------

def test_pose_error_zero():
    rng = np.random.default_rng(61)
    t = random_transform(rng)
    err = pose_error(t, t)
    assert err.translation_error_mm == 0.0
    assert err.rotation_error_rad <= 1e-12


def test_pose_error_eight_degree_anchor():
    planned = RigidTransform.identity()
    rng = np.random.default_rng(62)
    for _ in range(10):
        axis = rng.normal(size=3)
        measured = RigidTransform(rotation_about_axis(axis, np.deg2rad(8.0)), np.zeros(3))
        err = pose_error(planned, measured)
        assert err.rotation_error_rad == pytest.approx(0.1396, abs=5e-5)


def test_pose_error_quarter_degree_anchor():
    planned = RigidTransform.identity()
    measured = RigidTransform(
        rotation_about_axis([0.2, 0.5, 1.0], np.deg2rad(0.15)), np.zeros(3)
    )
    err = pose_error(planned, measured)
    assert err.rotation_error_rad == pytest.approx(2.618e-3, abs=5e-7)


def test_pose_error_components_in_planned_frame():
    planned = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), [10.0, 0.0, 0.0])
    measured = RigidTransform(planned.rotation, [10.0, 3.0, 0.0])
    err = pose_error(planned, measured)
    assert err.translation_error_mm == pytest.approx(3.0, abs=1e-12)
    # world +y maps to the planned frame's +x (planned x points along world y)
    np.testing.assert_allclose(err.translation_components_mm, [3.0, 0.0, 0.0], atol=1e-12)


def test_pose_error_rotation_symmetry():
    rng = np.random.default_rng(63)
    for _ in range(25):
        a = random_transform(rng)
        b = random_transform(rng)
        assert pose_error(a, b).rotation_error_rad == pytest.approx(
            pose_error(b, a).rotation_error_rad, abs=1e-12
        )


def test_pose_error_zero_iff_equal():
    rng = np.random.default_rng(64)
    a = random_transform(rng)
    b = RigidTransform(
        a.rotation @ rotation_about_axis([1, 0, 0], 1e-6), a.translation + [1e-7, 0, 0]
    )
    err = pose_error(a, b)
    assert err.rotation_error_rad > 1e-12
    assert err.translation_error_mm > 1e-12
