import numpy as np
import pytest

from tmsnav.errors import (
    DegenerateCorrespondences,
    DegenerateLandmarks,
    MismatchedLandmarks,
)
from tmsnav.fileio import parse
from tmsnav.mesh import sample_surface
from tmsnav.meshgen import ellipsoid, icosphere
from tmsnav.registration import (
    IcpConfig,
    LandmarkSet,
    RegistrationResult,
    fiducial_residual_report,
    icp_refine,
    pairpoint_register,
    solve_rigid,
)
from tmsnav.transforms import (
    RigidTransform,
    compose,
    invert,
    random_transform,
    rotation_about_axis,
    rotation_angle,
)

NAMES6 = ("nose_tip", "nasion", "mid_eyes", "tragus_l", "tragus_r", "inion")


def landmark_fixture(rng, transform, noise=0.0):
    probe = rng.uniform(-80.0, 80.0, size=(6, 3))
    image = transform.apply(probe)
    if noise:
        image = image + rng.normal(scale=noise, size=image.shape)
    return LandmarkSet(NAMES6, image, probe)


# --- pairpoint ---------------------------------------------------------------

def test_identity_registration():
    rng = np.random.default_rng(31)
    lm = landmark_fixture(rng, RigidTransform.identity())
    res = pairpoint_register(lm)
    assert res.pairpoint_residual_mean <= 1e-12
    assert res.accepted
    np.testing.assert_allclose(res.transform.rotation, np.eye(3), atol=1e-12)


def test_recovers_known_transform():
    rng = np.random.default_rng(32)
    truth = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), [5.0, -3.0, 2.0])
    lm = landmark_fixture(rng, truth)
    res = pairpoint_register(lm)
    assert res.pairpoint_residual_mean <= 1e-9
    np.testing.assert_allclose(res.transform.rotation, truth.rotation, atol=1e-11)
    np.testing.assert_allclose(res.transform.translation, truth.translation, atol=1e-9)


def test_noiseless_exactness_many_trials():
    rng = np.random.default_rng(33)
    for _ in range(200):
        lm = landmark_fixture(rng, random_transform(rng))
        assert pairpoint_register(lm).pairpoint_residual_mean <= 1e-9


def test_permutation_invariance():
    rng = np.random.default_rng(34)
    lm = landmark_fixture(rng, random_transform(rng), noise=1.0)
    perm = rng.permutation(6)
    shuffled = LandmarkSet(
        tuple(lm.names[i] for i in perm), lm.image_points[perm], lm.probe_points[perm]
    )
    a = pairpoint_register(lm)
    b = pairpoint_register(shuffled)
    np.testing.assert_allclose(b.transform.rotation, a.transform.rotation, atol=1e-12)
    np.testing.assert_allclose(b.transform.translation, a.transform.translation, atol=1e-10)
    assert b.pairpoint_residual_mean == pytest.approx(a.pairpoint_residual_mean, abs=1e-10)


def fibonacci_axes(n):
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def oracle_best_proper_rotation_rms(probe, image, n_axes=2000):
    """Coarse exhaustive search over proper rotations (1 deg angle grid),
    translation resolved by centroid matching; returns the best RMS pair
    residual found (the solver's least-squares objective)."""
    axes = fibonacci_axes(n_axes)
    angles = np.deg2rad(np.arange(0, 181))
    p = probe - probe.mean(axis=0)
    q = image - image.mean(axis=0)
    best = np.inf
    k = np.zeros((len(axes), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -axes[:, 2], axes[:, 1]
    k[:, 1, 0], k[:, 1, 2] = axes[:, 2], -axes[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -axes[:, 1], axes[:, 0]
    kk = np.einsum("nij,njk->nik", k, k)
    for ang in angles:
        r = np.eye(3) + np.sin(ang) * k + (1.0 - np.cos(ang)) * kk  # (n,3,3)
        moved = np.einsum("nij,mj->nmi", r, p)
        rms = np.sqrt((np.linalg.norm(moved - q, axis=2) ** 2).mean(axis=1))
        best = min(best, float(rms.min()))
    return best


def test_mirrored_set_det_correction_vs_exhaustive_oracle():
    rng = np.random.default_rng(35)
    probe = rng.uniform(-40.0, 40.0, size=(6, 3))
    image = probe * np.array([1.0, 1.0, -1.0])  # reflection through z=0
    lm = LandmarkSet(NAMES6, image, probe)
    res = pairpoint_register(lm)
    r = res.transform.rotation
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
    svd_rms = np.sqrt(
        (np.linalg.norm(res.transform.apply(probe) - image, axis=1) ** 2).mean()
    )
    oracle = oracle_best_proper_rotation_rms(probe, image)
    # the solve is optimal for this objective; no sampled rotation beats it,
    # and the ~4.5 deg axis grid at 40 mm extent bounds the gap from above
    assert svd_rms <= oracle + 1e-9
    assert oracle - svd_rms <= 2.0


def test_collinear_landmarks_rejected():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    with pytest.raises(DegenerateLandmarks):
        LandmarkSet(("a", "b", "c", "d"), pts, pts)


def test_too_few_landmarks_rejected():
    pts = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    with pytest.raises(DegenerateLandmarks):
        LandmarkSet(("a", "b"), pts, pts)


def test_acceptance_gate_straddles_pairpoint_threshold():
    rng = np.random.default_rng(36)
    lm = landmark_fixture(rng, random_transform(rng), noise=8.0)
    res = pairpoint_register(lm)
    r = res.pairpoint_residual_mean
    assert r > 0.0
    below = pairpoint_register(lm, pairpoint_threshold_mm=r + 1e-9)
    above = pairpoint_register(lm, pairpoint_threshold_mm=r - 1e-9)
    assert below.accepted and not above.accepted
    # exact equality sits on the accepting side
    at = pairpoint_register(lm, pairpoint_threshold_mm=r)
    assert at.accepted


# --- ICP ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def head():
    # coarse faceting is fine here: clouds are sampled on the mesh itself
    return ellipsoid((80.0, 95.0, 70.0), subdivisions=2)


def test_icp_fixed_point(head):
    rng = np.random.default_rng(37)
    cloud = sample_surface(head, 50, rng)
    res = icp_refine(head, cloud, RigidTransform.identity())
    assert res.icp_residual_mean <= 1e-9
    assert res.iterations == 1
    assert res.converged


def test_icp_recovers_perturbed_pose(head):
    rng = np.random.default_rng(38)
    truth = RigidTransform(rotation_about_axis([0.3, 1.0, 0.2], 0.03), [2.0, -1.0, 3.0])
    cloud_image = sample_surface(head, 200, rng)
    cloud_probe = invert(truth).apply(cloud_image)
    perturb = RigidTransform(
        rotation_about_axis(rng.normal(size=3), np.deg2rad(5.0)), [3.0, -3.0, 2.0]
    )
    init = compose(perturb, truth)
    # the point-to-point solve shrinks tangential error linearly; a 5 deg
    # start needs a few hundred sweeps (and a tight improvement cutoff) to
    # settle below the 0.1 deg target
    res = icp_refine(
        head, cloud_probe, init,
        IcpConfig(max_iterations=2000, convergence_delta_mm=1e-5),
    )
    assert res.converged
    assert rotation_angle(res.transform.rotation.T @ truth.rotation) <= np.deg2rad(0.1)
    assert np.linalg.norm(res.transform.translation - truth.translation) <= 0.1
    assert res.icp_residual_mean <= 0.05


def test_icp_residual_monotone_history(head):
    rng = np.random.default_rng(39)
    cloud = invert(
        RigidTransform(rotation_about_axis([1, 1, 0], 0.08), [4.0, 2.0, -3.0])
    ).apply(sample_surface(head, 120, rng))
    init = RigidTransform.identity()
    res = icp_refine(head, cloud, init)
    hist = np.array(res.residual_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_icp_rejects_when_residual_above_gate():
    rng = np.random.default_rng(40)
    inner = icosphere(85.0, subdivisions=3)
    inflated = icosphere(90.0, subdivisions=3)
    cloud = sample_surface(inner, 80, rng)
    res = icp_refine(inflated, cloud, RigidTransform.identity(),
                     pairpoint_residual_mean=1.0)
    assert res.icp_residual_mean > 2.0
    assert not res.accepted


def test_icp_non_converged_flag(head):
    rng = np.random.default_rng(41)
    cloud = invert(
        RigidTransform(rotation_about_axis([0, 1, 0], 0.3), [10.0, 5.0, -8.0])
    ).apply(sample_surface(head, 60, rng))
    res = icp_refine(head, cloud, RigidTransform.identity(),
                     IcpConfig(max_iterations=2))
    assert res.iterations == 2
    assert not res.converged


def test_icp_cloud_too_small(head):
    with pytest.raises(DegenerateCorrespondences):
        icp_refine(head, np.zeros((5, 3)), RigidTransform.identity())


def test_icp_degenerate_correspondences():
    from tmsnav.mesh import TriangleMesh

    needle = TriangleMesh(
        [[0, 0, 0], [100, 0, 0], [50, 1e-7, 0]], [[0, 1, 2]]
    )
    rng = np.random.default_rng(42)
    cloud = rng.uniform(0, 100, size=(20, 3))
    with pytest.raises(DegenerateCorrespondences):
        icp_refine(needle, cloud, RigidTransform.identity())


def test_icp_trimming_ignores_outliers(head):
    rng = np.random.default_rng(43)
    truth = RigidTransform(rotation_about_axis([0, 0, 1], 0.02), [1.0, 2.0, 0.5])
    cloud = invert(truth).apply(sample_surface(head, 150, rng))
    spoiled = np.concatenate([cloud, rng.uniform(180, 220, size=(15, 3))])
    res = icp_refine(head, spoiled, RigidTransform.identity(),
                     IcpConfig(trim_fraction=0.15))
    assert rotation_angle(res.transform.rotation.T @ truth.rotation) <= np.deg2rad(0.75)
    assert np.linalg.norm(res.transform.translation - truth.translation) <= 0.5


# --- fiducial report ------------------------------------------------------------

def test_report_identity_all_zero():
    rng = np.random.default_rng(44)
    lm = landmark_fixture(rng, RigidTransform.identity())
    res = pairpoint_register(lm)
    report = fiducial_residual_report(res, lm)
    assert all(row["residual_mm"] <= 1e-12 for row in report["rows"])
    assert report["max_mm"] <= 1e-12


def test_report_rows_match_direct_recomputation():
    rng = np.random.default_rng(45)
    truth = random_transform(rng)
    probe = rng.uniform(-60, 60, size=(6, 3))
    image = truth.apply(probe)
    image[2] += np.array([0.0, 0.0, 3.0])  # one displaced landmark
    lm = LandmarkSet(NAMES6, image, probe)
    res = pairpoint_register(lm)
    report = fiducial_residual_report(res, lm)
    by_name = {row["name"]: row["residual_mm"] for row in report["rows"]}
    recomputed = np.linalg.norm(res.transform.apply(probe) - image, axis=1)
    for name, r in zip(NAMES6, recomputed):
        assert by_name[name] == pytest.approx(r, abs=1e-12)
    # the displaced landmark dominates
    assert max(by_name, key=by_name.get) == NAMES6[2]


def test_report_mean_consistency_and_ordering():
    rng = np.random.default_rng(46)
    lm = landmark_fixture(rng, random_transform(rng), noise=2.0)
    res = pairpoint_register(lm)
    report = fiducial_residual_report(res, lm)
    mean = np.mean([row["residual_mm"] for row in report["rows"]])
    assert mean == pytest.approx(res.pairpoint_residual_mean, abs=1e-12)
    assert [row["name"] for row in report["rows"]] == sorted(NAMES6)


def test_report_mismatched_landmarks_raises():
    rng = np.random.default_rng(47)
    lm = landmark_fixture(rng, random_transform(rng), noise=2.0)
    other = landmark_fixture(rng, random_transform(rng), noise=2.0)
    res = pairpoint_register(lm)
    with pytest.raises(MismatchedLandmarks):
        fiducial_residual_report(res, other)


# --- serialization ----------------------------------------------------------------

def test_registration_result_round_trip(head):
    rng = np.random.default_rng(48)
    lm = landmark_fixture(rng, random_transform(rng), noise=1.0)
    res = pairpoint_register(lm)
    back = parse(RegistrationResult, res.to_dict(), "registration")
    assert back.to_dict() == res.to_dict()
    back_lm = parse(LandmarkSet, lm.to_dict(), "landmarks")
    assert back_lm.to_dict() == lm.to_dict()


def test_solve_rigid_composition_property():
    rng = np.random.default_rng(49)
    pts = rng.uniform(-50, 50, size=(10, 3))
    t1 = random_transform(rng)
    fit = solve_rigid(pts, t1.apply(pts))
    np.testing.assert_allclose(fit.to_matrix(), t1.to_matrix(), atol=1e-9)
