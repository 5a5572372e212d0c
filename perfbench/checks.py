"""Output checks. Each command's outputs are checked against the
benchmark's own geometry and ground truth; every check that does not
hold counts the command as failed.

Semantic checks run on the first occurrence of each command; a repeated
identical command must reproduce that occurrence byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from phantoms import apply, point_mesh_distance

ROTATION_TOL = 1e-9
ON_SURFACE_TOL_MM = 1e-6
CHAIN_TOL_MM = 1e-6
STABILITY_RATIO = 10.0  # manual primary std over robotic, as in criterion 7
FIELD_ORACLE_TOL = 1e-3
FLIP = np.diag([1.0, -1.0, -1.0, 1.0])  # plan z outward -> coil z into the head


def _arg(argv: list, flag: str) -> str | None:
    for a in argv:
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def _rotation_errors(r) -> list:
    r = np.asarray(r, float).reshape(3, 3)
    errs = []
    if np.abs(r.T @ r - np.eye(3)).max() > ROTATION_TOL:
        errs.append("rotation not orthonormal at 1e-9")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        errs.append("rotation determinant not +1 at 1e-9")
    return errs


def _pose_errors(pose: dict, skin) -> list:
    errs = _rotation_errors(pose["rotation"])
    d = point_mesh_distance(*skin, pose["translation"])
    if d > ON_SURFACE_TOL_MM:
        errs.append(f"pose centre {d:.3g} mm off the skin")
    return errs


def _matrix(values) -> np.ndarray:
    return np.asarray(values, float).reshape(4, 4)


def _finite_csv(path: Path, rows_expected: int | None = None, labels: int = 0) -> list:
    """Every value finite (after `labels` leading text columns), row count as expected."""
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    values = [float(x) for row in rows for x in row[labels:]]
    errs = [] if all(math.isfinite(v) for v in values) else [f"{path.name}: non-finite value"]
    if rows_expected is not None and len(rows) != rows_expected:
        errs.append(f"{path.name}: {len(rows)} rows, expected {rows_expected}")
    return errs


def _plan(out: Path, argv, wl, k) -> list:
    return _pose_errors(json.loads((out / "plan.json").read_text()), wl.truth["skin"])


def _hotspot(out: Path, argv, wl, k) -> list:
    doc = json.loads((out / "hotspot.json").read_text())
    errs = [e for pose in doc["poses"] for e in _pose_errors(pose, wl.truth["skin"])]
    if doc.get("selected_index") != int(np.argmax(wl.truth["responses"])):
        errs.append("selected hotspot is not the highest response")
    return errs


def _chain(out: Path, argv, wl, k) -> list:
    edges = {(e["from"], e["to"]): _matrix(e["matrix"]) for e in wl.truth["graph"]["edges"]}
    plan = json.loads(Path(_arg(argv, "--plan")).read_text())
    p = np.eye(4)
    p[:3, :3] = np.asarray(plan["rotation"], float).reshape(3, 3)
    p[:3, 3] = plan["translation"]
    inv = np.linalg.inv
    r_o = edges["R", "E"] @ edges["E", "Cr"] @ inv(edges["O", "Cr"])
    want = (r_o @ edges["O", "Hr"] @ edges["Hr", "H"] @ p @ FLIP
            @ inv(edges["Cr", "C"]) @ inv(edges["E", "Cr"]))
    got = _matrix(json.loads((out / "commanded.json").read_text())["matrix"])
    errs = _rotation_errors(got[:3, :3])
    if np.abs(got - want).max() > CHAIN_TOL_MM:
        errs.append(f"commanded pose off by {np.abs(got - want).max():.3g}")
    return errs


def icp_error_mm(out: Path, subject: dict) -> float:
    """Mean distance between recovered and true landmark positions, mm."""
    got = _matrix(json.loads((out / "registration.json").read_text())["matrix"])
    q = subject["probe_true"]
    return float(np.linalg.norm(apply(got, q) - apply(subject["truth"], q), axis=1).mean())


def _register(out: Path, argv, wl, k) -> list:
    doc = json.loads((out / "registration.json").read_text())
    errs = _rotation_errors(_matrix(doc["matrix"])[:3, :3])
    if not doc["accepted"]:
        errs.append("registration rejected")
    subject = wl.truth["subjects"][k]
    err = icp_error_mm(out, subject)
    if not err < subject["start_error_mm"]:
        errs.append(f"icp_error_mm {err:.3f} not below the landmark fit's "
                    f"{subject['start_error_mm']:.3f} mm it started from")
    return errs


def _session(out: Path, argv, wl, k) -> list:
    doc = json.loads((out / "session.json").read_text())
    values = [v for s in doc["stats"].values() for v in s.values()]
    values += [v for s in doc["samples"] for v in s.get("voltages_vpp", [])]
    errs = [] if all(math.isfinite(v) for v in values) else ["session: non-finite value"]
    if _arg(argv, "--actuation") == "manual":
        robotic = json.loads((out.parent / "robotic" / "session.json").read_text())
        rob = robotic["stats"]["primary_vpp"]["std"]
        man = doc["stats"]["primary_vpp"]["std"]
        if not man >= STABILITY_RATIO * rob:
            errs.append(f"manual/robotic primary_vpp std ratio {man / rob:.2f} < 10")
    return errs + _finite_csv(out / "session.csv")


def _fieldsim(out: Path, argv, wl, k) -> list:
    count = int(_arg(argv, "--offsets").split(":")[2])
    return _finite_csv(out / "sweep.csv", count)


def _report(out: Path, argv, wl, k) -> list:
    return _finite_csv(out / "report.csv", labels=1)


CHECKS = {"plan": _plan, "hotspot": _hotspot, "chain": _chain, "register": _register,
          "session": _session, "fieldsim": _fieldsim, "report": _report}


def _digest_tree(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_commands(wl, commands: list, out_root: Path) -> list:
    """Failure messages per command, in order (empty list = command passed).

    `commands` carry the round template, command index, output directory
    and exit code; commands of the same template and index are identical.
    """
    reference: dict = {}
    failures = []
    for c in commands:
        template = wl.rounds[c["template"]][c["index"]]
        argv = [a.replace("{r}", str(out_root / c["dir"])) for a in template["argv"]]
        out = Path(_arg(argv, "--out"))
        errs = [] if c["code"] == 0 else [f"exit code {c['code']}"]
        if not errs:
            key = (c["template"], c["index"])
            digests = _digest_tree(out)
            if key not in reference:
                reference[key] = digests
                try:
                    errs += CHECKS[c["kind"]](out, argv, wl, c["template"])
                except (OSError, ValueError, KeyError, TypeError) as err:
                    errs.append(f"unreadable output: {type(err).__name__}: {err}")
            elif digests != reference[key]:
                errs.append("output bytes differ from the identical earlier command")
        failures.append(errs)
    return failures


def field_oracle_errors(rel_err: float) -> list:
    if rel_err is None or not rel_err <= FIELD_ORACLE_TOL:
        return [f"single-loop field oracle error {rel_err} > {FIELD_ORACLE_TOL}"]
    return []
