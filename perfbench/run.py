"""tmsnav benchmark: CLI command latency on four workloads, plus a traced run.

    python3 perfbench/run.py --workload plan-head --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. The benchmark writes the workload's seeded inputs, times
a fresh process's set-up, then runs one client process (client.py) that
issues the workload's CLI commands in a closed loop, and checks every
output. With `--trace 1` the client alternates untraced and traced rounds
and the metrics are per layer. `--smoke` shrinks every input to seconds.

End-to-end times are host-speed-adjusted: each command and set-up probe is
timed next to a fixed reference kernel and rescaled to a host on which
that kernel takes reference.NOMINAL_S (see reference.py for why). Raw wall
times are printed before the result line and kept in the detail file.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details (per-kind medians, input digests, layer shares) go to
.perfbench_out/<workload>-seed<seed>-trace<t>[-smoke].json, and the traced
run's spans to .perfbench_out/<workload>-seed<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170

# one BLAS thread everywhere: the client is a single closed loop on 2 cores
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread pinning above)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# metric names and units come from BENCHMARK.json, the traffic claims that
# the traced run checks from design.json
SPEC_FILE = ROOT / "BENCHMARK.json"
DESIGN_FILE = HERE / "design.json"


def _child(args: list, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], env=os.environ.copy(),
                          timeout=CHILD_TIMEOUT_S, **kwargs)


def adjusted(sample: dict) -> float:
    """A sample's wall time rescaled to the reference host speed (reference.py)."""
    return sample["wall_s"] * reference.NOMINAL_S / sample["kernel_s"]


def measure_setup(wl, repeats: int) -> list:
    """Set-up {"wall_s", "kernel_s"} of fresh processes, one per repeat."""
    s = wl.setup
    query = ",".join(repr(float(x)) for x in s["query"])
    values = []
    for _ in range(repeats):
        proc = _child([HERE / "client.py", "setup", SRC, s["config"], ",".join(s["stls"]),
                       query], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append({"wall_s": probe["setup_s"], "kernel_s": probe["kernel_s"]})
    return values


def environment() -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = target.read_text().strip() if target and target.is_file() else ref
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"git_rev": rev, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def layer_metrics(result: dict, names: list) -> tuple[dict, dict]:
    """Per-layer values per traced round, and each layer's share of self time.

    Counts come from the first traced round (identical rounds repeat them
    exactly); self times are the median over traced rounds. A layer the
    workload never calls reports zero.
    """
    rounds = result["layers"]
    first = rounds[0]
    values = {}
    for name in names:
        layer, field = name.rsplit(".", 1)
        if field == "self_s":
            values[name] = statistics.median(r.get(layer, {}).get(field, 0.0) for r in rounds)
        else:
            values[name] = first.get(layer, {}).get(field, 0)
    walls = result["rounds"]
    traced = [r["wall_s"] for r in walls if r["traced"]]
    plain = [r["wall_s"] for r in walls if not r["traced"]]
    values["trace.overhead_frac"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
    total = sum(row["self_s"] for row in first.values())
    shares = {layer: row["self_s"] / total for layer, row in
              sorted(first.items(), key=lambda kv: -kv[1]["self_s"])}
    return values, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "tmsnav" / "cli.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: run from a tmsnav checkout: no {SRC}/tmsnav or {SPEC_FILE}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    wl = workloads.build(args.workload, args.seed, work / "in", smoke=args.smoke)
    digests = {str(p.relative_to(work / "in")): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in wl.files}
    inputs_sha256 = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()

    # half the set-up probes run before the closed loop and half after it, so
    # their median spans the run rather than one moment of the host's speed
    probes = 0 if args.trace else workloads.SETUP_REPEATS
    setup = measure_setup(wl, probes // 2)
    spec = {
        "src": str(SRC), "out": str(work / "out"), "rounds": wl.rounds,
        "max_rounds": wl.max_rounds, "seconds": args.seconds, "trace": args.trace,
        "min_rounds": 2 if args.trace else 1,
        "oracle": args.workload == "holding-session",
        "spans": str(OUT / f"{args.workload}-seed{args.seed}-spans.json"),
    }
    OUT.mkdir(exist_ok=True)
    (work / "spec.json").write_text(json.dumps(spec))
    result_path = work / "result.json"
    with open(work / "client.log", "w") as log:
        proc = _child([HERE / "client.py", "loop", work / "spec.json", result_path],
                      stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        print((work / "client.log").read_text()[-3000:], file=sys.stderr)
        print(f"error: client exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    setup += measure_setup(wl, probes - probes // 2)

    commands = result["commands"] + result["repeat"]
    failures = checks.check_commands(wl, commands, work / "out")
    if spec["oracle"]:
        failures.append(checks.field_oracle_errors(result["field_oracle_rel_err"]))
    failed = sum(1 for f in failures if f)

    timed = result["commands"]
    walls = {k: [c["wall_s"] for c in timed if c["kind"] == k]
             for k in sorted({c["kind"] for c in timed})}
    p50 = {k: statistics.median(v) for k, v in walls.items()}
    primary = [c for c in timed if wl.rounds[c["template"]][c["index"]].get("primary")]
    kernel_p50 = statistics.median(c["kernel_s"] for c in timed)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(),
        "inputs_sha256": inputs_sha256, "input_digests": digests,
        "p50_s": p50, "wall_s": walls, "primary_wall_s": [c["wall_s"] for c in primary],
        "primary_kernel_s": [c["kernel_s"] for c in primary], "kernel_p50_s": kernel_p50,
        "setup_samples": setup,
        "failed_fraction": failed / len(failures),
        "failures": [f for f in failures if f][:20],
    }
    if args.workload == "register-icp":
        subjects = wl.truth["subjects"]
        detail["icp_error_mm"] = [
            checks.icp_error_mm(work / "out" / c["dir"] / "register",
                                subjects[c["template"]])
            for c in commands if c["code"] == 0]
        detail["icp_start_error_mm"] = [s["start_error_mm"] for s in subjects]
    if spec["oracle"]:
        detail["field_oracle_rel_err"] = result["field_oracle_rel_err"]

    declared = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values, shares = layer_metrics(result, [n for n in units if n != "trace.overhead_frac"])
        claim = json.loads(DESIGN_FILE.read_text())["traffic"][args.workload]
        reached = sum(shares.get(layer, 0.0) for layer in claim["layers"])
        detail.update(shares=shares, traffic=dict(claim, share=reached,
                                                  holds=reached >= claim["expected_at_least"]))
    else:
        values = {
            "setup_s": statistics.median(map(adjusted, setup)),
            "commands_per_s": len(timed) / sum(map(adjusted, timed)),
            "primary_p50_s": statistics.median(map(adjusted, primary)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    smoke = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))

    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed commands "
          f"in {result['wall_s']:.2f} s; inputs sha256 {inputs_sha256}")
    print(f"  reference kernel p50 {kernel_p50 * 1e3:.2f} ms "
          f"(nominal {reference.NOMINAL_S * 1e3:.0f} ms); raw wall times follow")
    for k, v in walls.items():
        print(f"  {k}_p50_s {p50[k]:.4f} (n={len(v)})")
    print(f"  primary_p50_s {statistics.median(c['wall_s'] for c in primary):.4f} "
          f"(n={len(primary)})")
    for key in ("icp_error_mm", "field_oracle_rel_err"):
        if key in detail:
            print(f"  {key} {detail[key]}")
    if args.trace:
        t = detail["traffic"]
        print(f"  traffic: {'+'.join(t['layers'])} share {t['share']:.3f} "
              f"(expected >= {t['expected_at_least']}): {'holds' if t['holds'] else 'MISSES'}")
    for f in detail["failures"][:5]:
        print(f"  failed: {'; '.join(f)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(failures), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
