"""The benchmark's client process: one closed loop over the CLI, in-process.

    python3 perfbench/client.py setup SRC CONFIG STLS QUERY
    python3 perfbench/client.py loop SPEC RESULT

`setup` times what a fresh process pays before its first answer: import
tmsnav, load the config, and load and query every mesh the workload uses
(STLS is a comma list of paths, possibly empty). It prints {"setup_s": ...,
"kernel_s": ...}, the latter the reference kernel's time measured right
after the timed set-up (reference.py).

`loop` issues the rounds described in SPEC (written by run.py) through
`tmsnav.cli.main`, one command after the previous one returned, each with
a fresh config, until SPEC's seconds have passed. It writes per-command
wall times with the mean reference kernel time just before and just after
each command, exit codes, the peak RSS and, when traced, per-round layer totals
to RESULT.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path


def _import_program(src: str):
    sys.path.insert(0, src)
    import tmsnav.cli

    if not Path(tmsnav.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"tmsnav was imported from {tmsnav.cli.__file__}, not {src}")
    return tmsnav.cli


def setup(src: str, config: str, stls: str, query: str) -> None:
    start = time.perf_counter()
    _import_program(src)
    from tmsnav import closest_point, load_stl
    from tmsnav.config import load_config

    load_config(config)
    point = [float(x) for x in query.split(",")]
    for path in filter(None, stls.split(",")):
        closest_point(load_stl(path), point)
    setup_s = time.perf_counter() - start
    from reference import kernel_s

    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s()}))


def field_oracle_rel_err() -> float:
    """Largest relative error of the single-loop on-axis field, 5-100 mm.

    The closed form mu0 I N r^2 / (2 (r^2 + z^2)^1.5) is computed here,
    not taken from the program.
    """
    import numpy as np
    from tmsnav.fieldsim import CoilModel, b_field

    radius_mm, turns, current = 35.0, 9, 5000.0
    coil = CoilModel.single_loop(radius_mm, loop_turns=turns, segments_per_loop=256,
                                 peak_current_a=current)
    z = np.linspace(5.0, 100.0, 20)
    b = b_field(coil, np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1))
    r, zm = radius_mm * 1e-3, z * 1e-3
    exact = 4e-7 * math.pi * current * turns * r**2 / (2.0 * (r**2 + zm**2) ** 1.5)
    return float(np.max(np.abs(b[:, 2] - exact) / exact))


def loop(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    cli = _import_program(spec["src"])
    from reference import kernel_s

    last_kernel = [kernel_s()]  # the kernel after one command is the one before the next
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_totals

        tracer = Tracer()
    out_root = Path(spec["out"])
    rounds = spec["rounds"]
    # a traced run alternates an untraced and a traced round on the same template
    per_template = 2 if tracer else 1
    max_rounds = (spec["max_rounds"] or 10**9) * per_template

    def run_round(template: int, commands: list, out_dir: Path) -> list:
        times = []
        for i, cmd in enumerate(commands):
            argv = [a.replace("{r}", str(out_dir)) for a in cmd["argv"]]
            t0 = time.perf_counter()
            code = cli.main(argv)  # looked up per call: tracing may rebind it
            wall = time.perf_counter() - t0
            before, last_kernel[0] = last_kernel[0], kernel_s()
            times.append({"template": template, "index": i, "dir": out_dir.name,
                          "kind": cmd["kind"], "code": code, "wall_s": wall,
                          "kernel_s": (before + last_kernel[0]) / 2.0})
        return times

    commands, round_walls, layers = [], [], []
    start = time.perf_counter()
    k = 0
    while k < max_rounds:
        if (k >= spec["min_rounds"] and k % per_template == 0
                and time.perf_counter() - start >= spec["seconds"]):
            break
        traced = k % per_template == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        template = (k // per_template) % len(rounds)
        t0 = time.perf_counter()
        commands += run_round(template, rounds[template], out_root / f"r{k}")
        round_walls.append({"traced": traced, "wall_s": time.perf_counter() - t0})
        if traced:
            tracer.uninstall()
            layers.append(layer_totals(tracer.spans, first_span))
        k += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first command once more, untimed: its bytes must match round 0's
    repeat = run_round(0, rounds[0][:1], out_root / "repeat")
    oracle = field_oracle_rel_err() if spec["oracle"] else None
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps({
        "commands": commands, "rounds": round_walls, "wall_s": wall,
        "peak_rss_mb": peak_rss_mb, "layers": layers, "repeat": repeat,
        "field_oracle_rel_err": oracle,
    }))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": setup, "loop": loop}[mode](*rest)
