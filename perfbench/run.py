"""Benchmark command for coalex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coalex is imported from its
``src`` directory.  With ``--trace 0`` the workload's job (its coalex CLI
invocations, one fresh interpreter each, one at a time) is repeated until
S seconds have passed.  After each repetition one bare interpreter
start imports ``coalex.cli`` and loads the inputs, and a fixed calibration
loop measures how fast the machine is right now.  The run reports the
median repetition (``wall_s``) and the median start (``setup_s``), each
rescaled by its neighbouring calibration loops to a machine of fixed
speed, and the largest peak resident set of any process of the job
(``peak_rss_mb``).  On a shared 2-vCPU machine the same work took 2.7 s
in one run and 3.7 s a few minutes later; the rescaled medians of those
runs stayed within 4% (README.md, "Steadiness").  With
``--trace 1`` the same invocations run in-process under ``tracer.py`` and
the run reports the per-layer metrics.  Every output is checked outside
the timed region.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
# A reference start runs between repetitions; times are rescaled to a
# machine on which it takes REFERENCE_S.  See README.md, "Steadiness".
REFERENCE_S = 0.4
REFERENCE_CODE = (
    "import numpy as np\n"
    "X = np.random.default_rng(0).standard_normal((64, 8))\n"
    "acc = 0\n"
    "for i in range(18000):\n"
    "    order = np.argsort(X[:, i % 8], kind='stable')\n"
    "    acc += int(np.cumsum(X[order, 0] > 0)[-1])\n"
    "    acc += sum({j: j * j for j in range(20)}.values()) % 7\n"
)
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys\n"
    "import coalex.cli\n"
    "from coalex.dataset import load_csv\n"
    "for p in sys.argv[1:]:\n"
    "    load_csv(p, 'y')\n"
    "print(coalex.cli.__file__)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def spawn(argv: list[str], env: dict, cwd: Path, log: Path) -> tuple[float, int, int]:
    """Run one process to its end: (wall seconds, exit code, peak RSS in KiB)."""
    with log.open("ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_job(job: workloads.Job, env: dict, workdir: Path) -> tuple[float, int, int]:
    """One repetition: (wall seconds, failed invocations, largest peak RSS in KiB)."""
    for p in job.outputs:
        p.unlink(missing_ok=True)
    failed = peak = 0
    t0 = time.perf_counter()
    for args in job.invocations:
        _, code, rss = spawn([sys.executable, "-m", "coalex.cli", *args], env, workdir,
                             workdir / "coalex.log")
        failed += code != 0
        peak = max(peak, rss)
    return time.perf_counter() - t0, failed, peak


def reference_start(env: dict, workdir: Path) -> float:
    """Seconds a fresh interpreter takes, now, to import numpy and run a fixed
    mix of interpreter and small numpy work, like a CLI call without coalex."""
    wall, code, _ = spawn([sys.executable, "-c", REFERENCE_CODE], env, workdir,
                          workdir / "reference.log")
    if code != 0:
        raise RuntimeError(f"reference start exited {code}")
    return wall


def setup_start(job: workloads.Job, env: dict, workdir: Path) -> float:
    log = workdir / "setup.log"
    wall, code, _ = spawn([sys.executable, "-c", SETUP_CODE, *map(str, job.csvs)],
                          env, workdir, log)
    if code != 0:
        raise RuntimeError(f"set-up start failed:\n{log.read_text()[-2000:]}")
    loaded = Path(log.read_text().splitlines()[-1]).resolve()
    if not loaded.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"coalex was imported from {loaded}, not from {ROOT / 'src'}")
    return wall


def check(job: workloads.Job) -> list[str]:
    try:
        return job.check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def timed(job: workloads.Job, env: dict, workdir: Path, seconds: float) -> dict:
    walls, peaks, setups, problems = [], [], [], []
    refs = [reference_start(env, workdir)]
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        wall, rep_failed, peak = run_job(job, env, workdir)
        attempted += len(job.invocations)
        failed += rep_failed
        walls.append(wall)
        peaks.append(peak)
        if not rep_failed:
            problems += check(job)
        setups.append(setup_start(job, env, workdir))
        refs.append(reference_start(env, workdir))
    # each repetition, and the set-up start after it, lies between two reference starts
    speed = [REFERENCE_S * 2 / (a + b) for a, b in zip(refs, refs[1:])]
    metrics = {
        "wall_s": (statistics.median(w * f for w, f in zip(walls, speed)), "s"),
        "setup_s": (statistics.median(t * f for t, f in zip(setups, speed)), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1024.0, "MB"),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "walls_s": walls, "setups_s": setups, "refs_s": refs,
            "peaks_kib": peaks}


def traced(job: workloads.Job, env: dict, workdir: Path, seconds: float,
           workload: str) -> dict:
    plan, result = workdir / "trace_plan.json", workdir / "trace_result.json"
    plan.write_text(json.dumps({"invocations": job.invocations, "seconds": seconds}))
    _, code, _ = spawn([sys.executable, str(BENCH / "tracer.py"), str(plan), str(result)],
                       env, workdir, workdir / "coalex.log")
    if code != 0:
        raise RuntimeError(f"traced run exited {code}:\n"
                           f"{(workdir / 'coalex.log').read_text()[-2000:]}")
    trace = json.loads(result.read_text())
    problems = [f"wrapped name {m} no longer exists" for m in trace["missing"]]
    problems += [f"wrapped {name} was never called" for _, _, name, where in tracer.WRAPS
                 if workload in where and name not in trace["spans"]]
    problems += [f"per-layer metric {name} is 0" for name, _, _, _, where in tracer.METRICS
                 if workload in where and not trace["metrics"][name]]
    if not trace["failed"]:
        problems += check(job)
    units = {name: unit for name, unit, *_ in tracer.METRICS}
    trace["metrics"] = {k: (v, units[k]) for k, v in trace["metrics"].items()}
    trace["problems"] = problems
    return trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[2].strip())
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "coalex" / "cli.py").is_file():
        print(f"error: no coalex sources under {ROOT / 'src'}; "
              "run from the root of a coalex checkout", file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    env = child_env()
    try:
        job = workloads.build(args.workload, workdir, args.seed)
        if args.trace:
            out = traced(job, env, workdir, args.seconds, args.workload)
        else:
            out = timed(job, env, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "invocations": len(job.invocations)} | out
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in dict.fromkeys(out["problems"]):
        print(f"check failed: {p}", file=sys.stderr)
    print("# machine: " + json.dumps(record["machine"]))
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
