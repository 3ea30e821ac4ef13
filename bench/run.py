#!/usr/bin/env python3
"""vekit benchmark: seeded CLI request mixes, timed end to end, traced per layer.

    python3 bench/run.py --workload point|curve|trial --seed N --seconds S --trace 0|1

Run it from the repository root; it imports vekit from ``src/``.  One
client sends the workload's requests closed-loop (the next request starts
after the previous one and its correctness check finish) through
``vekit.cli.main(argv)`` with ``--out`` into a scratch directory under
``bench_work/``.  Everything runs on one thread with no queue, so no
request ever waits for another and there are no wait metrics.

The run replays whole passes of the seeded request mix, as many as bring
the timed time closest to ``--seconds``, so every run measures the same
composition.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics;
with ``--trace 1`` half the time runs untraced, then the same passes run
again with spans installed (see ``spans.py``) and the line carries the
per-layer metrics.  Every response is checked by ``gate.py`` outside the
timed section.  ``design.json`` records why each workload exists, its mix,
and which end-to-end metric each layer metric should move.

The time metrics are calibrated to one host speed (see ``probe_host``);
the wall-clock figures they come from are printed as ``info.wall_*``.
"""

from __future__ import annotations

import time

PROCESS_START = time.time()

import os  # noqa: E402

# One BLAS thread (at or below nproc): the benchmark is single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / "bench_work"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

from gate import DESIGN, Gate, read_outputs  # noqa: E402
from workloads import WORKLOADS, build_mix  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---------------------------------------------------------------------------
# Set-up: import vekit, build the presets, write the generated inputs

def _render(value, mapping):
    if isinstance(value, str):
        for key, path in mapping.items():
            value = value.replace(key, path)
        return value
    if isinstance(value, list):
        return [_render(v, mapping) for v in value]
    if isinstance(value, dict):
        return {k: _render(v, mapping) for k, v in value.items()}
    return value


class Setup:
    """Everything a run needs before its first timed request."""

    def __init__(self, workload: str, seed: int, work: Path):
        if not (SRC / "vekit" / "cli.py").is_file():
            raise BenchError(f"no vekit sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import vekit.cli
        from vekit.presets import PRESET_NAMES, preset_scenario

        self.cli = vekit.cli
        self.presets = {name: preset_scenario(name) for name in PRESET_NAMES}
        self.mix = build_mix(workload, seed)
        self.in_dir = work / "in"
        self.out_root = work / "out"
        self.in_dir.mkdir(parents=True)
        self.out_root.mkdir()
        base = {"{outs}": str(self.out_root), "{in}": str(self.in_dir)}
        self.argvs = []
        for i, req in enumerate(self.mix):
            mapping = {**base, "{out}": str(self.out_root / f"r{i}")}
            for name, obj in req.files.items():
                text = json.dumps(_render(obj, mapping), indent=1)
                (self.in_dir / name).write_text(text, encoding="utf-8")
            self.argvs.append(_render(list(req.argv), mapping))


def _work_dir(workload: str, seed: int, tag: str) -> Path:
    path = WORK / f"{workload}-seed{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def probe_setup(workload: str, seed: int) -> int:
    """Child mode: set up once, report the wall clock when ready."""
    work = _work_dir(workload, seed, "probe")
    try:
        Setup(workload, seed, work)
        print(json.dumps({"ready": time.time()}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def probe_once(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process, from spawn to first-request readiness."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - spawned


# ---------------------------------------------------------------------------
# Host-speed calibration
#
# Other tenants of a shared host slow every process on it, by up to a half
# for minutes at a time; CPU time moves with wall time (it is not steal
# time) and a VM exposes no cycle counters.  So a fixed loop of numpy and
# interpreter work, which runs no vekit code, is timed before every request,
# and each pass's times are scaled by PROBE_REF_S over the loop's median
# time in that pass: the time metrics read as at a host speed where the loop
# takes PROBE_REF_S.  A change to vekit moves them as it moves wall time.

PROBE_REF_S = DESIGN["calibration"]["reference_s"]
_PROBE_X = np.linspace(0.0, 1.0, 4096)


def probe_host() -> float:
    """Seconds one fixed calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20):
        acc += float(np.sum(np.exp(-_PROBE_X * (1.0 + 1e-3 * i)) ** 2))
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# The closed loop

class Loop:
    """Sends the mix's requests one at a time and checks each response."""

    def __init__(self, setup: Setup, gate, tracer=None):
        self.setup = setup
        self.gate = gate
        self.tracer = tracer
        self.latencies: list[float] = []
        # Per pass: PROBE_REF_S / median calibration-loop time.
        self.speed: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.artifact_bytes = 0
        self.fit_fallbacks = 0
        self.fit_arm_fits = 0
        self.sweep_nan = 0
        self.sweep_estimates = 0

    def one_pass(self) -> float:
        """Run every request of the mix once; returns the timed seconds."""
        timed = 0.0
        cli = self.setup.cli
        sink = io.StringIO()
        probes = []
        for i, argv in enumerate(self.setup.argvs):
            out = self.setup.out_root / f"r{i}"
            shutil.rmtree(out, ignore_errors=True)
            probes.append(probe_host())
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is not None:
                    self.tracer.current_request = i
                    self.tracer.enabled = True
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a crash is a failed request, not a dead run
                    rc = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.enabled = False
            timed += dt
            self.latencies.append(dt)
            self.attempted += 1
            outputs = read_outputs(out)
            errors = self.gate.check(i, rc, outputs)
            if errors:
                self.failed += 1
                self.failures.append(f"request {i} ({argv[0]}): {'; '.join(errors[:3])}")
            self._count(i, outputs)
        self.speed.append(PROBE_REF_S / statistics.median(probes))
        return timed

    def calibrated_latencies(self) -> list[float]:
        """Every latency so far, scaled by its own pass's host speed."""
        slots = len(self.setup.argvs)
        return [dt * self.speed[k // slots] for k, dt in enumerate(self.latencies)]

    def _count(self, index: int, outputs: dict):
        """Output-side counters for the traced run."""
        req = self.setup.mix[index]
        self.artifact_bytes += sum(len(t.encode("utf-8")) for t in outputs.values())
        if req.kind == "fit" and "fit.json" in outputs:
            flags = [f["fallback"] for arm in json.loads(outputs["fit.json"])["arms"] for f in arm]
            self.fit_fallbacks += sum(flags)
            self.fit_arm_fits += len(flags)
        if req.kind == "sweep" and "sweep.csv" in outputs:
            requested = next(iter(req.files.values()))["replicates"]
            lines = outputs["sweep.csv"].splitlines()
            col = lines[1].split(",").index("replicates")
            reps = [int(line.split(",")[col]) for line in lines[2:]]
            self.sweep_nan += sum(requested - r for r in reps)
            self.sweep_estimates += requested * len(reps)


def run_passes(loop: Loop, seconds: float, between=None) -> tuple[float, int]:
    """Whole passes while another one brings the timed time closer to
    ``seconds`` (at least one pass).

    ``between`` runs after each pass, outside the timed time."""
    timed, passes = 0.0, 0
    while passes == 0 or timed + 0.5 * timed / passes < seconds:
        timed += loop.one_pass()
        passes += 1
        if between is not None:
            between()
    return timed, passes


# ---------------------------------------------------------------------------
# Run environment (metadata, not gated)

def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    sources = sorted((SRC / "vekit").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_vekit_lines": lines,
    }


# ---------------------------------------------------------------------------

def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = _work_dir(workload, seed, "trace" if trace else "run")
    try:
        setup = Setup(workload, seed, work)
        setup_self = time.time() - PROCESS_START
        gate = Gate(workload, seed, setup.mix, setup.presets, setup.in_dir, setup.out_root)
        env = environment()
        if not trace:
            # Set-up probes are spread over the run, one after each pass,
            # so one slow spell of the host does not set the median; each
            # is calibrated with the pass just before it.
            setups, peak = [], []

            def between():
                # Peak RSS over the first pass: a fresh process that has run
                # every request once, led by the largest (see workloads.py).
                if not peak:
                    peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                setups.append(probe_once(workload, seed))

            loop = Loop(setup, gate)
            timed, passes = run_passes(loop, seconds, between)
            while len(setups) < SETUP_PROBES:
                setups.append(probe_once(workload, seed))
            speeds = loop.speed + [loop.speed[-1]] * (len(setups) - passes)
            cal = loop.calibrated_latencies()
            completed = loop.attempted - loop.failed
            # Pooled over every sample of the run's whole passes, calibrated
            # pass by pass (design.json: calibration, host_noise).
            metrics = {
                "requests_per_s": (completed / sum(cal), "1/s"),
                "latency_p50_ms": (1000.0 * statistics.median(cal), "ms"),
                "peak_rss_mb": (peak[0], "MB"),
                "setup_s": (statistics.median(x * f for x, f in zip(setups, speeds)), "s"),
            }
            info = {
                "passes": passes,
                "requests_per_pass": len(setup.mix),
                "latency_samples": len(loop.latencies),
                "timed_s": round(timed, 3),
                "failed_ratio": loop.failed / loop.attempted,
                "host_speed_per_pass": [round(x, 4) for x in loop.speed],
                "wall_requests_per_s": completed / timed,
                "wall_latency_p50_ms": 1000.0 * statistics.median(loop.latencies),
                "wall_setup_s": statistics.median(setups),
                "setup_s_samples": [round(x, 4) for x in setups],
                "setup_s_this_process": round(setup_self, 4),
            }
            if len(loop.latencies) >= 100:
                info["latency_p90_ms"] = 1000.0 * _percentile(cal, 90)
        else:
            from spans import Tracer, layer_metrics

            loop = Loop(setup, gate)
            untraced, passes = run_passes(loop, seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            loop_t = Loop(setup, gate, tracer)
            traced = sum(loop_t.one_pass() for _ in range(passes))
            per = 1.0 / passes
            values = layer_metrics(tracer, passes)
            values["cli.artifact_bytes"] = loop_t.artifact_bytes * per
            values["trial.fit_fallback_ratio"] = loop_t.fit_fallbacks / max(loop_t.fit_arm_fits, 1)
            values["trial.sweep_nan_ratio"] = loop_t.sweep_nan / max(loop_t.sweep_estimates, 1)
            values["trace.overhead_ratio"] = traced / untraced - 1.0
            metrics = {name: (value, _unit(name)) for name, value in values.items()}
            trace_path = WORK / "traces" / f"{workload}-seed{seed}.npz"
            tracer.save(trace_path, {"workload": workload, "seed": seed, "passes": passes, "env": env})
            loop.attempted += loop_t.attempted
            loop.failed += loop_t.failed
            loop.failures += loop_t.failures
            info = {"passes": passes, "spans": len(tracer.start), "trace_file": str(trace_path.relative_to(ROOT))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"env": env, "info": info, "metrics": metrics, "loop": loop}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_solve") or name.endswith("_per_integral") or name.endswith("_per_call"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if "VE_SEED" in os.environ:
            raise BenchError("VE_SEED is set; it would override every generated trial seed")
        if args.setup_probe:
            return probe_setup(args.workload, args.seed)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    loop = result["loop"]
    for key, value in result["env"].items():
        print(f"env.{key}: {value}")
    for key, value in result["info"].items():
        print(f"info.{key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    for line in loop.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
