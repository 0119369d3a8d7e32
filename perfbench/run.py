"""Run one workload of the gat benchmark and print its metrics.

    python3 perfbench/run.py --workload canonicity_sweep --seed 0 \
        --seconds 55 --trace 0

Run from the root of a source checkout: the benchmark imports `gat` from
`src/` and exits with an error when it is missing.  Earlier lines of
standard output are a readable report; the last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones: the seed's round is
repeated for `--seconds` seconds, untraced, and each op counts with its
median latency over the repetitions, scaled to a reference host speed
by a kernel timed right after it (see calibration.py).  With `--trace 1` they are the per-layer ones, from one
traced repetition, with the tracing overhead against one untraced
repetition.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_workloads():
    """The workloads module, with `gat` imported from this checkout."""
    if not (SRC / "gat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gat
    import workloads

    if Path(gat.__file__).resolve().parent != SRC / "gat":
        sys.exit(f"perfbench: imported gat from {gat.__file__}, not {SRC}")
    return workloads


def setup_probe(name: str) -> None:
    """In a fresh interpreter: import gat and build the workload's theories
    from source; print the seconds taken, then the calibration kernel's."""
    t0 = time.perf_counter()
    wl = import_workloads()
    wl.build_theories(wl.WORKLOADS[name].theories)
    setup_s = time.perf_counter() - t0
    print(setup_s, statistics.median(calibration.kernel_seconds()
                                     for _ in range(9)))


def measure_setup(name: str) -> list[float]:
    """Set-up seconds of fresh interpreters, at the reference host speed."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        setup_s, kernel_s = map(float, done.stdout.split()[-2:])
        times.append(setup_s * calibration.REFERENCE_S / kernel_s)
    return times


@dataclass
class Run:
    passes: list  # one list of ops per repetition of the round
    kernel_s: list  # per repetition, the calibration kernel after each op
    digests: list  # verdict digest of each complete repetition

    @property
    def ops(self):
        return [op for ops in self.passes for op in ops]

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each op's median latency over the repetitions, at the reference
        host speed unless `scaled` is false."""
        return [statistics.median(
                    ops[i].latency * (calibration.REFERENCE_S / ks[i]
                                      if scaled else 1.0)
                    for ops, ks in zip(self.passes, self.kernel_s)
                    if i < len(ops))
                for i in range(len(self.passes[0]))]

    def ops_per_s(self, scaled: bool = True) -> float:
        lat = self.latencies(scaled)
        return len(lat) / sum(lat)


def run(workload, seed: int, seconds: float, op_span=nullcontext) -> Run:
    """Repeat the seed's round until `seconds` have passed; the first
    repetition always completes."""
    out = Run([], [], [])
    deadline = time.perf_counter() + seconds
    while not out.passes or time.perf_counter() < deadline:
        ops = []
        kernel_s = []
        digest = hashlib.sha256()
        for op in workload.round(seed, op_span):
            ops.append(op)
            kernel_s.append(calibration.kernel_seconds())
            digest.update(op.line.encode() + b"\n")
            if out.passes and time.perf_counter() >= deadline:
                break
        else:
            out.digests.append(digest.hexdigest())
        out.passes.append(ops)
        out.kernel_s.append(kernel_s)
    return out


def warm_up(workload, seed: int) -> None:
    """One untimed op, on theories no timed op uses."""
    rnd = workload.round(seed)
    next(rnd)
    rnd.close()


def tail(latencies: list[float]):
    """(percentile, value, samples beyond): the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it."""
    s = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * len(s)))
        if len(s) - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, s[rank - 1], len(s) - rank


def recorded_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in SRC.rglob("*.py"))


def end_to_end(workload, args) -> tuple[Run, dict]:
    done = run(workload, args.seed, args.seconds)
    setup = measure_setup(workload.name)
    ops = done.ops
    lat = done.latencies()
    failed = sum(not op.ok for op in ops)
    p, tail_s, beyond = tail(lat)
    metrics = {
        "ops_per_s": (done.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    busy = sum(op.latency for op in ops)
    kernel_s = [k for ks in done.kernel_s for k in ks]
    print(f"{len(done.passes)} repetitions of a {len(lat)}-op round, "
          f"{len(ops)} ops in {busy:.2f} s busy, {failed} failed")
    print(f"unscaled: {done.ops_per_s(scaled=False):.4g} ops/s; calibration "
          f"kernel median {statistics.median(kernel_s) * 1e3:.3f} ms, "
          f"reference {calibration.REFERENCE_S * 1e3:g} ms")
    print(f"op_tail_ms is p{p:g} of {len(lat)} ops, {beyond} beyond it")
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    return done, metrics


def per_layer(workload, args):
    import tracer as tracing  # needs gat on sys.path

    untraced = run(workload, args.seed, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run(workload, args.seed, 0, tracer.op)
    path = OUT / f"spans-{workload.name}-{args.seed}.json.gz"
    tracer.write(path)
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = untraced.ops_per_s() / traced.ops_per_s()
    metrics = {name: (values[name], unit)
               for name, unit in tracing.PER_LAYER.items()}
    print(f"one untraced and one traced round of {len(traced.ops)} ops; "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return Run(untraced.passes + traced.passes,
               untraced.kernel_s + traced.kernel_s,
               untraced.digests + traced.digests), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    warm_up(workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    done, metrics = measure(workload, args)
    ops = done.ops
    failed = sum(not op.ok for op in ops)
    digest = done.digests[0]
    # every repetition of the round must give the same verdicts
    consistent = len(set(done.digests)) == 1
    recorded = recorded_digest(workload.name, args.seed)
    status = ("no record for this seed" if recorded is None
              else "matches the record" if recorded == digest
              else "DIFFERS from the record")
    print(f"workload {workload.name}, seed {args.seed}")
    print(f"verdict digest {digest} ({status}); repetitions "
          f"{'agree' if consistent else 'DISAGREE'}")
    print(f"src/ lines of Python: {src_lines()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
