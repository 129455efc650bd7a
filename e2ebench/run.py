#!/usr/bin/env python3
"""End-to-end benchmark of nncomm on the real threaded runtime.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload mg3d --seed 1 --seconds 10 --trace 0

Builds e2e_bench (CMake, into .bench_build/ under the current directory),
runs one workload, checks its outputs and prints a human-readable report
followed, on the last line, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero when the build fails or any output is wrong.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("mg3d", "scatter16", "remap")
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; compiler output goes to
    stderr so stdout stays the report."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("e2ebench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise SystemExit("e2ebench: build failed")
    return build_dir / "e2e_bench"


def git(root, *args):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root, raw, seed):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ranks": raw["ranks"],
        "simd_level": raw["simd_level"],
        "build_type": raw["build_type"],
        "nncomm_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("NNCOMM_")},
        "seed": seed,
    }


def report(args, raw, prov, events):
    """Prints the human-readable lines and returns (values, spec)."""
    print(f"e2ebench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    cold = raw["cold"]
    print(f"cold start (first World in this process): prepare {cold['prepare_s']:.3f} s, "
          f"build {cold['build_s']:.3f} s, first batch {cold['first_batch_s']:.3f} s")
    print(f"warm-up: {raw['warmup']['batches']} batches, settled={raw['warmup']['settled']}; "
          f"setup_s is the median of {len(raw['setup_s'])} rebuilds in the warmed process")
    start, end = raw["copy_gbps"]
    print(f"host.copy_gbps (cache-resident 256 KiB memcpy, not DRAM bandwidth): "
          f"start {start:.2f}, end {end:.2f}, drift {100.0 * (end - start) / start:+.1f}%")
    steps = raw["step_ms"]
    tail = metrics.tail_percentile(steps)
    if tail:
        p, v, n = tail
        print(f"step samples: {len(steps)}; tail p{p:g} = {v:.4f} ms with {n} samples beyond")
    fail_ratio = metrics.ratio(raw["failed"], raw["attempted"])
    print(f"fail_ratio: {fail_ratio:.6g} ({raw['failed']} of {raw['attempted']} steps failed)")

    if not args.trace:
        values = metrics.end_to_end(raw)
        for name, unit in metrics.END_TO_END.items():
            print(f"  {name:<14} {values[name]:>14.6g} {unit}")
        return values, metrics.END_TO_END

    layer = metrics.per_layer(raw, events)
    for name, unit in metrics.PER_LAYER.items():
        v, src = layer[name]
        print(f"  {name:<32} {v:>14.6g} {unit:<6} [{src}]")
    print("self time by span (us, own workload pass; span minus its child spans):")
    own = [e for e in events if e["args"]["phase"] == args.workload]
    for name, us in sorted(metrics.self_times(own).items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<40} {us:>14.1f}")
    return {k: v for k, (v, _) in layer.items()}, metrics.PER_LAYER


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one verified output once; the run must then fail")
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = root / ".bench_build" / "e2ebench"
    exe = build(build_dir)
    trace_file = build_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("e2ebench: workload run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise SystemExit(f"e2ebench: e2e_bench exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    events = json.loads(trace_file.read_text())["traceEvents"] if args.trace else []

    values, spec = report(args, raw, provenance(root, raw, args.seed), events)
    out = metrics.result(raw, values, spec)
    print(json.dumps(out))
    if proc.returncode != 0 or not out["correct"]:
        print(f"e2ebench: {raw['failed']} of {raw['attempted']} steps failed verification",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
