#!/usr/bin/env python3
"""Whole-solver step benchmark for Beatnik.

Run from the repository root:

    python3 stepbench/run.py --workload loworder_alltoall --seed 1 --seconds 15 --trace 0

Builds the step driver (stepbench/driver.cpp, linked against ../src) into
.bench_build/stepbench, computes the workload's reference diagnostics with
a 1-rank serial run, runs the workload for --seconds, checks every step,
prints a human-readable report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones folded
from the exported telemetry spans. See stepbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stepbench")
DRIVER = os.path.join(BUILD, "stepbench_driver")
# The reference and measured runs together must end within this budget.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "step_ms.p50": "ms",
    "mnode_steps_per_s": "Mnode/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "solver.hpp")):
        raise analysis.Refusal("Beatnik sources (src/) not found next to stepbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(analysis.usable_cores())],
                   check=True, stdout=sys.stderr, timeout=900)


def workload_env(w):
    env = dict(os.environ)
    env["BEATNIK_BACKEND"] = w["backend"]
    if w["device_workers"]:
        env["BEATNIK_DEVICE_WORKERS"] = str(w["device_workers"])
    else:
        env.pop("BEATNIK_DEVICE_WORKERS", None)
    return env


def run_driver(args, env, out, deadline):
    cmd = [DRIVER, "--out", out] + [str(a) for a in args]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    with open(out) as f:
        data = json.load(f)
    if proc.returncode != 0 or "error" in data:
        raise RuntimeError(data.get("error", f"driver exited with {proc.returncode}"))
    return data


def deck_args(w, seed):
    return ["--deck", w["deck"], "--mesh", w["mesh"], "--fft-config", w.get("fft_config", 7),
            "--cutoff", w.get("cutoff", 0.5), "--seed", seed]


def reference(w, seed, workdir, deadline):
    """Final diagnostics of one episode from a fresh 1-rank serial run."""
    env = workload_env(dict(w, backend="serial", device_workers=0))
    data = run_driver(deck_args(w, seed) + ["--ranks", 1, "--reference"],
                      env, os.path.join(workdir, "reference.json"), deadline)
    return data["episodes"][0]


def host_fingerprint(fp, seed):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": analysis.usable_cores(), "cpu_model": model,
            "compiler": "gcc " + fp["compiler"], "build_type": fp["build_type"],
            "backend": fp["backend"], "seed": seed}


def end_to_end(run, steps_s):
    ms = [1e3 * s for s in steps_s]
    p90, beyond = analysis.tail_percentile(ms, 0.9)
    setups = [max(s) for s in zip(*(r["setup_s"] for r in run["per_rank"]))]
    metrics = {
        "step_ms.p50": statistics.median(ms),
        "mnode_steps_per_s": run["nodes"] * len(steps_s) / sum(steps_s) / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    # Reported, not gated: on a shared host the 90th percentile follows the
    # host's stall periods more than the program (see README.md).
    notes = (f"{len(ms)} timed steps, {len(setups)} set-ups; "
             f"step_ms.p90 {p90:.6f} ms ({beyond} steps beyond)")
    return metrics, notes


def per_layer(run, steps_s):
    traced = [s for ep in run["episodes"] if ep["traced"]
              for s in steps_s[ep["first_step"]:ep["first_step"] + ep["steps"]]]
    untraced = [s for ep in run["episodes"] if not ep["traced"]
                for s in steps_s[ep["first_step"]:ep["first_step"] + ep["steps"]]]
    merged = {}
    for path in run["trace_files"]:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        for name, track in analysis.fold_trace(events).items():
            merged.setdefault(name, analysis.Track()).merge(track)
        del events
    ranks = analysis.rank_tracks(merged)
    dropped = sum(t.dropped for t in merged.values())
    if dropped:
        log(f"warning: {dropped} trace events dropped; span totals are incomplete")
    metrics = analysis.per_layer_metrics(ranks, run, statistics.median(traced),
                                         statistics.median(untraced))
    if metrics["trace.coverage_frac"] < 0.95:
        log(f"warning: trace.coverage_frac {metrics['trace.coverage_frac']:.3f} < 0.95: "
            "part of the step time is in no layer span")
    report = ["per-rank layer self time, ms/step:"]
    layers = sorted({layer for t in ranks for layer in t.layer_self_s()})
    report.append("  rank " + " ".join(f"{layer:>16}" for layer in layers) + "    step  coverage")
    for r, t in enumerate(ranks):
        ls = t.layer_self_s()
        report.append(f"  {r:4d} " + " ".join(
            f"{1e3 * ls.get(layer, 0.0) / max(t.steps, 1):16.3f}" for layer in layers)
            + f" {1e3 * t.step_s / max(t.steps, 1):7.3f}  {t.coverage():8.3f}")
    return metrics, "\n".join(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    try:
        if args.workload not in cfg["workloads"]:
            raise analysis.Refusal(f"unknown workload {args.workload!r}; expected one of "
                                   + ", ".join(cfg["workloads"]))
        w = cfg["workloads"][args.workload]
        analysis.check_threads(w["ranks"] + w["device_workers"], analysis.usable_cores())
        analysis.check_environment(os.environ)
        build()
    except (analysis.Refusal, subprocess.SubprocessError) as e:
        log(f"stepbench: refused: {e}")
        return 2

    workdir = os.path.join(BUILD, "runs", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    attempted = 1
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        ref = reference(w, args.seed, workdir, deadline)
        run = run_driver(deck_args(w, args.seed) + [
            "--ranks", w["ranks"], "--seconds", args.seconds, "--trace", args.trace,
            "--trace-dir", workdir],
            workload_env(w), os.path.join(workdir, "run.json"), deadline)
        analysis.check_build(run["fingerprint"])
        steps_s = analysis.slowest_rank_steps(run["per_rank"])
        attempted = len(steps_s)
        failed = analysis.failed_steps(run, ref, cfg["reference_rtol"])
        if args.trace:
            metrics, notes = per_layer(run, steps_s)
            units = {m: analysis.unit_of(m) for m in metrics}
        else:
            metrics, notes = end_to_end(run, steps_s)
            metrics["ok_frac"] = 1.0 - len(failed) / attempted
            units = END_TO_END_UNITS
    except analysis.Refusal as e:
        log(f"stepbench: refused: {e}")
        return 2
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"stepbench: run failed: {e}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    host = host_fingerprint(run["fingerprint"], args.seed)
    print(f"# stepbench {args.workload} trace={args.trace} host={json.dumps(host)}")
    print(f"# {notes}")
    print(f"# reference max|z3|={ref['max_height']:.12g} |w|_2={ref['vorticity_l2']:.12g} "
          f"(1 rank, serial, {ref['steps']} steps, rtol {cfg['reference_rtol']}); "
          f"fail_frac={len(failed) / attempted:.6g} ({len(failed)} of {attempted} steps)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(dict(result, host=host, workload=args.workload, trace=args.trace), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
