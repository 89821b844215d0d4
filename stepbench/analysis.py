"""Statistics for the step benchmark: percentiles, correctness, hygiene and
the folding of exported telemetry spans into per-layer metrics.

Everything here is pure computation on the step driver's JSON output and
on Perfetto trace-event files, so it is unit-tested without building the
driver (tests/test_analysis.py).
"""

import math
import os
import statistics

# Environment switches that arm a run-time recorder inside the program.
ARMING_VARS = ("BEATNIK_TRACE", "BEATNIK_PLANCHECK", "BEATNIK_DEVCHECK")

# The driver's own span around each Solver::step call.
STEP_SPAN = "stepbench.step"

# Span name prefixes -> the module (layer) the span's self time belongs to.
# "step" itself is Solver::step and, with STEP_SPAN, is the root whose self
# time no layer accounts for. First match wins, so longer prefixes go first.
LAYER_PREFIXES = (
    ("step/rk3_stage", "core.integrator"),
    ("step/derivatives", "core.zmodel"),
    ("step/br", "core.br"),
    ("cutoff.", "core.br"),
    ("step/fft", "fft"),
    ("fft.", "fft"),
    ("step/halo", "grid"),
    ("plan.", "comm"),
    ("transport.", "comm"),
    ("shm.", "comm"),
    ("queue.", "par.device"),
    ("event.", "par.device"),
    ("deep_copy", "par.device"),
)
ROOT_SPANS = (STEP_SPAN, "step")

# Driver probe spans (timed calls between steps) -> per-layer metric.
PROBE_METRICS = {
    "stepbench.derivatives": ("zmodel.derivatives_ms", 1e3),
    "stepbench.fft_transform": ("fft.transform_ms", 1e3),
    "stepbench.alltoallv": ("comm.alltoallv_ms", 1e3),
    "stepbench.gather_halos": ("grid.halo_ms", 1e3),
    "stepbench.cell_build": ("search.cell_build_ms", 1e3),
    "stepbench.dispatch": ("device.dispatch_us", 1e6),
}

# Per-step self time of these in-step spans -> per-layer metric (ms).
SELF_TIME_METRICS = {
    "br.accumulate_ms": ("cutoff.accumulate",),
    "br.migrate_ms": ("cutoff.migrate", "cutoff.ghost", "cutoff.return"),
    "fft.reshape_ms": ("fft.reshape",),
    "fft.butterfly_ms": ("fft.forward", "fft.inverse"),
    "comm.wait_ms": ("plan.wait", "transport.block"),
    "device.fence_ms": ("queue.fence",),
}

# Per-rank metrics that are reported as the median across ranks under their
# own name and as the maximum across ranks under "<name>.max".
PER_RANK_METRICS = (
    "zmodel.derivatives_ms",
    "br.velocity_ms",
    "br.accumulate_ms",
    "br.migrate_ms",
    "fft.transform_ms",
    "fft.reshape_ms",
    "fft.butterfly_ms",
    "comm.alltoallv_ms",
    "comm.wait_ms",
    "comm.block_frac",
    "grid.halo_ms",
    "search.cell_build_ms",
    "device.fence_ms",
    "device.dispatch_us",
)


class Refusal(Exception):
    """The benchmark must not report numbers for this run."""


def armed(environ):
    """Names of the recorder switches set to a truthy value in environ."""
    return [v for v in ARMING_VARS if environ.get(v, "") not in ("", "0")]


def check_environment(environ):
    """Refuse when a recorder is armed: its hooks would be in the timings."""
    on = armed(environ)
    if on:
        raise Refusal("recorders armed in the environment: " + ", ".join(on))


def check_build(fingerprint):
    """Refuse numbers from an instrumented build of the driver."""
    if fingerprint.get("sanitizer") or "-fsanitize" in fingerprint.get("cxx_flags", ""):
        raise Refusal("sanitizer build")
    if fingerprint.get("devcheck"):
        raise Refusal("devcheck build")


def check_threads(threads, nproc):
    """Ranks plus device workers may not exceed the cores available."""
    if threads > nproc:
        raise Refusal(f"{threads} threads (ranks + device workers) exceed nproc={nproc}")


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail_percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of values, provided at least min_beyond
    samples lie beyond it; returns (value, samples_beyond)."""
    n = len(values)
    rank = math.ceil(q * n)
    beyond = n - rank
    if rank < 1 or beyond < min_beyond:
        raise Refusal(f"p{round(q * 100)} of {n} samples has {beyond} beyond it, "
                      f"fewer than {min_beyond}")
    return sorted(values)[rank - 1], beyond


def slowest_rank_steps(per_rank):
    """Per step index, the wall time of the slowest rank."""
    return [max(ts) for ts in zip(*(r["step_s"] for r in per_rank))]


def failed_steps(run, reference, rtol):
    """Indices of failed steps: non-finite state on any rank, or every step of
    an episode whose final summary misses the reference."""
    finite = [all(fs) for fs in zip(*(r["finite"] for r in run["per_rank"]))]
    failed = {k for k, ok in enumerate(finite) if not ok}
    for ep in run["episodes"]:
        if not matches_reference(ep, reference, rtol):
            failed.update(range(ep["first_step"], ep["first_step"] + ep["steps"]))
    return sorted(failed)


def matches_reference(summary, reference, rtol):
    return all(
        math.isfinite(summary[k]) and math.isclose(summary[k], reference[k], rel_tol=rtol)
        for k in ("max_height", "vorticity_l2"))


def layer_of(name):
    if name in ROOT_SPANS:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "unattributed"


def fold_trace(events):
    """Fold trace-event dicts into per-track span statistics.

    Returns {track_name: Track} where a Track holds, for spans nested inside
    a driver step span, per-name self time, count and summed a0 argument,
    plus the step count and total step time, and the durations of the
    driver's probe spans. Flow arrows, instants and counters carry no time
    and are skipped; 'telemetry.dropped' instants are counted.
    """
    names = {}
    by_tid = {}
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                names[e["tid"]] = e["args"]["name"]
            continue
        by_tid.setdefault(e["tid"], []).append(e)
    tracks = {}
    for tid, evs in by_tid.items():
        track = Track()
        stack = []  # [name, begin_us, a0, child_us, in_step]
        for e in evs:
            ph = e["ph"]
            if ph == "B":
                in_step = e["name"] == STEP_SPAN or bool(stack and stack[-1][4])
                stack.append([e["name"], float(e["ts"]), e.get("args", {}).get("a0", 0), 0.0,
                              in_step])
            elif ph == "E":
                if not stack:
                    continue
                name, t0, a0, child, in_step = stack.pop()
                dur = float(e["ts"]) - t0
                if stack:
                    stack[-1][3] += dur
                track.add(name, dur, dur - child, a0, in_step)
            elif ph == "i" and e.get("name") == "telemetry.dropped":
                track.dropped += e.get("args", {}).get("a0", 0)
        tracks[names.get(tid, f"tid {tid}")] = track
    return tracks


class Track:
    """Span statistics of one timeline, in seconds."""

    def __init__(self):
        self.self_s = {}
        self.count = {}
        self.a0 = {}
        self.steps = 0
        self.step_s = 0.0
        self.probes = {}
        self.dropped = 0

    def add(self, name, dur_us, self_us, a0, in_step):
        if name == STEP_SPAN:
            self.steps += 1
            self.step_s += dur_us * 1e-6
        if in_step:
            self.self_s[name] = self.self_s.get(name, 0.0) + self_us * 1e-6
            self.count[name] = self.count.get(name, 0) + 1
            self.a0[name] = self.a0.get(name, 0) + a0
        elif name in PROBE_METRICS:
            self.probes.setdefault(name, []).append(dur_us * 1e-6)

    def merge(self, other):
        for attr in ("self_s", "count", "a0"):
            mine = getattr(self, attr)
            for k, v in getattr(other, attr).items():
                mine[k] = mine.get(k, 0) + v
        for k, v in other.probes.items():
            self.probes.setdefault(k, []).extend(v)
        self.steps += other.steps
        self.step_s += other.step_s
        self.dropped += other.dropped

    def layer_self_s(self):
        out = {}
        for name, s in self.self_s.items():
            layer = layer_of(name)
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + s
        return out

    def coverage(self):
        """Share of step time that layer spans account for."""
        if self.step_s <= 0:
            return 0.0
        covered = sum(s for layer, s in self.layer_self_s().items() if layer != "unattributed")
        return covered / self.step_s


def rank_tracks(tracks):
    """Rank timelines ordered by rank number ('rank N' track names)."""
    ranks = sorted((int(n.split()[1]), t) for n, t in tracks.items() if n.startswith("rank "))
    return [t for _, t in ranks]


def per_layer_metrics(ranks, run, traced_p50, untraced_p50):
    """Per-layer metrics from folded rank tracks (merged over all traced
    episodes) and the driver's counters."""
    per_rank = {name: [] for name in PER_RANK_METRICS}
    untraced = max(sum(ep["steps"] for ep in run["episodes"] if not ep["traced"]), 1)
    for r, t in enumerate(ranks):
        steps = max(t.steps, 1)
        for metric, spans in SELF_TIME_METRICS.items():
            per_rank[metric].append(1e3 * sum(t.self_s.get(s, 0.0) for s in spans) / steps)
        for span, (metric, scale) in PROBE_METRICS.items():
            samples = t.probes.get(span)
            per_rank[metric].append(scale * statistics.median(samples) if samples else 0.0)
        block = t.self_s.get("transport.block", 0.0)
        per_rank["comm.block_frac"].append(block / t.step_s if t.step_s > 0 else 0.0)
        per_rank["br.velocity_ms"].append(1e3 * run["per_rank"][r]["br_untraced_s"] / untraced)

    out = {}
    for metric, values in per_rank.items():
        out[metric] = statistics.median(values) if values else 0.0
        out[metric + ".max"] = max(values) if values else 0.0

    acc = per_rank["br.accumulate_ms"]
    med = statistics.median(acc) if acc else 0.0
    out["br.accumulate_imbalance"] = max(acc) / med if med > 0 else 0.0

    def per_step_total(span, field):
        return sum(getattr(t, field).get(span, 0) / max(t.steps, 1) for t in ranks)

    out["fft.reshape_bytes_per_step"] = per_step_total("fft.reshape", "a0")
    out["comm.msgs_per_step"] = per_step_total("plan.publish", "count")
    out["comm.bytes_per_step"] = per_step_total("plan.publish", "a0")

    hits = sum(r["hit_pairs"] for r in run["per_rank"])
    cands = sum(r["candidate_pairs"] for r in run["per_rank"])
    out["search.hit_ratio"] = hits / cands if cands else 0.0

    probe = run["copy_probe"]
    out["device.copies_per_step"] = probe["copies"] / probe["steps"] if probe["steps"] else 0.0

    out["telemetry.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    cov = [t.coverage() for t in ranks]
    out["trace.coverage_frac"] = statistics.median(cov) if cov else 0.0
    return out


def unit_of(metric):
    if metric.endswith(("_ms", "_ms.max")):
        return "ms"
    if metric.endswith(("_us", "_us.max")):
        return "us"
    if metric.endswith("bytes_per_step"):
        return "bytes"
    if metric.endswith("_per_step"):
        return "count"
    return "ratio"


PER_LAYER_METRICS = tuple(
    [m for name in PER_RANK_METRICS for m in (name, name + ".max")] + [
        "br.accumulate_imbalance",
        "fft.reshape_bytes_per_step",
        "comm.msgs_per_step",
        "comm.bytes_per_step",
        "search.hit_ratio",
        "device.copies_per_step",
        "telemetry.overhead_frac",
        "trace.coverage_frac",
    ])
