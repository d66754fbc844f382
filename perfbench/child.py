"""One measured run, executed in the memory-capped child process.

    python3 perfbench/child.py CONFIG.json

CONFIG names the workloads, seed, seconds, trace flag and output paths
(see run.py).  The child builds each workload's documents, runs one
verification pass whose outputs are checked (checks.py), then runs passes
round-robin over the workloads until the time is used up, alternating the
order of workloads and of reports from one round to the next.  Every
timed pass must reproduce the verified outputs byte for byte.

In untraced runs the verification pass runs each report under
tracemalloc, which slows Python code and so is kept out of the timed
passes; peak memory is the largest per-report peak.  Traced runs alternate
traced and untraced passes, so the tracing overhead is measured under the
same conditions as the layer times.
"""

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shiftlab import cli  # noqa: E402

MIN_ROUNDS = 3
PROBE_EVERY = 0.1


def run_report(report):
    """(exit code, stdout text, seconds).  A crash, including a MemoryError
    under the address-space cap, fails the report with exit code -1."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(report.argv + ["--format", "json"])
    except SystemExit as exc:  # argparse rejects an argv
        rc = exc.code
    except Exception:  # a crash is a failed report, not a failed run
        rc = -1
    return rc, out.getvalue(), time.perf_counter() - t0


class Workload:
    def __init__(self, name, seed, docdir):
        os.makedirs(docdir, exist_ok=True)
        built = workloads.build(name, seed, docdir)
        self.name = name
        self.reports = built.reports
        self.ctx = checks.Context(built.docs)
        self.reference = {}
        self.failed = {}            # rid -> reason
        self.walls = []             # at reference speed
        self.raw_walls = []
        self.traced_walls = []
        self.latency = {r.rid: [] for r in self.reports}
        self.layer_samples = []     # one dict of per-layer metrics per traced pass
        self.peak_mb = None

    def verify(self, measure_memory):
        """Run each report once, check it, and keep its output.  With
        ``measure_memory`` each report runs under tracemalloc and the
        largest per-report peak is the pass's peak memory."""
        peaks = []
        for report in self.reports:
            if measure_memory:
                gc.collect()
                tracemalloc.start()
            rc, text, _ = run_report(report)
            if measure_memory:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self.reference[report.rid] = text
            if rc != 0:
                self.failed[report.rid] = "exit code %d" % rc
                continue
            reason = checks.check(self.ctx, report, text)
            if reason:
                self.failed[report.rid] = reason
        if measure_memory:
            self.peak_mb = max(peaks) / 2 ** 20

    def run_pass(self, reverse, tracer=None):
        """One pass.  Returns (raw wall, speed factor, latencies at
        reference speed); see hostspeed.py.  A probe runs whenever
        PROBE_EVERY seconds of reports have passed since the last one, and
        each group of reports between two probes is scaled by their mean."""
        order = self.reports[::-1] if reverse else self.reports
        latencies, group, factors = {}, [], []
        last = hostspeed.probe()
        since = 0.0
        wall = 0.0
        for i, report in enumerate(order):
            if tracer is not None:
                tracer.report = report.rid
            # each report starts from a collected heap, as a fresh CLI
            # process would, instead of paying for its predecessors' garbage
            gc.collect()
            rc, text, seconds = run_report(report)
            group.append((report.rid, seconds))
            since += seconds
            wall += seconds
            if text != self.reference[report.rid] and report.rid not in self.failed:
                self.failed[report.rid] = "output changed between passes"
            if since >= PROBE_EVERY or i == len(order) - 1:
                now = hostspeed.probe()
                factor = hostspeed.REFERENCE_S / ((last + now) / 2)
                for rid, raw in group:
                    latencies[rid] = raw * factor
                factors.append((factor, since))
                group, since, last = [], 0.0, now
        mean_factor = sum(f * t for f, t in factors) / wall if wall else 1.0
        return wall, mean_factor, latencies


def layer_metrics(tracer, factor):
    """Per-layer metrics of one traced pass; times scaled to reference
    speed by the pass's mean speed factor."""
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts

    def total(*keys):
        return factor * sum(st.get(k, 0.0) for k in keys)

    membership_calls = sum(v for k, v in calls.items() if k.endswith(".membership"))
    contains = counts.get("language.contains_calls", 0)
    out = {
        "language.words_of_length_s": total("language.LanguageOracle.words_of_length"),
        "language.contains_calls": contains,
        "language.membership_calls": membership_calls,
        "language.cache_hit_ratio": 1 - membership_calls / contains if contains else 0.0,
        "language.words_enumerated": counts.get("language.words_enumerated", 0),
        "forbidden.minimal_forbidden_s": total("forbidden.minimal_forbidden"),
        "forbidden.mfw_words": counts.get("forbidden.mfw_words", 0),
        "forbidden.window_density_s": total("forbidden.window_density_report"),
        "sft.membership_s": total("sft.membership"),
        "sofic.membership_s": total("sofic.membership"),
        "beta.membership_s": total("beta.membership"),
        "beta.membership_calls": calls.get("beta.membership", 0),
        "sofic.determinize_s": total("sofic.determinize"),
        "sofic.det_states": counts.get("sofic.det_states", 0),
        "sofic.is_sft_s": total("sofic.is_sft"),
        "sofic.mfw_length_set_s": total("sofic.mfw_length_set"),
        "sofic.language_equal_s": total("sofic.language_equal_up_to",
                                        "sofic.language_equal_exact"),
        "sofic.per_enumerate_s": total("sofic.sofic_per_enumerate"),
        "sft.per_enumerate_s": total("sft.per_enumerate", "sft.per_le_enumerate"),
        "sft.block_graph_s": total("sft.build_block_graph"),
        "spectral.perron_s": total("spectral.perron_root", "spectral.perron_vectors",
                                   "spectral.spectral_radius_certified"),
        "spectral.perron_calls": calls.get("spectral.perron_root", 0),
        "spectral.int_matmul_s": total("spectral.int_matmul"),
        "spectral.int_matmul_calls": calls.get("spectral.int_matmul", 0),
        "measures.nu_cylinder_s": total("measures.nu_cylinder_measure"),
        "measures.parry_s": total("measures.parry_measure"),
        "measures.decompose_s": total("measures.max_entropy_decomposition"),
        "measures.cylinder_table_s": total("measures.cylinder_table"),
        "dynamics.induced_membership_s": total("dynamics.induced.membership"),
        "dynamics.induced_membership_calls": calls.get("dynamics.induced.membership", 0),
        "dynamics.first_return_s": total("dynamics._resolve_first_return"),
        "dynamics.subst_language_s": total("dynamics.subst_language"),
        "shifts.realize_s": total("shifts.realize"),
        "shifts.realize_calls": calls.get("shifts.realize", 0),
        "beta.expand_rational_s": total("beta._expand_rational"),
        "beta.expand_algebraic_s": total("beta._expand_algebraic"),
        "beta.expand_decimal_s": total("beta._expand_decimal"),
    }
    for layer, seconds in tracer.layer_self_times().items():
        out[layer + ".self_s"] = factor * seconds
    return out


def main(config_path):
    with open(config_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    loads = [Workload(name, cfg["seed"], os.path.join(cfg["docdir"], name))
             for name in cfg["workloads"]]
    t0 = time.perf_counter()
    for w in loads:
        w.verify(measure_memory=not cfg["trace"])
    verify_s = time.perf_counter() - t0

    tracer = tracing.Tracer() if cfg["trace"] else None
    deadline = time.perf_counter() + cfg["seconds"]
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = loads[::-1] if rounds % 2 else loads
        for w in order:
            traced = tracer is not None and (rounds // 2 + loads.index(w)) % 2 == 0
            if traced:
                tracer.reset()
                tracer.record_spans = not w.layer_samples
                tracer.install()
                try:
                    wall, factor, lat = w.run_pass(rounds % 2, tracer)
                finally:
                    tracer.uninstall()
                w.traced_walls.append(sum(lat.values()))
                w.layer_samples.append(layer_metrics(tracer, factor))
            else:
                wall, factor, lat = w.run_pass(rounds % 2)
                w.raw_walls.append(wall)
                w.walls.append(sum(lat.values()))
                for rid, seconds in lat.items():
                    w.latency[rid].append(seconds)
        rounds += 1

    result = {}
    for w in loads:
        entry = {
            "reports": len(w.reports),
            "failed": w.failed,
            "walls": w.walls,
            "raw_walls": w.raw_walls,
            "latency_ms": {rid: statistics.median(v) * 1e3 for rid, v in w.latency.items()},
            "argv": {r.rid: " ".join(r.argv) for r in w.reports},
            "peak_mb": w.peak_mb,
            "rounds": rounds,
            "verify_s": verify_s,
            "predicted": workloads.PREDICTED[w.name],
        }
        if tracer is not None:
            entry["traced_walls"] = w.traced_walls
            entry["layers"] = {k: statistics.median(s[k] for s in w.layer_samples)
                               for k in w.layer_samples[0]}
        result[w.name] = entry
    if tracer is not None:
        with open(cfg["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    with open(cfg["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
