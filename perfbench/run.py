"""shiftlab benchmark: CLI reports run in-process through cli.main.

    python3 perfbench/run.py --workload enumerate|automata|recode|batch|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller in a closed loop, in one
child process whose address space is capped (a blow-up fails reports, not
the machine) and whose BLAS libraries are pinned to one thread.  The child
builds the workload's documents from the seed, verifies every report
against an independent path, then repeats passes over the report list for
S seconds.  ``--workload all`` runs the four workloads round-robin in one
child and prefixes each metric with its workload.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics (end-to-end with --trace 0, per layer with
--trace 1).  Lines before it are a readable table of the same numbers.
Per-report latencies, and spans of the traced pass, are written to
.bench_out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("enumerate", "automata", "recode", "batch")
ADDRESS_SPACE_CAP = 3 * 2 ** 30
SETUP_REPEATS = 7
CHILD_GRACE = 120
OUT_DIR = ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = ("import sys, time; sys.path.insert(0, %r); import hostspeed; "
              "p = hostspeed.probe(); t = time.perf_counter(); import shiftlab.cli as c; "
              "c.build_parser(); t = time.perf_counter() - t; "
              "print(t * hostspeed.REFERENCE_S / ((p + hostspeed.probe()) / 2))" % HERE)


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(cmd, env, timeout):
    """Run one child to completion; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=cap_address_space, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, "timed out after %ds\n%s" % (timeout, err)
    return proc.returncode, out, err


def measure_setup(env):
    samples = []
    for _ in range(SETUP_REPEATS):
        rc, out, err = run_child([sys.executable, "-c", SETUP_CODE], env, 60)
        if rc != 0:
            fail("set-up probe failed: %s" % err.strip()[-500:])
        samples.append(float(out.strip()))
    return statistics.median(samples)


def percentile_at_ten_beyond(values):
    """(percentile, value): the highest percentile, at most 95, with at
    least ten samples above it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    q = min(0.95, (n - 10) / n) if n > 10 else 0.0
    rank = max(1, math.ceil(q * n - 1e-9))
    return round(100 * q, 1), xs[rank - 1]


def end_to_end(entry, setup_s):
    lat = list(entry["latency_ms"].values())
    pct, tail = percentile_at_ten_beyond(lat)
    failed = len(entry["failed"])
    return {
        "wall_s": (sum(lat) / 1e3, "s"),
        "report_p50_ms": (statistics.median(lat), "ms"),
        "report_p95_ms": (tail, "ms"),
        "peak_mem_mb": (entry["peak_mb"], "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1 - failed / entry["reports"], "ratio"),
    }, {"failed_frac": failed / entry["reports"], "latency_samples": len(lat),
        "tail_percentile": pct, "passes": len(entry["walls"]),
        "raw_wall_s": statistics.median(entry["raw_walls"])}


def per_layer(entry):
    layers = dict(entry["layers"])
    overhead = statistics.median(entry["traced_walls"]) - statistics.median(entry["walls"])
    layers["trace.overhead_s"] = overhead
    out = {}
    for key, value in layers.items():
        unit = "s" if key.endswith("_s") else ("ratio" if key.endswith("_ratio") else "count")
        out[key] = (value, unit)
    return out


def provenance(root):
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, mpmath; print(numpy.__version__, mpmath.__version__)"],
        capture_output=True, text=True, timeout=60, env=child_env(root)).stdout.split()
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": versions[0] if versions else None,
            "mpmath": versions[1] if len(versions) > 1 else None,
            "nproc": os.cpu_count()}


def top_layers(layers, k=3):
    selfs = {key[:-len(".self_s")]: v for key, v in layers.items() if key.endswith(".self_s")}
    return sorted(selfs, key=selfs.get, reverse=True)[:k]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shiftlab", "cli.py")):
        fail("no src/shiftlab/cli.py under %s; run from the root of a checkout" % root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(root, OUT_DIR, "spans-%s.jsonl" % tag)
    config = {"workloads": names, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "docdir": os.path.join(work, "docs"),
              "result": os.path.join(work, "result.json"), "spans": spans}
    try:
        with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        t0 = time.perf_counter()
        rc, out, err = run_child([sys.executable, os.path.join(HERE, "child.py"),
                                  os.path.join(work, "config.json")],
                                 env, args.seconds * 2 + CHILD_GRACE)
        if rc != 0:
            fail("child run failed (%s): %s" % (rc, err.strip()[-2000:]))
        with open(config["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        child_s = time.perf_counter() - t0
        setup_s = measure_setup(env) if not args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "child_s": round(child_s, 2),
            "verify_s": round(result[names[0]]["verify_s"], 2),
            "pass_walls": {n: [round(x, 3) for x in result[n]["walls"]] for n in names},
            **provenance(root)}
    print("# %s" % json.dumps(info, sort_keys=True))
    with open(os.path.join(root, OUT_DIR, "reports-%s.json" % tag), "w", encoding="utf-8") as handle:
        json.dump({name: {"latency_ms": result[name]["latency_ms"],
                          "argv": result[name]["argv"],
                          "failed": result[name]["failed"]} for name in names},
                  handle, indent=1, sort_keys=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        entry = result[name]
        attempted += entry["reports"]
        failed += len(entry["failed"])
        prefix = name + "." if args.workload == "all" else ""
        if args.trace:
            values = per_layer(entry)
            top = top_layers(entry["layers"])
            predicted = entry["predicted"]
            print("## %s: top layers by self time %s; predicted among %s%s" % (
                name, ", ".join(top), ", ".join(predicted),
                "" if top[0] in predicted else " (dominant layer differs)"))
        else:
            values, extra = end_to_end(entry, setup_s)
            print("## %s: %d reports, %d passes, latency samples %d, tail percentile p%s, "
                  "failed_frac %.4f (ratio), raw median pass %.3f s" % (
                      name, entry["reports"], extra["passes"], extra["latency_samples"],
                      extra["tail_percentile"], extra["failed_frac"], extra["raw_wall_s"]))
        for key, (value, unit) in values.items():
            print("%-44s %16.6f %s" % (prefix + key, value, unit))
            metrics[prefix + key] = {"value": value, "unit": unit}
        for rid, reason in sorted(entry["failed"].items()):
            print("FAILED %s: %s" % (rid, reason))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
