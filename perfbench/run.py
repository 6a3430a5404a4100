#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when unset;
later runs rebuild incrementally. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The lines before it print every metric by name with its
unit and sample count, the output checks, and the host and build record.
The full record also goes to <build>/perfbench/results/. See
perfbench/README.md for the workloads, the metrics and what each should
move. BENCHMARK.json gates wire-oltp and paged-durable; bulk-fanout runs
the same way but is not gated, because its run-to-run spread on a shared
host exceeds any bound the file allows.
"""
import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire-oltp", "bulk-fanout", "paged-durable")
RUN_TIMEOUT_S = 170
# Fields of the host and build record that must match for two results to
# be comparable.
FINGERPRINT = ("cpu_model", "nproc", "hardware_concurrency", "compiler",
               "build_type", "sanitizer", "obs_compiled_in", "obs_enabled")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d),
                        "perfbench")


def source_digest():
    """sha256 over src/ and perfbench/, the stand-in for a commit id."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for path in glob.glob(os.path.join(ROOT, top, "**", "*"),
                              recursive=True):
            if os.path.isfile(path) and "__pycache__" not in path:
                files.append(path)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(out_dir):
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out_dir, "--target", "perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out_dir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics():
    """(end_to_end, per_layer) name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def warn_if_not_comparable(results_dir, record):
    """Warns when the previous result of this workload came from another
    host or build: its numbers must not be compared with these."""
    prev = sorted(glob.glob(os.path.join(
        results_dir, record["workload"] + "-seed*-trace*.json")),
        key=os.path.getmtime)
    if not prev:
        return
    with open(prev[-1]) as f:
        old = json.load(f)["host"]
    diff = [k for k in FINGERPRINT if old.get(k) != record["host"].get(k)]
    if diff:
        print("WARNING: the previous %s result (%s) came from a different "
              "host or build (%s); do not compare the two."
              % (record["workload"], os.path.basename(prev[-1]),
                 ", ".join(diff)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--drop-delta", action="store_true",
                    help="fault injection: withhold one delta from the "
                         "system under test; the output checks must fail")
    args = ap.parse_args()

    digest = source_digest()
    out_dir = build_root()
    binary = build(out_dir)
    e2e_units, layer_units = declared_metrics()

    work = os.path.join(out_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.drop_delta:
        cmd.append("--drop-delta")
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        shutil.rmtree(work, ignore_errors=True)
        fail("%s exited %d without a result" % (args.workload, proc.returncode), 5)

    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    spans = os.path.join(work, "spans-%s.json" % args.workload)
    if os.path.isfile(spans):  # only the latest traced run's spans are kept
        shutil.move(spans, os.path.join(results_dir,
                                        "%s-spans.json" % args.workload))
    shutil.rmtree(work, ignore_errors=True)

    build_rec = res["build"]
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": build_rec["hardware_concurrency"],
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": build_rec["compiler"],
        "build_type": build_rec["build_type"],
        "sanitizer": build_rec["sanitizer"],
        "obs_compiled_in": build_rec["obs_compiled_in"],
        "obs_enabled": build_rec["obs_enabled"],
        "commit": git_commit(),
        "source_digest": digest,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "result": res}

    print("perfbench %s seed=%d seconds=%g trace=%d input_digest=%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             res["input_digest"]))
    print("host: %d cpus (%s), hardware_concurrency %d, %s %s build, "
          "sanitizer %s, obs %s, commit %s, source %s, load %.2f -> %.2f"
          % (host["nproc"], host["cpu_model"], host["hardware_concurrency"],
             host["compiler"], host["build_type"], host["sanitizer"],
             "on" if host["obs_enabled"] else "off", host["commit"],
             digest, load_before[0], load_after[0]))
    warn_if_not_comparable(results_dir, record)
    print("run info: " + json.dumps(res["info"], sort_keys=True))
    print("end-to-end:")
    for m in res["e2e"]:
        print("  %-26s %14.6g %-9s n=%-8d %s" % (m["name"], m["value"], m["unit"],
                                               m["samples"], m.get("note", "")))
    print("  %-26s %14.6g %-9s n=%-8d %s" % (
        "failed_ratio", res["failed_ratio"], "fraction", res["attempted"],
        "(ERR replies + transport errors + failed Status + failed checks) "
        "/ operations attempted"))
    if res["layer"]:
        print("per-layer:")
        for m in res["layer"]:
            print("  %-36s %14.6g %-9s n=%d" % (m["name"], m["value"],
                                                m["unit"], m["samples"]))
    for c in res["checks"]:
        print("check %-4s %s: %s" % ("ok" if c["ok"] else "FAIL",
                                      c["name"], c["detail"]))

    with open(os.path.join(results_dir, "%s-seed%d-trace%d-%s-%d.json" % (
            args.workload, args.seed, args.trace, stamp, os.getpid())), "w") as f:
        json.dump(record, f, indent=1)

    reported = {m["name"]: m["value"] for m in res["e2e"]}
    metrics = {}
    if args.trace:
        # Layers a workload bypasses report nothing; they read zero.
        reported = {m["name"]: m["value"] for m in res["layer"]}
        for name, unit in layer_units.items():
            metrics[name] = {"value": reported.get(name, 0.0), "unit": unit}
    else:
        for name, unit in e2e_units.items():
            if name not in reported:
                fail("workload did not report " + name, 6)
            metrics[name] = {"value": reported[name], "unit": unit}
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if res["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
