"""cuspdecay benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload spectrum-paper --seed 17 \\
        --seconds 55 --trace 0

Workloads: spectrum-paper, verify, plateau (see README.md).  Each call
of the workload runs in its own child process, one after another, until
--seconds is used (at least one call).  Before the calls, fresh
interpreters time the set-up (import cuspdecay, validate the config).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced calls and prints the per-layer metrics.  The metric names and
units are those listed in BENCHMARK.json.  The last line of standard
output is the result as one JSON object; the full record, with the
environment block and every call, is written under .perfbench/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench"
# set-up probes before and after the calls, so that their median spans
# the run's time on a host whose speed drifts
SETUP_PROBES = 5
# keeps a run that hangs under three minutes
CALL_TIMEOUT_S = 100


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUSPDECAY_OUT", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread per usable core, never more
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def _worker(argv, env, **kw):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        env=env, timeout=CALL_TIMEOUT_S, **kw)


def call_worker(work: str, workload: str, config: str, run_id: str,
                traced: bool, env: dict) -> dict:
    """One workload call in a fresh process, writing its artifacts to a
    fresh <work>/out; returns the worker's record (or an error record)."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    spec = {"workload": workload, "trace": traced, "run_id": run_id,
            "config": config, "out": out,
            "result": os.path.join(work, "call.json"),
            "spans": os.path.join(work, "trace.json")}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    t0 = time.perf_counter()
    with open(os.path.join(work, "call.log"), "w") as log:
        try:
            status = _worker(["call", spec_path], env, stdout=log,
                             stderr=subprocess.STDOUT).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    elapsed = time.perf_counter() - t0
    try:
        with open(spec["result"]) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        rec = {"error": "no result record (worker status %r)" % status}
    rec.update(traced=traced, out=out, spans=spec["spans"],
               process_s=elapsed, worker_status=status)
    rec.setdefault("wall_s", elapsed)
    return rec


class Bench:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.work = os.path.join(WORK_ROOT, args.workload)
        self.config = os.path.join(self.work, "run.cfg")
        self.env = child_env()
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)

    def probe(self) -> dict:
        proc = _worker(["probe", self.config], self.env, capture_output=True,
                       text=True)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def call(self, index: int, traced: bool) -> dict:
        """One workload call, then its output checks."""
        rec = call_worker(self.work, self.workload, self.config,
                          "%s-%d-%d" % (self.workload, self.seed, index),
                          traced, self.env)
        problems = []
        if rec.get("error"):
            problems.append(rec["error"])
        elif rec.get("exit") != 0:
            problems.append("exit code %r" % rec.get("exit"))
        else:
            seed = workloads.program_seed(self.seed)
            try:
                problems += checks.check(self.workload, rec["out"], seed,
                                         self.reference)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append("malformed output: %r" % exc)
        if traced and not problems:
            with open(rec["spans"]) as fh:
                rec["layers"] = tracing.layer_metrics(
                    tracing.analyse(json.load(fh)))
        rec["problems"] = problems
        return rec

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        workloads.write_config(self.workload, self.seed, self.config)
        self.probe()  # compiles bytecode and warms caches; not counted
        probes = [self.probe() for _ in range(SETUP_PROBES)]
        calls, start = [], time.perf_counter()
        while True:
            batch = [self.call(len(calls), False)]
            if self.trace:
                batch.append(self.call(len(calls) + 1, True))
            calls += batch
            used = time.perf_counter() - start
            if used + sum(c["process_s"] for c in batch) > self.seconds:
                break
        probes += [self.probe() for _ in range(SETUP_PROBES)]
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "env": dict(probes[-1]["env"],
                            **workloads.describe(self.workload, self.seed)),
                "setup_s": [p["setup_s"] for p in probes], "calls": calls}


def end_to_end(record: dict) -> dict:
    """Times and peaks over the calls that passed their checks only: a
    call that failed early would read fast and small.  None if no call
    passed."""
    calls = record["calls"]
    ok = [c for c in calls if not c["problems"]]

    def median(key):
        return statistics.median(c[key] for c in ok) if ok else None

    return {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": median("peak_rss_mb"),
        "success_rate": len(ok) / len(calls),
    }


def per_layer(record: dict) -> dict:
    calls = record["calls"]
    untraced = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"] and "layers" in c]
    m = {}
    if traced:
        for name in traced[0]["layers"]:
            m[name] = statistics.median(c["layers"][name] for c in traced)
        m["trace.wall_s"] = statistics.median(c["wall_s"] for c in traced)
    else:
        m["trace.wall_s"] = 0.0
    m["trace.untraced_wall_s"] = statistics.median(c["wall_s"]
                                                   for c in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["cli.artifact_bytes"] = statistics.median(
        c.get("artifact_bytes", 0) for c in untraced)
    m["process.cpu_s"] = statistics.median(c.get("cpu_s", 0.0)
                                           for c in untraced)
    m["process.blas_threads"] = record["env"]["blas_threads"] or 0
    return m


def _contract(kind: str) -> list:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.FIRST_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cuspdecay", "__init__.py")):
        print("error: run from the repository root; src/cuspdecay is "
              "missing", file=sys.stderr)
        return 2
    try:
        record = Bench(args).run()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    values = per_layer(record) if args.trace else end_to_end(record)
    specs = _contract("per_layer" if args.trace else "end_to_end")
    calls = record["calls"]
    failed = sum(1 for c in calls if c["problems"])
    if failed:  # per-layer numbers exist only for traced calls that passed
        values = {s["name"]: values.get(s["name"], 0.0) for s in specs}
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    record["metrics"] = metrics
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    print("environment %s" % json.dumps(record["env"], sort_keys=True))
    for c in calls:
        for p in c["problems"]:
            print("FAILED check: %s" % p)
    for name, m in metrics.items():
        print("%-40s %14s %s" % (name, "%.6g" % m["value"]
                                 if m["value"] is not None else "-",
                                 m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
