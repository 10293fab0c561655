"""Record the reference intervals the output checks compare against.

Run once, from the repository root, at the commit whose numbers are the
reference (the seed commit), and commit the result:

    python3 perfbench/make_reference.py

It runs the spectrum-paper workload for every program seed in the pool
and the plateau workload once, each in its own process as run.py does,
and writes perfbench/reference.json.  Later commits must not rewrite
it: an interval that stops intersecting its reference is a finding.
"""

import csv
import hashlib
import json
import os
import sys

import run
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join("src", "cuspdecay"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _call(workload: str, seed: int, work: str) -> str:
    config = os.path.join(work, "run.cfg")
    workloads.write_config(workload, seed, config)
    rec = run.call_worker(work, workload, config, "reference", False,
                          run.child_env())
    if rec.get("error") or rec.get("exit") != 0:
        raise SystemExit("%s seed %d failed: %r" % (workload, seed, rec))
    return rec["out"]


def main() -> int:
    work = os.path.join(run.WORK_ROOT, "reference")
    os.makedirs(work, exist_ok=True)
    ref = {"git_sha": worker.git_sha(), "src_sha256": _src_digest(),
           "spectrum": {}}
    for seed in range(workloads.FIRST_SEED,
                      workloads.FIRST_SEED + workloads.SEED_COUNT):
        out = _call("spectrum-paper", seed, work)
        with open(os.path.join(out, "spectrum_paper.csv")) as fh:
            fh.readline()
            ref["spectrum"][str(seed)] = [
                [int(r["n"]), float(r["lower"]), float(r["upper"])]
                for r in csv.DictReader(fh)]
        print("spectrum seed %d recorded" % seed, flush=True)
    out = _call("plateau", workloads.FIRST_SEED, work)
    with open(os.path.join(out, "plateau.json")) as fh:
        doc = json.load(fh)
    ref["plateau"] = {"scale": doc["scale"], "block_size": doc["block_size"],
                      "tail_bound": doc["tail_bound"],
                      "trend": [[r["n"], r["lower"], r["upper"]]
                                for r in doc["trend"]]}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % os.path.join(HERE, "reference.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
