"""One benchmark process: a set-up probe or one workload call.

    python3 perfbench/worker.py probe <config>
        Fresh interpreter: time importing cuspdecay and validating the
        config, then print {"setup_s": ..., "env": {...}} as JSON.

    python3 perfbench/worker.py call <spec.json>
        Run one workload call (traced if the spec says so) and write a
        result record to the spec's result path.

run.py starts these with src/ on PYTHONPATH, from the repository root.
"""

import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """HEAD of a git checkout in the working directory, read from its
    files; None when the directory is not a git repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        # numpy's own wheels prefix the symbols; a system OpenBLAS does not
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    import platform

    import mpmath
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def probe(config_path: str) -> None:
    t0 = time.perf_counter()
    from cuspdecay import cli
    cli.load_config(config_path, {})
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "env": environment()}))


def _plateau(spectrum, out: str) -> int:
    """The plateau workload: the library call the CLI verb makes, at the
    benchmark's block size, then trend rows at ranks 1, 2, 4, ..."""
    spct = spectrum.one_dim_plateau(workloads.PLATEAU_SCALE,
                                    block_size=workloads.PLATEAU_BLOCK)
    rows, n = [], 1
    while n <= len(spct):
        low, high = spectrum.approximation_numbers(spct, n)
        rows.append({"n": n, "lower": low, "upper": high})
        n *= 2
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "plateau.json"), "w") as fh:
        json.dump({"scale": workloads.PLATEAU_SCALE,
                   "block_size": workloads.PLATEAU_BLOCK,
                   "tail_bound": spct.tail_bound, "trend": rows}, fh,
                  indent=2)
    return 0


def _artifact_bytes(out: str) -> int:
    total = 0
    for base, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def call(spec: dict) -> None:
    record = {"exit": None, "error": None}
    try:
        from cuspdecay import cli, spectrum
        tracer = None
        if spec["trace"]:
            tracer = tracing.Tracer(spec["run_id"])
            tracer.install()
        verb = workloads.WORKLOADS[spec["workload"]]["verb"]
        c0, t0 = _cpu_s(), time.perf_counter()
        if verb is None:
            rc = _plateau(spectrum, spec["out"])
        else:
            rc = cli.main([verb, "--config", spec["config"],
                           "--out", spec["out"]])
        t1, c1 = time.perf_counter(), _cpu_s()
        record.update(exit=rc, wall_s=t1 - t0, cpu_s=c1 - c0,
                      artifact_bytes=_artifact_bytes(spec["out"]))
        if tracer is not None:
            tracer.dump(spec["spans"], t0, t1)
    except Exception:
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = _peak_rss_mb()
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)


def main() -> int:
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "probe":
        probe(arg)
    elif mode == "call":
        with open(arg) as fh:
            call(json.load(fh))
    else:
        print("unknown mode %r" % mode, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
