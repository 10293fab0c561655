"""The three benchmark workloads and the inputs each one generates.

A workload is one batch job: one call of a CLI verb (through
``cuspdecay.cli.main``) or of the plateau library function.  The
benchmark seed picks the program seed; the program only ever sees the
config file written here.
"""

# Program seeds with reference intervals recorded at the seed commit
# (see make_reference.py).  17 is the CLI default; 18 is the held-out
# seed for later claims.  Benchmark seed n runs program seed
# FIRST_SEED + (n - FIRST_SEED) mod SEED_COUNT, so 17 and 18 map to
# themselves.
FIRST_SEED = 17
SEED_COUNT = 16

# The CLI's plateau verb fixes block 160 (~140 s a call), too long to
# repeat; block 80 takes ~19 s and still certifies ranks 1..32.
PLATEAU_SCALE = 0.5
PLATEAU_BLOCK = 80

WORKLOADS = {
    # The paper's headline run: calibrate on demand, column Gram at
    # D = 48 / Q = 1024, dense eigensolve, decay fit.
    "spectrum-paper": {
        "verb": "spectrum",
        "config": {"symbol": "paper", "degree": 48, "quad": 1024,
                   "samples": 100_000},
    },
    # Every verification suite at the shipped budgets; pure Python and
    # mpmath, never touches hardy or spectrum.
    "verify": {
        "verb": "verify",
        "config": {"samples": 100_000, "calibration_samples": 1_000_000,
                   "trials": 1000},
    },
    # Arbitrary-precision Taylor block and SVD of the shrunken
    # one-variable operator; has no random input.  Not listed in
    # BENCHMARK.json: host speed phases spread its wall time past the
    # bound (see README.md).
    "plateau": {
        "verb": None,
        "config": {},
    },
}


# the verify workload's suites, as named in verify.json (the covering
# suite once per family size, covering_n<size>)
SUITES = ("cusp_geometry", "calibration", "covering", "derivative_bound",
          "schwarz_bound", "codim_count")


def program_seed(seed: int) -> int:
    return FIRST_SEED + (seed - FIRST_SEED) % SEED_COUNT


def write_config(workload: str, seed: int, path: str) -> None:
    """Write the flat key = value config the verb reads."""
    values = dict(WORKLOADS[workload]["config"], seed=program_seed(seed))
    with open(path, "w") as fh:
        fh.write("# generated by perfbench for workload %s, benchmark "
                 "seed %d\n" % (workload, seed))
        for key in sorted(values):
            fh.write("%s = %s\n" % (key, values[key]))


def describe(workload: str, seed: int) -> dict:
    """Problem sizes for the result's environment block."""
    cfg = dict(WORKLOADS[workload]["config"])
    if workload == "plateau":
        cfg.update(scale=PLATEAU_SCALE, block_size=PLATEAU_BLOCK)
    else:
        cfg["program_seed"] = program_seed(seed)
    return cfg
