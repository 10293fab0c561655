"""Output checks, independent of the code under test: they read only the
artifacts a call wrote and the intervals recorded at the seed commit
(reference.json), and import nothing from cuspdecay.

Each check returns a list of problems; an empty list means the call's
output is correct.
"""

import csv
import json
import math
import os
import re

from workloads import SUITES

# Gates the paper's headline run must clear (same as the acceptance test).
MIN_R_SQUARED = 0.98
MAX_BETA_PLUS = 0.95

# Interval endpoints are doubles rounded from the exact values, and a
# tail below half an ulp of the value vanishes from the upper endpoint,
# so each endpoint is widened outward by a few ulps before intersecting.
_ULPS = 8 * 2.0 ** -52


def intersect(a, b) -> bool:
    (alo, ahi), (blo, bhi) = a, b
    return (alo * (1 - _ULPS) <= bhi * (1 + _ULPS)
            and blo * (1 - _ULPS) <= ahi * (1 + _ULPS))


def _interval_problems(rows, label) -> list:
    """Rows [(n, lower, upper)]: finite, 0 <= lower <= upper, and lower
    endpoints descending in n."""
    problems = []
    for n, low, high in rows:
        if not (math.isfinite(low) and math.isfinite(high)
                and 0.0 <= low <= high):
            problems.append("%s n=%d: malformed interval [%r, %r]"
                            % (label, n, low, high))
    for (n0, lo0, _), (n1, lo1, _) in zip(rows, rows[1:]):
        if lo1 > lo0:
            problems.append("%s: lower endpoint rises from n=%d to n=%d"
                            % (label, n0, n1))
    return problems


def _load_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append("cannot read %s: %s" % (os.path.basename(path), exc))
        return None


def check_spectrum(out: str, seed: int, reference: dict) -> list:
    problems = []
    decay = _load_json(os.path.join(out, "decay_paper.json"), problems)
    try:
        with open(os.path.join(out, "spectrum_paper.csv")) as fh:
            stamp = fh.readline()
            rows = [(int(r["n"]), float(r["lower"]), float(r["upper"]))
                    for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        return problems + ["cannot read spectrum_paper.csv: %s" % exc]
    if decay is None:
        return problems
    m = re.fullmatch(r"# config ([0-9a-f]{12}) seed (-?\d+)\n", stamp)
    if m is None or m.group(1) != decay.get("config"):
        problems.append("csv stamp %r does not carry the run's config hash "
                        "%r" % (stamp, decay.get("config")))
    if decay.get("seed") != seed or (m and int(m.group(2)) != seed):
        problems.append("artifacts carry seed %r, the run used %d"
                        % (decay.get("seed"), seed))
    if not rows:
        return problems + ["no spectrum rows"]
    problems += _interval_problems(rows, "a_{n^2}")
    fit, beta = decay["fit"], decay["beta"]
    if not fit["rate"] > 0.0:
        problems.append("decay rate %r is not positive" % fit["rate"])
    if not fit["r_squared"] >= MIN_R_SQUARED:
        problems.append("r^2 %r below %r" % (fit["r_squared"], MIN_R_SQUARED))
    if not beta["beta_plus"] <= MAX_BETA_PLUS:
        problems.append("beta_plus %r above %r"
                        % (beta["beta_plus"], MAX_BETA_PLUS))
    got = {n: (low, high) for n, low, high in rows}
    for n, low, high in reference["spectrum"][str(seed)]:
        if n not in got:
            problems.append("a_{%d^2} missing" % n)
        elif not intersect(got[n], (low, high)):
            problems.append("a_{%d^2} interval %r misses the seed commit's "
                            "%r" % (n, list(got[n]), [low, high]))
    return problems


def check_verify(out: str, seed: int) -> list:
    problems = []
    doc = _load_json(os.path.join(out, "verify.json"), problems)
    if doc is None:
        return problems
    if doc.get("seed") != seed:
        problems.append("verify.json carries seed %r, the run used %d"
                        % (doc.get("seed"), seed))
    if not re.fullmatch(r"[0-9a-f]{12}", str(doc.get("config"))):
        problems.append("verify.json carries no config hash")
    reports = doc.get("reports", [])
    # the covering suite reports once per family size, as covering_n<size>
    found = {re.sub(r"_n\d+$", "", str(r.get("suite"))) for r in reports}
    missing = set(SUITES) - found
    if missing:
        problems.append("suites missing: %s" % ", ".join(sorted(missing)))
    for r in reports:
        if not r.get("passed") or r.get("violations"):
            problems.append("suite %s: %d violations"
                            % (r.get("suite"), len(r.get("violations", []))))
    if doc.get("passed") is not True:
        problems.append("verify.json does not report a pass")
    return problems


def _root(interval, n):
    return tuple(x ** (1.0 / n) for x in interval)


def check_plateau(out: str, reference: dict) -> list:
    problems = []
    doc = _load_json(os.path.join(out, "plateau.json"), problems)
    if doc is None:
        return problems
    tail = doc["tail_bound"]
    rows = [(r["n"], r["lower"], r["upper"]) for r in doc["trend"]]
    problems += _interval_problems(rows, "a_n")
    got = {n: (low, high) for n, low, high in rows}
    ref = reference["plateau"]
    if doc["block_size"] != ref["block_size"]:
        problems.append("block %r, reference block %r"
                        % (doc["block_size"], ref["block_size"]))
    for n, low, high in ref["trend"]:
        if n not in got:
            problems.append("rank %d missing" % n)
        # The ranks to compare are those the seed commit certified (value
        # above its tail: 1..32 at block 80), so a collapsed plateau fails.
        elif low <= ref["tail_bound"]:
            continue
        elif not got[n][0] > tail:
            problems.append("rank %d no longer certified: lower %r not above "
                            "the tail %r" % (n, got[n][0], tail))
        elif not intersect(_root(got[n], n), _root((low, high), n)):
            problems.append("rank %d root interval %r misses the seed "
                            "commit's %r" % (n, _root(got[n], n),
                                             _root((low, high), n)))
    return problems


def check(workload: str, out: str, seed: int, reference: dict) -> list:
    if workload == "spectrum-paper":
        return check_spectrum(out, seed, reference)
    if workload == "verify":
        return check_verify(out, seed)
    return check_plateau(out, reference)
