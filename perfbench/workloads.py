"""The benchmark's workloads: inputs made from a seed, outputs, and checks.

* `tfim_verify`: `lrlab verify` on the TFIM chain (the paper's headline
  check, acceptance criterion 02).  Most of its time is the exact
  sweep in `dynamics`: `eigvalsh` inside `spectral_norm` and two rotation
  products per time step.
* `dicke_truncation`: the truncation study of
  `scripts/run_dicke_truncation.py` on the spin-boson chain (criterion 04).
  Most of its time is the `lattice` constants layer: dense products on
  unions of up to 2048 dimensions.  No dynamics.
* `tfim_series`: `lrlab bound` on a 128-site TFIM chain with many targets.
  Pure-Python chain DP (`chains`) and series evaluation (`bounds`), plus
  thousands of norms on 4x4 to 8x8 unions, the opposite use of `lattice` and
  `operators` from `dicke_truncation`.  No BLAS-sized matrices, no dynamics.

The seed changes couplings (Dicke chain only), observable placement, targets
and the time span, never the sizes, so every seed costs the same.  `DEFAULT_SEED` gives the canonical
inputs whose outputs are recorded in `reference.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("tfim_verify", "dicke_truncation", "tfim_series")

REL_TOL = 1e-12  # constants and bounds against the reference
NORM_ABOVE_TOL = 1e-9  # a measured norm may exceed its reference by this
NORM_BELOW_TOL = 1e-12  # rounding only: an under-estimated norm hides violations
SPREAD_TOL = 1e-9  # observable-bound spread over truncations
BRUTE_FORCE_ORDER = 8
BRUTE_FORCE_TABLES = 3

VERIFY_LENGTH = 9
SERIES_LENGTH = 128
SERIES_TARGETS = 16
DICKE_LENGTH = 4
DICKE_TRUNCATIONS = (2, 3, 4)


def _tfim_config(length, j, g, op_site, oq_sites, stop, points):
    return {
        "model": {"name": "tfim", "length": length, "j": j, "g": g},
        "observables": {
            "op_site": op_site,
            "op_pauli": "Z",
            "oq_sites": oq_sites,
            "oq_pauli": "Z",
        },
        "time_grid": {"start": 0.0, "stop": stop, "points": points},
        "methods": ["closed_form", "series_exact_cn"],
        "series_tol": 1e-9,
        "slack": 1e-9,
        "threshold": 1e-3,
    }


def make_job(workload: str, seed: int, out_dir: Path) -> dict:
    """The inputs of one run: a CLI config or script arguments, from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    canonical = seed == DEFAULT_SEED
    out = str(out_dir / "out")
    if workload == "tfim_verify":
        # Z@op against Z at separations 3..8, from either end of the chain,
        # up to a time drawn by the seed.  J = g = 1 as in criterion 02:
        # with couplings below 1, `series_exact_cn` can fall below the exact
        # norm (J = g = 0.83: worst margin -2.9e-4), so verify reports FAIL.
        end = 0 if canonical else rng.choice((0, VERIFY_LENGTH - 1))
        stop = 3.0 if canonical else rng.uniform(2.5, 3.5)
        step = 1 if end == 0 else -1
        oq = [end + step * d for d in range(3, VERIFY_LENGTH)]
        config = _tfim_config(VERIFY_LENGTH, 1.0, 1.0, end, oq, stop, 5)
        return {"kind": "cli", "command": "verify", "config": config, "out": out}
    if workload == "tfim_series":
        # The series order needed at t = 10 fixes the DP depth, so the
        # couplings stay at 1; the seed moves O_P and picks the targets.
        op = 40 if canonical else rng.randint(36, 48)
        dists = (list(range(3, 64, 4)) if canonical
                 else sorted(rng.sample(range(3, 64), SERIES_TARGETS)))
        config = _tfim_config(
            SERIES_LENGTH, 1.0, 1.0, op, [op + d for d in dists], 10.0, 201)
        return {"kind": "cli", "command": "bound", "config": config, "out": out}
    if workload == "dicke_truncation":
        h, t = (1.0, 1.0) if canonical else (
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        argv = ["--length", str(DICKE_LENGTH), "--truncations"]
        argv += [str(m) for m in DICKE_TRUNCATIONS]
        argv += ["--h", repr(h), "--time", repr(t), "--out", out]
        return {"kind": "script", "script": "scripts/run_dicke_truncation.py",
                "argv": argv, "out": out}
    raise ValueError(f"unknown workload {workload!r}")


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _digest(table: dict) -> dict:
    """A chain table with its counts (integers of up to ~80 digits) hashed."""
    counts = json.dumps(table["counts"]).encode()
    return {"start": table["start"], "target": table["target"],
            "n_max": table["n_max"],
            "counts_sha256": hashlib.sha256(counts).hexdigest()}


def outputs(workload: str, out: Path, chains: list) -> dict:
    """The checked outputs of one run, read from its artifacts and from the
    chain tables the run computed.

    `constants` and `bounds` are compared relatively, `norms` (measured
    commutator norms) absolutely, `chains` exactly.
    """
    chains = [_digest(t) for t in chains]
    if workload == "dicke_truncation":
        rows = _rows(out / "truncation.csv")
        return {
            "chains": chains,
            "constants": {f"{k}_m{r['m']}": float(r[k]) for r in rows
                          for k in ("K", "Q")},
            "bounds": [float(r[k]) for r in rows
                       for k in ("observable_bound", "reference_prefactor")],
            "norms": [float(r[k]) for r in rows
                      for k in ("pair_norm", "pair_norm_projected")],
        }
    consts = json.loads((out / "constants.json").read_text())
    res = {
        "chains": chains,
        "constants": {k: float(v) for k, v in consts.items()
                      if not isinstance(v, bool)},
    }
    if workload == "tfim_verify":
        res["bounds"] = [float(r["bound"]) for r in _rows(out / "verification.csv")]
        res["norms"] = [float(r["measured"]) for r in _rows(out / "simulation.csv")]
        verdict = json.loads((out / "verification.json").read_text())
        res["verdict"] = {k: verdict[k] for k in ("passed", "worst_margin", "slack")}
    else:
        # Every 10th of the 201 time points keeps the reference file small.
        res["bounds"] = [float(r["value"]) for r in _rows(out / "bounds.csv")[::10]]
        res["norms"] = []
    return res


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(got: dict, ref: dict) -> list:
    """Differences between one run's outputs and the recorded reference."""
    errors = []
    if got["chains"] != ref["chains"]:
        errors.append("chain counts differ from the reference")
    if got["constants"].keys() != ref["constants"].keys():
        errors.append("constant names differ from the reference")
    for key in sorted(got["constants"].keys() & ref["constants"].keys()):
        if not _close(got["constants"][key], ref["constants"][key]):
            errors.append(f"constant {key} = {got['constants'][key]!r}, "
                          f"reference {ref['constants'][key]!r}")
    for name, check in (("bounds", lambda a, b: _close(a, b)),
                        ("norms", lambda a, b: b - NORM_BELOW_TOL <= a
                         <= b + NORM_ABOVE_TOL)):
        if len(got[name]) != len(ref[name]):
            errors.append(f"{len(got[name])} {name}, reference has "
                          f"{len(ref[name])}")
            continue
        for i, (a, b) in enumerate(zip(got[name], ref[name])):
            if not check(a, b):
                errors.append(f"{name}[{i}] = {a!r}, reference {b!r}")
    return errors


def invariants(workload: str, job: dict, got: dict, chains: list,
               brute_cache: dict) -> list:
    """The paper's claims, checked on any seed; `chains` are the raw tables."""
    errors = []
    if workload == "tfim_verify":
        v = got["verdict"]
        if not v["passed"] or v["worst_margin"] < -v["slack"]:
            errors.append(f"verify failed: worst margin {v['worst_margin']!r}")
    elif workload == "dicke_truncation":
        obs = got["bounds"][0::2]
        pref = got["bounds"][1::2]
        spread = (max(obs) - min(obs)) / obs[0]
        if spread > SPREAD_TOL:
            errors.append(f"observable bound spread {spread:.3e} over truncations")
        if not all(b > a for a, b in zip(pref, pref[1:])):
            errors.append(f"reference prefactors not strictly growing: {pref}")
    else:
        if not chains:
            errors.append("no chain tables were computed")
        errors += _dp_matches_brute_force(job["config"], chains, brute_cache)
    return errors


def _dp_matches_brute_force(config: dict, chains: list, cache: dict) -> list:
    """count_chains_dp against explicit enumeration through order 8, on the
    tables of the nearest targets (farther ones are zero below that order)."""
    from lrlab.chains import count_chains_bruteforce
    from lrlab.lattice import noncommuting_adjacency, region
    from lrlab.models import build_model

    m = config["model"]
    key = (m["name"], m["length"], m["j"], m["g"])
    if key not in cache:
        model = build_model(m["name"], m["length"], j=m["j"], g=m["g"])
        cache[key] = (model, noncommuting_adjacency(model))
    model, adj = cache[key]
    errors = []
    nearest = sorted(chains, key=lambda c: min(
        abs(s - model.terms[c["start"]].support.sites[0]) for s in c["target"]))
    for table in nearest[:BRUTE_FORCE_TABLES]:
        tkey = key + (table["start"], tuple(table["target"]))
        if tkey not in cache:
            brute = count_chains_bruteforce(
                adj, table["start"], region(model.graph, table["target"]),
                BRUTE_FORCE_ORDER)
            cache[tkey] = [brute.counts[n] for n in range(BRUTE_FORCE_ORDER + 1)]
        if table["counts"][: BRUTE_FORCE_ORDER + 1] != cache[tkey]:
            errors.append(f"chain DP differs from brute force for start "
                          f"{table['start']}, target {table['target']}")
    return errors


def check(workload: str, seed: int, job: dict, result: dict, reference: dict,
          brute_cache: dict) -> list:
    """All output checks of one run; an empty list means it passed."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    try:
        got = outputs(workload, Path(job["out"]), result["chains"])
    except (OSError, KeyError, ValueError) as e:
        return [f"artifacts unreadable: {e!r}"]
    errors = invariants(workload, job, got, result["chains"], brute_cache)
    if seed == DEFAULT_SEED:
        errors += compare(got, reference[workload])
    return errors
