"""Regenerate ``reference.json``: the outputs that the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py [--commit HASH]

Run from the repository root at the commit whose outputs become the
reference.  It stores, per workload, the solved values and iteration counts
(every pair of the sequence and compute studies), the sequence functionals,
the class-check measurements, and the solver and brute-force values of every
oracle pool instance.  None of them depends on ``--seed``: the corner-pair
studies have no random draw, and the oracle seed only picks pool instances.
The oracle pool takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import tempfile

import work
from dpmod import experiments, families, solver


def require(ok, what):
    if not ok:
        raise SystemExit(f"reference run failed: {what}")


def sequence_reference(tmp):
    wl = work.SequenceSpike(0, os.path.join(tmp, "sequence"), None)
    require(wl.study()["rc"] == [0], "sequence study")
    rows = work.read_csv(os.path.join(wl.out, "sequence.csv"))
    functionals = {r["j"]: {k: float(r[k]) for k in ("I_g", "I_inv", "I_eta", "I_33")}
                   for r in rows}
    base, params = wl.api_setup()
    pairs = experiments._corner_pairs(base[0])

    def solved(g):
        return [{"value": oc.result.value, "iters": oc.result.iterations}
                for oc in solver.distance_matrix(pairs, g, base[1], params)]

    return {"pairs": [list(pq) for pq in pairs], "functionals": functionals,
            "baseline": solved(base[1]),
            "members": {str(j): solved(families.make_spike_sequence(base, j))
                        for j in work.SEQUENCE["j_list"]}}


def compute_reference(tmp):
    wl = work.ComputeSpike(0, os.path.join(tmp, "compute"), None)
    require(wl.study()["rc"] == [0], "compute study")
    return {"rows": [{"x": int(r["x"]), "y": int(r["y"]), "value": float(r["value"]),
                      "iters": int(r["iters"]), "active_constraint": r["active_constraint"]}
                     for r in work.read_csv(os.path.join(wl.out, "compute.csv"))]}


def geometry_reference(tmp):
    wl = work.GeometryT3(0, os.path.join(tmp, "geometry"), None)
    require(wl.study()["rc"] == [0, 0], "geometry study")
    with open(os.path.join(wl.out, "class_check.txt")) as fh:
        measured = [float(m) for m in re.findall(r"measured = (\S+)", fh.read())]
    return {"class_check": dict(zip(("mass_norm", "inverse_norm", "diameter"), measured))}


def oracle_reference():
    pool = {}
    for shape in work.ORACLE_SHAPES:
        for index in range(work.ORACLE_POOL):
            r, converged, truth = work.solve_oracle_instance(*work.oracle_instance(shape, index))
            require(converged and abs(r.value - truth) <= work.ORACLE_RTOL * truth,
                    f"oracle instance {shape}/{index}")
            pool[f"{shape}/{index}"] = {"value": r.value, "iters": r.iterations, "oracle": truth}
            print(f"{shape}/{index}: solver {r.value!r} oracle {truth!r}", flush=True)
    return {"pool": pool}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", default="", help="commit the reference is taken from")
    args = ap.parse_args()
    tmp = tempfile.mkdtemp(prefix="reference-", dir=".")
    try:
        ref = {"commit": args.commit,
               "sequence_spike_t2": sequence_reference(tmp),
               "compute_spike_t3": compute_reference(tmp),
               "geometry_t3": geometry_reference(tmp),
               "oracle_tiny": oracle_reference()}
    finally:
        shutil.rmtree(tmp)
    with open(work.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
