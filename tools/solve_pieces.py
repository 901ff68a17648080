"""Time the pieces of one Sylvester solve against the eigendecompositions it runs.

Usage, from the root of an edgesense checkout (or with --root pointing at one):

    OPENBLAS_NUM_THREADS=1 python3 tools/solve_pieces.py --repeats 41 [--root DIR]

Prints one JSON object.  ``sectors_ms`` is one build of the symmetry blocks
and the chiral phases found with them (``master_eq._Sectors``) on each
shipped config.  For each case (config, gate, kappa), ``floor_ms`` is
``np.linalg.eig`` + ``inv`` of the blocks the factorization actually
eigendecomposes (``eig_blocks``: one where the chiral fold holds),
``factorization_ms`` the factorization with the blocks already found
(at kappa > 0 it includes building I - kappa M, whose dephasing map is also
timed alone), ``above_floor_ms`` the difference, ``dephasing_map_ms`` the
lattice reduction (kappa > 0), ``residual_ms`` the residual check, and
``solve_ms`` one ``solve_steady_state`` on a system whose blocks are built;
``solve_over_floor`` is solve_ms / floor_ms.  Every time is the median of
--repeats calls, taken in turn so that a slow spell of the host touches
every piece alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

CASES = (
    ("fig1", 0.0, 0.0),
    ("fig1", 0.0, 0.002),
    ("fig1", 0.3, 0.002),
    ("fig2", None, 0.001),
    ("fig3", None, 0.001),
    ("fig4", None, 0.001),
)


def timed(f) -> float:
    start = time.perf_counter()
    f()
    return 1e3 * (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from edgesense import master_eq
    from edgesense.config import parse_config

    def cfg(name):
        return parse_config((root / "configs" / f"{name}.json").read_text())

    def floor(sys_, kappa, fact):
        z = complex(0.5 * kappa, sys_.lattice.gate_offset)
        for _, _, b_s, lat_s in master_eq._sectors(sys_).blocks[: len(fact.eig_blocks)]:
            a_s = b_s.copy()
            a_s[lat_s, lat_s] += z
            _, v = np.linalg.eig(a_s)
            np.linalg.inv(v)

    out = {"root": str(root), "repeats": args.repeats, "sectors_ms": {}, "cases": []}
    for name in ("fig1", "fig2", "fig3", "fig4"):
        systems = [cfg(name).build_system() for _ in range(args.repeats)]
        out["sectors_ms"][name] = statistics.median(
            timed(lambda s=s: master_eq._Sectors(s)) for s in systems
        )
    for name, gate, kappa in CASES:
        sys_ = cfg(name).build_system(gate=gate)
        rho, _ = master_eq.solve_steady_state(sys_, kappa)
        fact = master_eq._SylvesterFactorization(sys_, kappa)
        pieces = {
            "floor_ms": lambda: floor(sys_, kappa, fact),
            "factorization_ms": lambda: master_eq._SylvesterFactorization(sys_, kappa),
            "residual_ms": lambda: master_eq._residual(sys_, rho.matrix, kappa),
            "solve_ms": lambda: master_eq.solve_steady_state(sys_, kappa),
        }
        if kappa > 0:
            pieces["dephasing_map_ms"] = fact.dephasing_map
        times = {key: [] for key in pieces}
        for _ in range(args.repeats):
            for key, f in pieces.items():
                times[key].append(timed(f))
        row = {"config": name, "gate": gate, "kappa": kappa, "eig_blocks": list(fact.eig_blocks)}
        row.update({key: statistics.median(t) for key, t in times.items()})
        row["above_floor_ms"] = row["factorization_ms"] - row["floor_ms"]
        row["solve_over_floor"] = row["solve_ms"] / row["floor_ms"]
        out["cases"].append(row)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
