"""Time the pieces of one Sylvester solve against the eigendecompositions it runs.

Usage, from the root of an edgesense checkout (or with --root pointing at one):

    python3 tools/solve_pieces.py --repeats 41 [--root DIR]

Prints one JSON object.  ``sectors_ms`` is one build of the symmetry blocks
and the chiral phases found with them (``master_eq._Sectors``) on each
shipped config.  For each case (config, gate, kappa), ``floor_ms`` is
``np.linalg.eig`` + ``inv`` of the blocks the factorization actually
eigendecomposes (``eig_blocks``: one where the chiral fold holds),
``factorization_ms`` the factorization with the blocks already found, in a
fresh workspace (at kappa > 0 it includes building I - kappa M, whose
dephasing map is also timed alone), ``above_floor_ms`` the difference,
``dephasing_map_ms`` the lattice reduction (kappa > 0), ``residual_ms`` the
residual check, and ``solve_ms`` one ``solve_steady_state`` on a system
whose blocks are built but hold no idle workspace, so in a fresh
workspace, as a system's first solve runs; ``solve_over_floor`` is
solve_ms / floor_ms.  ``row_ms`` is the solve as a sweep row runs it: on a
system whose blocks already hold an idle workspace
(``master_eq._Sectors.idle``), so the second solve of one system.  Every
time is the median of --repeats calls, taken in turn so that a slow spell
of the host touches every piece alike.  For each piece, ``<piece>_minflt``
and ``<piece>_sys_ms`` are the medians of the minor page faults and the
system CPU time that ``resource.getrusage`` counts over the call: the
allocator's share of the piece.  Each call holds OpenBLAS at one thread
(``master_eq._one_blas_thread``), as every solve does, so the floor and
the pieces run on the threads the solve runs on.
"""

from __future__ import annotations

import argparse
import json
import resource
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

    def measured(f, setup=None) -> tuple[float, int, float]:
        """(ms, minor faults, system ms) of one call of f under the pin, after an untimed setup()."""
        with master_eq._one_blas_thread():
            if setup is not None:
                setup()
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            f()
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
        return 1e3 * wall, after.ru_minflt - before.ru_minflt, 1e3 * (after.ru_stime - before.ru_stime)

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
            measured(lambda s=s: master_eq._Sectors(s))[0] for s in systems
        )
    for name, gate, kappa in CASES:
        sys_ = cfg(name).build_system(gate=gate)
        rho, _ = master_eq.solve_steady_state(sys_, kappa)
        fact = master_eq._SylvesterFactorization(sys_, kappa)
        idle = master_eq._sectors(sys_).idle

        def residual():
            # its two N x N arrays fresh, as in a bare solve
            master_eq._residual(sys_, rho, kappa, master_eq._Workspace(sys_.size, 0))

        def solve():
            master_eq.solve_steady_state(sys_, kappa)

        def one_idle():
            # the solve before it leaves one workspace on the blocks
            idle.clear()
            solve()

        # piece: (call, untimed setup)
        pieces = {
            "floor": (lambda: floor(sys_, kappa, fact), None),
            "factorization": (lambda: master_eq._SylvesterFactorization(sys_, kappa), idle.clear),
            "residual": (residual, None),
            "solve": (solve, idle.clear),
            "row": (solve, one_idle),
        }
        if kappa > 0:
            pieces["dephasing_map"] = (fact.dephasing_map, None)
        samples = {key: [] for key in pieces}
        for _ in range(args.repeats):
            for key, (f, setup) in pieces.items():
                samples[key].append(measured(f, setup))
        row = {"config": name, "gate": gate, "kappa": kappa, "eig_blocks": list(fact.eig_blocks)}
        for key, runs in samples.items():
            for i, unit in enumerate(("ms", "minflt", "sys_ms")):
                row[f"{key}_{unit}"] = statistics.median(r[i] for r in runs)
        row["above_floor_ms"] = row["factorization_ms"] - row["floor_ms"]
        row["solve_over_floor"] = row["solve_ms"] / row["floor_ms"]
        out["cases"].append(row)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
