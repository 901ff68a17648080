import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense.cli import _parallel, main
from edgesense.config import (
    ConfigError,
    apply_overrides,
    parse_config,
    parse_config_dict,
)
from edgesense.experiments import CSV_HEADER_PREFIX, _openblas_threads, read_sweep_csv
from edgesense.master_eq import SolverMethod

MU = math.pi / 40
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_raw(**extra):
    raw = {
        "lattice": {"kind": "ssh", "L": 4},
        "leads": {"M": 8, "mu_L": MU, "mu_R": -MU},
        "decoherence": 0.002,
    }
    raw.update(extra)
    return raw


# Exact fingerprints, pinned so that a change to how a config is resolved
# or serialized (a key renamed, an int turned into a float) cannot pass
# unnoticed.  The edge configs cover JSON integers where floats are usual,
# the rhombic "arm" termination with a log sweep and a TimeMarch solver
# block, and the smallest valid document.
PINNED_FINGERPRINTS = {
    "fig1": "c86d2b0b14552f7deb51a43ccba7c7839e2bdac4d38a031271dceca2fa286e9a",
    "fig2": "f98f978a26fccf14d44cac65a6b44d2369b2ea2a7d3620f0291b5326b9d01455",
    "fig3": "dcbc90f2e5892f32e0672af61c40660a9a3f2fc7787a25c9f80eda59883a0162",
    "fig4": "dd5a5d4373f4cdde452056791d0f9d43d455a9e78317a7ff3d597c20df9f384a",
    "integers": "d1d51be1f698d6aa7ce9c7f587e1a464acd5dcb63e401f0557883a12ca5edb53",
    "rhombic-arm": "29246a9bf576adfa595c71144132419baf68778e6dcebee759a2dd1fadbe1c67",
    "minimal": "320b83f2016fc0ee4769f2ae3b5f2a222f534bf98d4ecfc6f6a1423b2caf8e48",
}
EDGE_CONFIGS = {
    "integers": {
        "lattice": {"kind": "ssh", "L": 8, "J": 1, "J_tilde": 0.5},
        "leads": {"M": 8, "gamma": 1},
        "coupling": 1,
        "decoherence": 0,
        "sweep": {"axis": "delta", "values": [0, 1, 2]},
    },
    "rhombic-arm": {
        "lattice": {"kind": "rhombic", "L": 3, "phi": 3, "termination": "arm"},
        "leads": {"beta": 2.5, "mu_L": 0.1},
        "decoherence": 0.01,
        "solver": {"method": "TimeMarch", "dt": 0.1, "max_time": 100, "max_iters": 1000},
        "sweep": {"axis": "kappa", "log_range": [0.001, 1], "points": 4},
    },
    "minimal": {"lattice": {"kind": "ssh"}},
}


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    def test_ssh_defaults(self):
        cfg = parse_config_dict({"lattice": {"kind": "ssh"}})
        assert cfg.lattice.L == 60
        assert cfg.lattice.J == 1.0
        assert cfg.lattice.J_tilde == 0.5
        assert cfg.leads.M == 40
        assert cfg.leads.gamma == 0.05
        assert math.isinf(cfg.leads.beta)
        assert cfg.coupling == 0.2
        assert cfg.decoherence == 0.0
        assert cfg.solver.method is SolverMethod.SYLVESTER
        assert cfg.sweep is None

    def test_rhombic_defaults(self):
        cfg = parse_config_dict({"lattice": {"kind": "rhombic"}})
        assert cfg.lattice.L == 15
        assert cfg.lattice.termination == "hub"
        assert cfg.lattice.phi == pytest.approx(math.pi)
        lat = cfg.build_lattice()
        assert lat.n_sites == 46

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "bogus": 1})

    def test_unknown_nested_key_names_the_path(self):
        with pytest.raises(ConfigError, match="lattice"):
            parse_config_dict({"lattice": {"kind": "ssh", "bogus": 1}})

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ConfigError, match="lattice.phi: not a parameter of kind 'ssh'"):
            parse_config_dict({"lattice": {"kind": "ssh", "phi": 3.0}})
        with pytest.raises(ConfigError, match="lattice.J_tilde"):
            parse_config_dict({"lattice": {"kind": "rhombic", "J_tilde": 0.5}})

    def test_odd_ssh_length_rejected(self):
        with pytest.raises(ConfigError, match="even number"):
            parse_config_dict({"lattice": {"kind": "ssh", "L": 7}})

    def test_reverse_bias_needs_opt_in(self):
        raw = {"lattice": {"kind": "ssh"}, "leads": {"mu_L": -0.1, "mu_R": 0.1}}
        with pytest.raises(ConfigError, match="reverse bias"):
            parse_config_dict(raw)
        cfg = parse_config_dict(raw, allow_reverse_bias=True)
        assert cfg.leads.mu_L == -0.1

    def test_beta_spelling(self):
        cfg = parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"beta": "inf"}})
        assert math.isinf(cfg.leads.beta)
        cfg = parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"beta": 2.5}})
        assert cfg.leads.beta == 2.5
        with pytest.raises(ConfigError, match="beta"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"beta": "warm"}})

    def test_sweep_range_materialization(self):
        raw = base_raw(sweep={"axis": "delta", "range": [-1.2, 1.2], "step": 0.01})
        grid = parse_config_dict(raw).sweep.materialize()
        assert grid.size == 241
        assert grid[0] == -1.2 and grid[-1] == 1.2
        assert_allclose(np.diff(grid), 0.01, atol=1e-12)

    def test_sweep_log_materialization(self):
        raw = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 100.0], "points": 30})
        grid = parse_config_dict(raw).sweep.materialize()
        assert grid.size == 30
        assert_allclose(grid[0], 1e-3, rtol=1e-12)
        assert_allclose(grid[-1], 100.0, rtol=1e-12)
        assert_allclose(np.diff(np.log(grid)), np.log(grid[1] / grid[0]), rtol=1e-9)

    def test_sweep_explicit_values(self):
        raw = base_raw(sweep={"axis": "delta", "values": [0.0, 0.125, -0.4]})
        grid = parse_config_dict(raw).sweep.materialize()
        assert_allclose(grid, [0.0, 0.125, -0.4], atol=0)

    def test_sweep_variants_are_exclusive(self):
        raw = base_raw(
            sweep={"axis": "delta", "values": [0.0], "range": [0.0, 1.0], "step": 0.5}
        )
        with pytest.raises(ConfigError, match="sweep"):
            parse_config_dict(raw)

    def test_sweep_reversed_range_rejected(self):
        raw = base_raw(sweep={"axis": "delta", "range": [1.0, -1.0], "step": 0.01})
        with pytest.raises(ConfigError, match="upper bound below lower"):
            parse_config_dict(raw)

    def test_bad_solver_method(self):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "solver": {"method": "Magic"}})


class TestFingerprint:
    def test_defaults_do_not_change_the_fingerprint(self):
        minimal = parse_config_dict({"lattice": {"kind": "ssh"}})
        explicit = parse_config_dict(
            {
                "lattice": {"kind": "ssh", "L": 60, "J": 1.0, "J_tilde": 0.5, "delta": 0.0},
                "leads": {
                    "M": 40,
                    "J_lead": 1.0,
                    "mu_L": 0.0,
                    "mu_R": 0.0,
                    "beta": "inf",
                    "gamma": 0.05,
                },
                "coupling": 0.2,
                "decoherence": 0.0,
                "output": {"path": ".", "format": "csv"},
            }
        )
        assert minimal.fingerprint() == explicit.fingerprint()

    def test_key_order_is_irrelevant(self):
        a = parse_config('{"lattice": {"kind": "ssh", "L": 8}, "coupling": 0.2}')
        b = parse_config('{"coupling": 0.2, "lattice": {"L": 8, "kind": "ssh"}}')
        assert a.fingerprint() == b.fingerprint()

    def test_parameter_change_moves_the_fingerprint(self):
        a = parse_config_dict(base_raw())
        raw = base_raw()
        raw["lattice"]["delta"] = 0.3
        b = parse_config_dict(raw)
        assert a.fingerprint() != b.fingerprint()
        assert len(a.fingerprint()) == 64
        assert set(a.fingerprint()) <= set("0123456789abcdef")

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_pinned_fingerprints(self, name):
        if name in EDGE_CONFIGS:
            cfg = parse_config_dict(EDGE_CONFIGS[name])
        else:
            cfg = parse_config((CONFIGS / f"{name}.json").read_text())
        assert cfg.fingerprint() == PINNED_FINGERPRINTS[name]

    def test_to_dict_round_trips(self):
        cfg = parse_config_dict(base_raw(sweep={"axis": "delta", "values": [0.1]}))
        again = parse_config_dict(cfg.to_dict())
        assert again.fingerprint() == cfg.fingerprint()


class TestOverrides:
    def test_types_and_nesting(self):
        raw = {"lattice": {"kind": "ssh"}}
        out = apply_overrides(
            raw,
            ["decoherence=0.003", "lattice.delta=0.5", "lattice.termination=arm", "leads.beta=inf"],
        )
        assert out["decoherence"] == 0.003
        assert out["lattice"]["delta"] == 0.5
        assert out["lattice"]["termination"] == "arm"
        assert out["leads"] == {"beta": "inf"}
        assert raw == {"lattice": {"kind": "ssh"}}

    def test_malformed_item(self):
        with pytest.raises(ConfigError, match="expected dotted.path=value"):
            apply_overrides({}, ["noequals"])

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigError, match="not an object"):
            apply_overrides({"coupling": 0.2}, ["coupling.deep=1"])

    def test_overridden_value_still_schema_checked(self):
        raw = apply_overrides(base_raw(), ["lattice.L=7"])
        with pytest.raises(ConfigError, match="even number"):
            parse_config_dict(raw)


class TestCli:
    def test_spectrum_artifact(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"lattice": {"kind": "ssh", "L": 8}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith(CSV_HEADER_PREFIX)
        assert len(lines[0]) == len(CSV_HEADER_PREFIX) + 64
        assert lines[1] == "index,energy,edge"
        assert len(lines) == 10
        # at L=8 the edge pair is split beyond the degeneracy tolerance, so
        # both members keep weight on the two ends
        sides = [row.split(",")[2] for row in lines[2:]]
        assert sides.count("both") == 2
        out = capsys.readouterr().out
        assert "spectrum: 8 levels, 2 edge states" in out

    def test_steady_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_raw())
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o" / "steady_state.json").read_text())
        assert payload["diagnostics"]["method"] == "SylvesterIteration"
        assert payload["diagnostics"]["residual"] < 1e-9
        assert payload["data"]["spdm"]["N"] == 20
        assert len(payload["data"]["populations"]) == 4
        prof = (tmp_path / "o" / "profile.csv").read_text().splitlines()
        assert prof[1] == "cut,current"
        currents = [float(r.split(",")[1]) for r in prof[2:]]
        assert_allclose(np.mean(currents), payload["data"]["jbar"], rtol=1e-9)
        pops = (tmp_path / "o" / "populations.csv").read_text().splitlines()
        assert pops[1] == "site,population"
        assert len(pops) == 6
        assert "steady: jbar=" in capsys.readouterr().out

    def test_sweep_gate_artifact(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "delta", "values": [-0.1, 0.0, 0.1]})
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep-gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        table = read_sweep_csv(tmp_path / "o" / "sweep_gate.csv", axis_name="delta")
        assert table.n_rows == 3
        assert table.config_fingerprint == parse_config_dict(raw).fingerprint()
        assert_allclose(table.column("converged"), np.ones(3), atol=0)
        assert "sweep-gate: 3 points" in capsys.readouterr().out

    def test_sweep_kappa_then_fit(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 1.0], "points": 8})
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["sweep-kappa", "--config", cfg, "--out", str(out)]) == 0
        csv = out / "sweep_kappa.csv"
        assert csv.exists()
        assert main(["fit", str(csv), "--out", str(out)]) == 0
        fit = json.loads((out / "esaki_tsu_fit.json").read_text())
        assert set(fit) == {"fingerprint", "a", "c", "kappa_peak", "relative_residual"}
        assert fit["a"] > 0 and fit["c"] > 0
        assert_allclose(fit["kappa_peak"], math.sqrt(fit["c"]), rtol=1e-12)
        assert fit["fingerprint"] == read_sweep_csv(csv).config_fingerprint
        assert "fit: a=" in capsys.readouterr().out

    def test_fit_rejects_short_tables(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 1.0], "points": 5})
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["sweep-kappa", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit", str(out / "sweep_kappa.csv"), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "at least 6" in err["message"]

    def test_sweep_axis_mismatch(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 1.0], "points": 6})
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep-gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "sweep.axis" in err["message"]

    def test_negative_kappa_sweep_rejected(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "kappa", "range": [-0.01, 0.01], "step": 0.01})
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep-kappa", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["message"].startswith("sweep")
        assert "non-negative" in err["message"]

    def test_sweep_section_required(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_raw())
        assert main(["sweep-gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "needs a sweep section" in json.loads(capsys.readouterr().err)["message"]

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["steady", "--config", str(tmp_path / "nope.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["steady", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "not valid JSON" in err["message"]

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_raw(mystery=1))
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "mystery" in json.loads(capsys.readouterr().err)["message"]

    def test_reverse_bias_flag(self, tmp_path, capsys):
        raw = base_raw()
        raw["leads"]["mu_L"], raw["leads"]["mu_R"] = -MU, MU
        cfg = write_cfg(tmp_path, raw)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()
        code = main(
            ["steady", "--config", cfg, "--out", str(tmp_path / "o"), "--allow-reverse-bias"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "steady_state.json").read_text())
        assert payload["data"]["jbar"] < 0

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        raw = base_raw(
            solver={"method": "TimeMarch", "max_time": 2.0, "residual_tol": 1e-13}
        )
        cfg = write_cfg(tmp_path, raw)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver"
        assert "residual" in err["detail"]

    def test_override_changes_fingerprint(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lattice": {"kind": "ssh", "L": 8}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", cfg, "--out", str(a)]) == 0
        code = main(
            ["spectrum", "--config", cfg, "--out", str(b), "--override", "lattice.delta=0.3"]
        )
        assert code == 0
        fp = lambda p: (p / "spectrum.csv").read_text().splitlines()[0]
        assert fp(a) != fp(b)

    def test_parallel_output_is_byte_identical(self, tmp_path):
        small = base_raw(
            sweep={"axis": "delta", "range": [-0.2, 0.2], "step": 0.05}
        )
        # N = 140 is large enough for OpenBLAS to thread, so the caller's
        # BLAS thread count would reach the 12th digit if sweeps used it.
        fig1 = json.loads((CONFIGS / "fig1.json").read_text())
        fig1["sweep"] = {"axis": "delta", "values": [-0.5, -0.25, 0.0, 0.25, 0.5]}
        blas = _openblas_threads()
        saved = blas[0]() if blas else None
        try:
            for name, raw in [("small", small), ("fig1", fig1)]:
                cfg = write_cfg(tmp_path, raw, f"{name}.json")
                csvs = set()
                for threads in (1, 2) if blas else (None,):
                    if blas:
                        blas[1](threads)
                    for parallel in ("1", "2", "4"):
                        out = tmp_path / f"{name}-{threads}-{parallel}"
                        argv = ["sweep-gate", "--config", cfg, "--out", str(out)]
                        assert main(argv + ["--parallel", parallel]) == 0
                        csvs.add((out / "sweep_gate.csv").read_bytes())
                assert len(csvs) == 1, name
            # steady holds BLAS at one thread too, so its CSVs match as well
            cfg = write_cfg(tmp_path, fig1, "fig1.json")
            steady = set()
            for threads in (1, 2) if blas else (None,):
                if blas:
                    blas[1](threads)
                out = tmp_path / f"steady-{threads}"
                assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
                files = ("profile.csv", "populations.csv")
                steady.add(tuple((out / f).read_bytes() for f in files))
            assert len(steady) == 1
        finally:
            if blas:
                blas[1](saved)

    def test_thread_count_resolution(self, monkeypatch):
        ns = lambda p: argparse.Namespace(parallel=p)
        monkeypatch.delenv("EDGESENSE_THREADS", raising=False)
        assert _parallel(ns(None)) == 1
        assert _parallel(ns(0)) == 1
        assert _parallel(ns(6)) == 6
        monkeypatch.setenv("EDGESENSE_THREADS", "3")
        assert _parallel(ns(None)) == 3
        assert _parallel(ns(2)) == 2
        monkeypatch.setenv("EDGESENSE_THREADS", "abc")
        assert _parallel(ns(None)) == 1

    def test_json_output_format_rejected(self, tmp_path, capsys):
        # sweeps are written as CSV only, the one format fit reads back
        raw = base_raw(
            sweep={"axis": "delta", "values": [0.0, 0.1]},
            output={"format": "json"},
        )
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep-gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "output.format" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_output_path_from_config(self, tmp_path):
        raw = base_raw(output={"path": str(tmp_path / "from_cfg")})
        cfg = write_cfg(tmp_path, raw)
        assert main(["steady", "--config", cfg]) == 0
        assert (tmp_path / "from_cfg" / "steady_state.json").exists()

    def test_module_entry_point(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lattice": {"kind": "ssh", "L": 6}})
        proc = subprocess.run(
            [sys.executable, "-m", "edgesense", "spectrum", "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "spectrum: 6 levels" in proc.stdout
