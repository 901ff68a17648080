import concurrent.futures
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense import experiments
from edgesense.cli import build_parser, main
from edgesense.config import (
    ConfigError,
    SweepSettings,
    apply_overrides,
    parse_config,
    parse_config_dict,
)
from edgesense.experiments import (
    CSV_HEADER_PREFIX,
    SweepTable,
    fit_esaki_tsu,
    read_sweep_csv,
    write_sweep_csv,
)
from edgesense.lattice import RHOMBIC_TERMINATIONS
from edgesense.leads import MIN_RING_SIZE
from edgesense.master_eq import SolverMethod, _openblas_threads, solve_steady_state

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
# or serialized (a key renamed, a float field kept as an int) cannot pass
# unnoticed.  The edge configs cover JSON integers where floats are usual,
# the rhombic "arm" termination with a log sweep and a non-default solver
# block, and the smallest valid document.
PINNED_FINGERPRINTS = {
    "fig1": "2c1c6cfce289c0bd3c6ed886bcb5bdeb7fb3379b23c3bf2889aca33564638fdb",
    "fig2": "2fb0ee80dfb5a4f914a5268bdb1a7ca9ff344d4864f5c095412887580ac69a4e",
    "fig3": "7ef978599239e19fc586bb22ef490a3f0354910ca927c9f05173ad2fede0d31f",
    "fig4": "7c39594f6bf09611ab42df126d647431d63402e031fbd4cf9541e31bb1ea5959",
    "integers": "1b3f6fbbdafbf1da54a844095e9c670b92e89014e0abafcaa4eb63222bb4efb9",
    "rhombic-arm": "bd96927b432cee63966eb73145d72f8727feb76ac905010a6aea7dedbc565136",
    "minimal": "cd50362f4aa3087487ae4063cef021062b46474d41e6a001f0bad17efbf30e56",
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
        "solver": {"method": "FullLinearSolve", "residual_tol": 1e-10},
        "sweep": {"axis": "kappa", "log_range": [0.001, 1], "points": 4},
    },
    "minimal": {"lattice": {"kind": "ssh"}},
}


def _with(section, **entries):
    """The smallest valid ssh document plus one section holding ``entries``."""
    if section == "lattice":
        return {"lattice": {"kind": "ssh", **entries}}
    if section == "rhombic":
        return {"lattice": {"kind": "rhombic", **entries}}
    return {"lattice": {"kind": "ssh"}, section: entries}


# Every validation rule, one case each: (document, dotted path the message
# starts with, key or value the message names).
REJECTIONS = {
    # unknown keys, at each level
    "unknown-root": ({"lattice": {"kind": "ssh"}, "bogus": 1}, "<root>", "bogus"),
    "unknown-lattice": (_with("lattice", bogus=1), "lattice", "bogus"),
    "unknown-leads": (_with("leads", bogus=1), "leads", "bogus"),
    "unknown-solver": (_with("solver", bogus=1), "solver", "bogus"),
    "unknown-sweep": (_with("sweep", axis="delta", values=[0.0], bogus=1), "sweep", "bogus"),
    "unknown-output": (_with("output", bogus=1), "output", "bogus"),
    # required keys
    "missing-lattice": ({}, "<root>", "lattice"),
    "missing-kind": ({"lattice": {}}, "lattice", "kind"),
    "missing-axis": (_with("sweep", values=[0.0]), "sweep", "sweep"),
    # wrong types, booleans included
    "root-not-object": ([], "<root>", "object"),
    "lattice-not-object": ({"lattice": 3}, "lattice", "object"),
    "leads-not-object": ({"lattice": {"kind": "ssh"}, "leads": 3}, "leads", "object"),
    "type-integer": (_with("lattice", L="8"), "lattice.L", "8"),
    "type-number": (_with("leads", mu_L="a"), "leads.mu_L", "a"),
    "type-top-number": ({"lattice": {"kind": "ssh"}, "coupling": "0.2"}, "coupling", "0.2"),
    "type-string": (_with("output", path=3), "output.path", "3"),
    "type-list": (_with("sweep", axis="delta", values=0.1), "sweep.values", "0.1"),
    "type-list-item": (_with("sweep", axis="delta", values=[0.1, "a"]), "sweep.values.1", "a"),
    "bool-integer": (_with("lattice", L=True), "lattice.L", "True"),
    "bool-number": (_with("lattice", J=True), "lattice.J", "True"),
    "bool-beta": (_with("leads", beta=True), "leads.beta", "True"),
    "bool-points": (
        _with("sweep", axis="kappa", log_range=[0.1, 1.0], points=True), "sweep.points", "True"
    ),
    "bool-list-item": (_with("sweep", axis="delta", values=[True]), "sweep.values.0", "True"),
    "non-integral": (_with("lattice", L=8.5), "lattice.L", "8.5"),
    # choices
    "choice-kind": ({"lattice": {"kind": "kagome"}}, "lattice.kind", "kagome"),
    "choice-termination": (_with("rhombic", termination="tail"), "lattice.termination", "tail"),
    "choice-method": (_with("solver", method="Magic"), "solver.method", "Magic"),
    "choice-axis": (_with("sweep", axis="mu", values=[0.0]), "sweep", "mu"),
    "choice-format": (_with("output", format="json"), "output.format", "csv"),
    "choice-beta": (_with("leads", beta="warm"), "leads.beta", "warm"),
    # lower bounds
    "min-ssh-L": (_with("lattice", L=0), "lattice.L", "0"),
    "min-rhombic-L": (_with("rhombic", L=1), "lattice.L", "1"),
    "min-J": (_with("lattice", J=0), "lattice.J", "0"),
    "min-J_tilde": (_with("lattice", J_tilde=-1), "lattice.J_tilde", "-1"),
    "min-J_abs": (_with("rhombic", J_abs=0), "lattice.J_abs", "0"),
    "min-M": (_with("leads", M=3), "leads.M", "3"),
    "min-J_lead": (_with("leads", J_lead=0), "leads.J_lead", "0"),
    "min-beta": (_with("leads", beta=-1), "leads.beta", "-1"),
    "min-gamma": (_with("leads", gamma=-0.1), "leads.gamma", "-0.1"),
    "min-coupling": ({"lattice": {"kind": "ssh"}, "coupling": -0.1}, "coupling", "-0.1"),
    "min-decoherence": ({"lattice": {"kind": "ssh"}, "decoherence": -0.1}, "decoherence", "-0.1"),
    "min-residual_tol": (_with("solver", residual_tol=0), "solver.residual_tol", "0"),
    "min-step": (_with("sweep", axis="delta", range=[0, 1], step=0), "sweep.step", "0"),
    "min-log_range": (
        _with("sweep", axis="kappa", log_range=[0, 1], points=3), "sweep.log_range.0", "0"
    ),
    "min-points": (
        _with("sweep", axis="kappa", log_range=[0.1, 1.0], points=1), "sweep.points", "1"
    ),
    "empty-path": (_with("output", path=""), "output.path", "empty"),
    # sweep shapes
    "mixed-shapes": (
        _with("sweep", axis="delta", values=[0.0], range=[0, 1], step=0.5), "sweep", "range"
    ),
    "mixed-shape-keys": (_with("sweep", axis="delta", range=[0, 1], points=3), "sweep", "points"),
    "incomplete-shape": (_with("sweep", axis="delta", range=[0, 1]), "sweep", "range"),
    "no-shape": (_with("sweep", axis="delta"), "sweep", "sweep"),
    "empty-values": (_with("sweep", axis="delta", values=[]), "sweep.values", "values"),
    "range-three": (_with("sweep", axis="delta", range=[0, 1, 2], step=0.5), "sweep.range", "range"),
    "log_range-three": (
        _with("sweep", axis="kappa", log_range=[0.1, 1, 2], points=3),
        "sweep.log_range",
        "log_range",
    ),
    "reversed-range": (_with("sweep", axis="delta", range=[1, 0], step=0.5), "sweep.range", "range"),
    "step-not-dividing": (_with("sweep", axis="delta", range=[0, 1], step=0.4), "sweep.step", "0.4"),
    "step-not-dividing-third": (
        _with("sweep", axis="delta", range=[0, 1], step=0.3), "sweep.step", "0.3"
    ),
    "step-past-span": (_with("sweep", axis="delta", range=[0, 0.5], step=1), "sweep.step", "1"),
    "span-overflows": (
        _with("sweep", axis="delta", range=[-1e308, 1e308], step=1), "sweep.step", "divide"
    ),
    # the other lattice kind's parameters, and ssh parity
    "foreign-phi": (_with("lattice", phi=3.0), "lattice.phi", "phi"),
    "foreign-termination": (_with("lattice", termination="arm"), "lattice.termination", "ssh"),
    "foreign-J_tilde": (_with("rhombic", J_tilde=0.5), "lattice.J_tilde", "J_tilde"),
    "odd-ssh-L": (_with("lattice", L=7), "lattice.L", "even"),
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

    def test_sweep_step_rule_holds_in_python(self):
        # settings built in Python follow the parser's rules: exactly one grid
        # shape, and a step that does not divide the range is refused, not
        # rounded to another grid
        shapes = [
            ({}, "sweep: no grid given"),
            ({"range": (0.0, 1.0)}, "sweep: 'range' needs 'step'"),
            ({"log_range": (1e-3, 1.0)}, "sweep: 'log_range' needs 'points'"),
            ({"values": (0.0,), "range": (0.0, 1.0), "step": 0.5},
             "sweep: ['values', 'range', 'step'] given"),
        ]
        for kwargs, message in shapes:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                SweepSettings("delta", **kwargs)
        with pytest.raises(ConfigError, match=r"^sweep.step: 0.4 does not divide the range \[0.0, 1.0\]"):
            SweepSettings("delta", range=(0.0, 1.0), step=0.4)
        with pytest.raises(ConfigError, match="upper bound below lower"):
            SweepSettings("delta", range=(1.0, -1.0), step=0.01)
        grid = SweepSettings("delta", range=(0.0, 1.0), step=0.25).materialize()
        assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    @pytest.mark.parametrize("name", list(REJECTIONS))
    def test_rejection_table(self, name):
        raw, path, named = REJECTIONS[name]
        with pytest.raises(ConfigError) as err:
            parse_config_dict(raw)
        message = str(err.value)
        assert message.startswith(path), message
        assert named in message, message

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"lattice": {"kind": "ssh", "delta": NaN}}', "lattice.delta"),
            ('{"lattice": {"kind": "ssh"}, "leads": {"mu_L": Infinity}}', "leads.mu_L"),
            ('{"lattice": {"kind": "ssh"}, "leads": {"mu_R": -Infinity}}', "leads.mu_R"),
            ('{"lattice": {"kind": "ssh"}, "leads": {"beta": Infinity}}', "leads.beta"),
            ('{"lattice": {"kind": "ssh"}, "decoherence": NaN}', "decoherence"),
            ('{"lattice": {"kind": "ssh"}, "sweep": {"axis": "delta", "values": [0, NaN]}}',
             "sweep.values.1"),
        ],
        ids=["delta-nan", "mu_L-inf", "mu_R-minus-inf", "beta-inf", "decoherence-nan", "values-nan"],
    )
    def test_non_finite_numbers_rejected(self, text, path):
        with pytest.raises(ConfigError, match=f"^{path}: .* is not a finite number"):
            parse_config(text)

    def test_bounds_match_the_library(self):
        # RingLead refuses gamma = 0; the config names the field instead
        with pytest.raises(ConfigError, match="^leads.gamma"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"gamma": 0}})
        parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"M": MIN_RING_SIZE}})
        with pytest.raises(ConfigError, match="^leads.M"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "leads": {"M": MIN_RING_SIZE - 1}})
        for termination in RHOMBIC_TERMINATIONS:
            raw = {"lattice": {"kind": "rhombic", "termination": termination}}
            parse_config_dict(raw).build_lattice()
        for method in SolverMethod:
            cfg = parse_config_dict({"lattice": {"kind": "ssh"}, "solver": {"method": method.value}})
            assert cfg.solver.method is method

    def test_bad_solver_method(self):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config_dict({"lattice": {"kind": "ssh"}, "solver": {"method": "Magic"}})
        # the time march and its step controls are gone from the schema
        for solver in (
            {"method": "TimeMarch"},
            {"dt": 0.05},
            {"max_time": 1e6},
            {"max_iters": 1000},
            {"step_tol": 1e-10},
        ):
            with pytest.raises(ConfigError, match="^solver"):
                parse_config_dict({"lattice": {"kind": "ssh"}, "solver": solver})


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

    def test_integer_spelling_does_not_change_the_fingerprint(self):
        lattices = [{"kind": "ssh", "J": 1}, {"kind": "ssh", "J": 1.0}, {"kind": "ssh"}]
        prints = {parse_config_dict({"lattice": lat}).fingerprint() for lat in lattices}
        assert len(prints) == 1
        sweeps = [{"axis": "delta", "range": r, "step": 1} for r in ([0, 1], [0.0, 1.0])]
        prints = {parse_config_dict(base_raw(sweep=sw)).fingerprint() for sw in sweeps}
        assert len(prints) == 1
        # integer fields written as floats are cast, not kept or refused
        docs = [
            base_raw(
                lattice={"kind": "ssh", "L": n},
                leads={"M": n},
                sweep={"axis": "kappa", "log_range": [0.1, 1.0], "points": n},
            )
            for n in (8, 8.0)
        ]
        prints = {parse_config_dict(doc).fingerprint() for doc in docs}
        assert len(prints) == 1

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
        # a document that is not an object has no path to walk
        for raw in ([1], 0.2, "lattice", None):
            with pytest.raises(ConfigError, match=f"^<root>: {re.escape(repr(raw))} is not an object$"):
                apply_overrides(raw, ["a=1"])

    def test_non_finite_override_rejected(self):
        for item, path in [("lattice.delta=NaN", "lattice.delta"), ("coupling=Infinity", "coupling")]:
            raw = apply_overrides(base_raw(), [item])
            with pytest.raises(ConfigError, match=f"^{path}: .* is not a finite number"):
                parse_config_dict(raw)
        # beta keeps its string spelling of infinity
        raw = apply_overrides(base_raw(), ["leads.beta=inf"])
        assert math.isinf(parse_config_dict(raw).leads.beta)

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
        # an even SSH chain at gate 0: one eigendecomposition serves both
        # mirror blocks
        assert payload["diagnostics"]["eig_blocks"] == [7]
        assert payload["data"]["spdm"] == {
            "N": 20,
            "index_map": ["lattice"] * 4 + ["left_lead"] * 8 + ["right_lead"] * 8,
            "file": "spdm.npy",
        }
        assert (tmp_path / "o" / "steady_state.json").stat().st_size < 8192
        assert len(payload["data"]["populations"]) == 4
        # the matrix is written once, as .npy, and is the library's solve to the bit
        saved = np.load(tmp_path / "o" / "spdm.npy")
        assert saved.dtype == np.complex128 and saved.shape == (20, 20)
        config = parse_config_dict(base_raw())
        rho, _ = solve_steady_state(config.build_system(), config.decoherence, config.solver)
        assert saved.tobytes() == rho.tobytes()
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
        table = read_sweep_csv(tmp_path / "o" / "sweep_gate.csv")
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
        # a header and a blank line, but no row
        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_HEADER_PREFIX + "x\naxis,current,residual\n\n")
        assert main(["fit", str(empty), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "input", "message": f"{empty}: no data rows"}

    def test_fit_of_tiny_currents(self, tmp_path, capsys):
        # fig4's sweep with its currents scaled by 1e-160 fits as the unscaled one
        out = tmp_path / "o"
        cfg = str(CONFIGS / "fig4.json")
        assert main(["sweep-kappa", "--config", cfg, "--out", str(out)]) == 0
        table = read_sweep_csv(out / "sweep_kappa.csv")
        write_sweep_csv(dataclasses.replace(table, current=1e-160 * table.current), out / "tiny.csv")
        tiny = read_sweep_csv(out / "tiny.csv")
        unit = fit_esaki_tsu(dataclasses.replace(tiny, current=1e160 * tiny.current))
        assert main(["fit", str(out / "tiny.csv"), "--out", str(out)]) == 0
        fit = json.loads((out / "esaki_tsu_fit.json").read_text())
        assert_allclose(fit["a"], 1e-160 * unit.a, rtol=1e-12)
        assert_allclose(fit["c"], unit.c, rtol=1e-12)
        assert_allclose(fit["relative_residual"], unit.relative_residual, rtol=1e-12)

    def test_fit_of_huge_currents(self, tmp_path, capsys):
        # sums of squares of currents near 1e200 overflow unless scaled first
        k = np.logspace(-3, 1, 20)
        table = SweepTable(
            k, 1e200 * k / (k**2 + 1e-2), np.zeros(20),
            {"imbalance": np.zeros(20), "gradient": np.zeros(20), "converged": np.ones(20)},
        )
        out = tmp_path / "o"
        out.mkdir()
        write_sweep_csv(table, out / "huge.csv")
        assert main(["fit", str(out / "huge.csv"), "--out", str(out)]) == 0
        fit = json.loads((out / "esaki_tsu_fit.json").read_text())
        assert_allclose([fit["a"], fit["c"]], [1e200, 1e-2], rtol=1e-9)
        assert math.isfinite(fit["relative_residual"]) and fit["relative_residual"] < 1e-9

    def test_fit_of_tiny_kappas(self, tmp_path, capfd):
        # kappa^2 + c of about 1e-258 stays in range once kappa is scaled
        k = np.logspace(math.log10(1.3e-131), math.log10(7.1e-128), 12)
        table = SweepTable(
            k, 1e-3 * k / (k**2 + 1e-258), np.zeros(12),
            {"imbalance": np.zeros(12), "gradient": np.zeros(12), "converged": np.ones(12)},
        )
        out = tmp_path / "o"
        out.mkdir()
        write_sweep_csv(table, out / "tiny.csv")
        capfd.readouterr()
        assert main(["fit", str(out / "tiny.csv"), "--out", str(out)]) == 0
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("fit: a=")
        fit = json.loads((out / "esaki_tsu_fit.json").read_text())
        assert_allclose([fit["a"], fit["c"]], [1e-3, 1e-258], rtol=1e-9)

    @pytest.mark.parametrize(
        "lo, hi, a, c",
        [
            # the peak at sqrt(c) = 1e-100 lies 90 decades above the sweep
            (1e-200, 1e-190, 1.0, 1e-200),
        ],
    )
    def test_fit_of_tiny_kappas_is_an_input_error(self, tmp_path, capfd, lo, hi, a, c):
        # capfd, not capsys: it also sees what is written to the file descriptors directly
        k = np.logspace(math.log10(lo), math.log10(hi), 12)
        j = a * k / (k**2 + c)
        n = k.size
        table = SweepTable(
            k, j, np.zeros(n),
            {"imbalance": np.zeros(n), "gradient": np.zeros(n), "converged": np.ones(n)},
        )
        out = tmp_path / "o"
        out.mkdir()
        write_sweep_csv(table, out / "tiny.csv")
        capfd.readouterr()
        assert main(["fit", str(out / "tiny.csv"), "--out", str(out)]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert err["message"].startswith("the fitted peak lies more than a decade outside")
        assert not (out / "esaki_tsu_fit.json").exists()

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

    def test_sweep_needs_both_edges(self, monkeypatch, tmp_path, capsys):
        # an SSH chain of 2 sites solves, but a sweep's edge imbalance takes
        # two sites at each end: both sweeps refuse it before any solve
        cfg = write_cfg(tmp_path, base_raw(lattice={"kind": "ssh", "L": 2}))
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()

        def no_solve(*args):
            raise AssertionError("a sweep row was solved")

        monkeypatch.setattr(experiments, "solve_steady_state", no_solve)
        for command, sweep in [
            ("sweep-gate", '{"axis": "delta", "values": [0.0, 0.1]}'),
            ("sweep-kappa", '{"axis": "kappa", "values": [0.001, 0.01]}'),
        ]:
            argv = [command, "--config", cfg, "--out", str(out), "--override", f"sweep={sweep}"]
            assert main(argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {
                "error": "config",
                "message": "lattice.L: a sweep's edge imbalance needs 4 lattice sites or more, got 2",
            }
        assert not list(out.glob("sweep_*.csv"))

    def test_integer_fields_written_as_floats_run(self, tmp_path, capsys):
        raw = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 1.0], "points": 6.0})
        raw["lattice"]["L"] = 4.0
        raw["leads"]["M"] = 8.0
        cfg = write_cfg(tmp_path, raw)
        for command in ("spectrum", "steady", "sweep-kappa"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0, command
        table = read_sweep_csv(tmp_path / "o" / "sweep_kappa.csv")
        assert table.n_rows == 6
        ints = base_raw(sweep={"axis": "kappa", "log_range": [1e-3, 1.0], "points": 6})
        assert table.config_fingerprint == parse_config_dict(ints).fingerprint()
        assert capsys.readouterr().err == ""

    def test_config_bound_errors(self, tmp_path, capsys):
        for section, entries, path in [
            ("leads", {"gamma": 0}, "leads.gamma"),
            ("lattice", {"kind": "ssh", "delta": math.nan}, "lattice.delta"),
            ("leads", {"mu_L": math.inf}, "leads.mu_L"),
            ("lattice", {"kind": "ssh", "L": 8.5}, "lattice.L"),
        ]:
            cfg = write_cfg(tmp_path, base_raw(**{section: entries}))
            assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
            assert err["message"].startswith(path)
        cfg = write_cfg(tmp_path, base_raw())
        argv = ["steady", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv + ["--override", "lattice.delta=NaN"]) == 1
        assert json.loads(capsys.readouterr().err)["message"].startswith("lattice.delta")

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["steady", "--config", str(tmp_path / "nope.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_spdm_write_failure_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_raw())
        out = tmp_path / "o"
        argv = ["steady", "--config", cfg, "--out", str(out)]
        # a failed write also removes the steady_state.json of an earlier run
        assert main(argv) == 0
        capsys.readouterr()
        (out / "spdm.npy").unlink()
        (out / "spdm.npy").mkdir()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "io"
        assert not (out / "steady_state.json").exists()

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["steady", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "not valid JSON" in err["message"]

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        for extra, named in [
            ({"mystery": 1}, "mystery"),
            ({"solver": {"method": "TimeMarch"}}, "solver"),
            ({"solver": {"dt": 0.05}}, "solver"),
        ]:
            cfg = write_cfg(tmp_path, base_raw(**extra))
            assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
            assert named in err["message"]

    def test_usage_errors_exit_1(self, capsys):
        # --parallel belongs to the two sweep commands alone
        parallel = [
            ["spectrum", "--config", "c.json", "--parallel", "2"],
            ["steady", "--config", "c.json", "--parallel", "2"],
            ["fit", "table.csv", "--parallel", "2"],
        ]
        for argv in (["steady"], [], ["steady", "--config", "c.json", "--bogus"], *parallel):
            assert main(argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "input"
        with pytest.raises(SystemExit) as done:
            main(["steady", "--help"])
        assert done.value.code == 0

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
        # a target below round-off cannot be met
        raw = base_raw(solver={"residual_tol": 1e-30})
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
        # fig2 is at gate 0, where the chiral fold serves both mirror blocks
        fig2 = json.loads((CONFIGS / "fig2.json").read_text())
        fig2["sweep"] = {"axis": "kappa", "values": [1e-4, 1e-3, 3e-3]}
        blas = _openblas_threads()
        saved = blas[0]() if blas else None
        try:
            for name, raw, command in [
                ("small", small, "sweep-gate"),
                ("fig1", fig1, "sweep-gate"),
                ("fig2", fig2, "sweep-kappa"),
            ]:
                cfg = write_cfg(tmp_path, raw, f"{name}.json")
                csvs = set()
                for threads in (1, 2) if blas else (None,):
                    if blas:
                        blas[1](threads)
                    for parallel in ("1", "2", "4"):
                        out = tmp_path / f"{name}-{threads}-{parallel}"
                        argv = [command, "--config", cfg, "--out", str(out)]
                        assert main(argv + ["--parallel", parallel]) == 0
                        csvs.add((out / f"{command.replace('-', '_')}.csv").read_bytes())
                assert len(csvs) == 1, name
            # steady's solve holds BLAS at one thread too, so its CSVs match as well
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

    def test_thread_count_resolution(self, monkeypatch, tmp_path, capsys):
        # --parallel is the one setting of the sweep workers and belongs to the
        # two sweep commands; the environment is not read, and the sweep
        # clamps the count to between 1 and its number of rows
        monkeypatch.setenv("EDGESENSE_THREADS", "3")
        for command in ("sweep-gate", "sweep-kappa"):
            parse = lambda *flags: build_parser().parse_args([command, "--config", "c.json", *flags])
            assert parse().parallel == 1
            assert parse("--parallel", "0").parallel == 0
            assert parse("--parallel", "6").parallel == 6
        pools = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        cfg = write_cfg(tmp_path, base_raw(sweep={"axis": "delta", "values": [0.0, 0.1]}))
        for parallel, expected in (("0", []), ("1", []), ("6", [2])):
            pools.clear()
            argv = ["sweep-gate", "--config", cfg, "--out", str(tmp_path / parallel)]
            assert main(argv + ["--parallel", parallel]) == 0
            assert pools == expected
        capsys.readouterr()

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
