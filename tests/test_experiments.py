import dataclasses
import math
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense import experiments, master_eq
from edgesense.config import parse_config, parse_config_dict
from edgesense.experiments import (
    CSV_HEADER_PREFIX,
    EsakiTsuFit,
    SweepTable,
    conduction_window,
    fit_esaki_tsu,
    peak_metrics,
    read_sweep_csv,
    sweep_decoherence,
    sweep_gate,
    write_sweep_csv,
)
from edgesense.master_eq import SolverConfig, SolverError, SolverMethod, solve_steady_state
from edgesense.observables import current_profile

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_cfg(L=4, M=8, solver=None, decoherence=0.0):
    raw = {
        "lattice": {"kind": "ssh", "L": L, "J": 1.0, "J_tilde": 0.5},
        "leads": {"M": M, "mu_L": math.pi / 40, "mu_R": -math.pi / 40},
        "coupling": 0.2,
        "decoherence": decoherence,
    }
    if solver is not None:
        raw["solver"] = solver
    return parse_config_dict(raw)


def triangle_table(apex=1.0, baseline=0.2, half_width=0.5, lo=-1.0, hi=1.0):
    axis = np.round(np.arange(lo, hi + 0.025, 0.05), 10)
    js = baseline + apex * np.clip(1.0 - np.abs(axis) / half_width, 0.0, None)
    return SweepTable(
        axis_values=axis,
        current=js,
        residuals=np.full(axis.size, 1e-9),
    )


class TestConductionWindow:
    def test_broadened_by_half_gamma(self):
        lo, hi = conduction_window(math.pi / 40, -math.pi / 40, 0.05)
        assert_allclose(lo, -math.pi / 40 - 0.025, atol=1e-15)
        assert_allclose(hi, math.pi / 40 + 0.025, atol=1e-15)

    def test_degenerate_point(self):
        assert conduction_window(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="mu_left"):
            conduction_window(-0.1, 0.1, 0.05)
        with pytest.raises(ValueError, match="gamma"):
            conduction_window(0.1, -0.1, -0.05)


class TestSweepTable:
    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="column 'current'"):
            SweepTable(np.arange(3.0), np.arange(4.0), np.arange(3.0))
        with pytest.raises(ValueError, match="column 'bad'"):
            SweepTable(
                np.arange(3.0),
                np.arange(3.0),
                np.arange(3.0),
                extra_columns={"bad": np.arange(2.0)},
            )

    def test_column_accessor(self):
        t = triangle_table()
        assert t.column("axis") is t.axis_values
        assert t.column("current") is t.current
        assert t.column("residual") is t.residuals
        with pytest.raises(KeyError):
            t.column("nope")


class TestPeakMetrics:
    def test_triangle_peak_exact(self):
        # apex 1.0 over a 0.2 baseline: half height crossings sit exactly at
        # +-0.25, so fwhm = 0.5 with no interpolation error
        pm = peak_metrics(triangle_table(), window=(-0.5, 0.5))
        assert pm is not None
        assert_allclose(pm.height, 1.0, atol=1e-12)
        assert_allclose(pm.center, 0.0, atol=0)
        assert_allclose(pm.fwhm, 0.5, atol=1e-12)
        assert_allclose(pm.baseline, 0.2, atol=1e-15)
        assert_allclose(pm.support, (-0.45, 0.45), atol=1e-12)

    def test_flat_data_has_no_peak(self):
        axis = np.linspace(-1, 1, 21)
        t = SweepTable(axis, np.full(21, 0.2), np.full(21, 1e-9))
        assert peak_metrics(t, window=(-0.5, 0.5)) is None

    def test_exclusion_protects_the_baseline(self):
        # tails reaching past the window contaminate the median and inflate
        # the MAD until no peak clears the bar; the exclusion margin fixes it
        t = triangle_table(lo=-0.6, hi=0.6)
        clean = peak_metrics(t, window=(-0.1, 0.1), exclusion=0.4)
        assert_allclose(clean.baseline, 0.2, atol=1e-15)
        assert_allclose(clean.height, 1.0, atol=1e-12)
        assert peak_metrics(t, window=(-0.1, 0.1), exclusion=0.0) is None

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window leaves no rows"):
            peak_metrics(triangle_table(), window=(5.0, 6.0))
        with pytest.raises(ValueError, match="window leaves no rows"):
            peak_metrics(triangle_table(), window=(-10.0, 10.0))

    def test_too_few_converged_rows(self):
        axis = np.linspace(0, 1, 8)
        js = np.full(8, np.nan)
        js[:4] = 1.0
        t = SweepTable(axis, js, np.full(8, 1e-9))
        with pytest.raises(ValueError, match="too few converged"):
            peak_metrics(t)


class TestEsakiTsuFit:
    def test_exact_recovery(self):
        k = np.logspace(-3, 1, 20)
        t = SweepTable(k, 2.0 * k / (k**2 + 0.25), np.zeros(20))
        fit = fit_esaki_tsu(t)
        assert_allclose(fit.a, 2.0, rtol=1e-6)
        assert_allclose(fit.c, 0.25, rtol=1e-6)
        assert_allclose(fit.kappa_peak, 0.5, rtol=1e-6)
        assert fit.relative_residual < 1e-7
        assert_allclose(fit.evaluate(k), t.current, rtol=1e-6)

    def test_peak_is_argmax(self):
        fit = EsakiTsuFit(a=1.3, c=0.04, relative_residual=0.0)
        assert_allclose(fit.kappa_peak, 0.2, atol=1e-15)
        peak = fit.evaluate(np.array([fit.kappa_peak]))[0]
        assert peak > fit.evaluate(np.array([0.19]))[0]
        assert peak > fit.evaluate(np.array([0.21]))[0]

    def test_noisy_recovery(self):
        k = np.logspace(-3, 1, 30)
        truth = 0.8 * k / (k**2 + 0.01)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            noisy = truth * (1.0 + 0.01 * rng.standard_normal(30))
            fit = fit_esaki_tsu(SweepTable(k, noisy, np.zeros(30)))
            assert abs(fit.a / 0.8 - 1.0) < 0.05
            assert abs(fit.c / 0.01 - 1.0) < 0.05
            assert 0.0005 < fit.relative_residual < 0.05

    def test_negative_branch_is_flipped(self):
        k = np.logspace(-3, 1, 20)
        t = SweepTable(k, -2.0 * k / (k**2 + 0.25), np.zeros(20))
        fit = fit_esaki_tsu(t)
        assert fit.a > 0 and fit.c > 0
        assert_allclose(fit.c, 0.25, rtol=1e-6)

    def test_extreme_scales(self):
        # power-of-two scaling is exact: currents of 1e-170 fit as well as those of 1
        k = np.logspace(-3, 1, 20)
        j = k / (k**2 + 0.25)
        unit = fit_esaki_tsu(SweepTable(k, j, np.zeros(20)))
        tiny = fit_esaki_tsu(SweepTable(k, 1e-170 * j, np.zeros(20)))
        assert_allclose(tiny.a, 1e-170 * unit.a, rtol=1e-12)
        assert_allclose(tiny.c, unit.c, rtol=1e-12)
        assert_allclose(tiny.relative_residual, unit.relative_residual, rtol=1e-12, atol=1e-15)
        assert_allclose([tiny.a, tiny.c], [1e-170, 0.25], rtol=1e-9)

    def test_refusals(self):
        wide = np.logspace(-300, 300, 12)
        with pytest.raises(ValueError, match="spans too many decades"):
            fit_esaki_tsu(SweepTable(wide, np.ones(12), np.zeros(12)))
        # j = kappa rises over the whole sweep: the peak lies far above it
        k = np.logspace(-3, 1, 20)
        with pytest.raises(ValueError, match="more than a decade outside"):
            fit_esaki_tsu(SweepTable(k, k, np.zeros(20)))
        # the best c is near (1e161.5)^2, above the largest float
        huge = np.logspace(160, 163, 20)
        with pytest.raises(ValueError, match="outside the float range once unscaled"):
            fit_esaki_tsu(SweepTable(huge, np.ones(20), np.zeros(20)))

    def test_exact_data_recovered_at_any_scale(self):
        # seeded sample: kappa and j scales from 1e-150 to 1e150, peak inside the sweep
        rng = np.random.default_rng(12)
        for _ in range(200):
            lo = rng.uniform(-150, 144)
            k = np.logspace(lo, lo + rng.uniform(2, 6), int(rng.integers(6, 31)))
            peak = k.min() * (k.max() / k.min()) ** rng.uniform(0.1, 0.9)
            jmax = 10.0 ** rng.uniform(-150, 150)
            j = jmax * (2 * peak * k / (k**2 + peak**2))
            fit = fit_esaki_tsu(SweepTable(k, j, np.zeros(k.size)))
            assert_allclose([fit.a, fit.c], [2 * peak * jmax, peak**2], rtol=1e-9)

    def test_noisy_fit_no_worse_than_a_dense_scan(self):
        # brute-force reference: 20001 log-spaced c over the fit's scan range,
        # each with its closed-form best a
        rng = np.random.default_rng(7)
        for i in range(40):
            lo = rng.uniform(-4, 0)
            k = np.logspace(lo, lo + rng.uniform(2, 5), int(rng.integers(6, 31)))
            peak = k.min() * (k.max() / k.min()) ** rng.uniform(0.1, 0.9)
            noise = (1e-3, 0.05)[i % 2]
            j = k / (k**2 + peak**2) * (1 + noise * rng.standard_normal(k.size))
            fit = fit_esaki_tsu(SweepTable(k, j, np.zeros(k.size)))
            c = np.logspace(
                2 * math.log10(k.min() / 10), 2 * math.log10(10 * k.max()), 20001
            )[:, None]
            phi = k / (k**2 + c)
            a = (phi @ j) / np.sum(phi * phi, axis=1)
            sse = np.min(np.sum((j - a[:, None] * phi) ** 2, axis=1))
            assert fit.relative_residual <= math.sqrt(sse) / np.linalg.norm(j) * (1 + 1e-12)

    def test_validation(self):
        k5 = np.logspace(-2, 1, 5)
        with pytest.raises(ValueError, match="at least 6"):
            fit_esaki_tsu(SweepTable(k5, k5, np.zeros(5)))
        k_narrow = np.logspace(-2, -0.5, 10)
        with pytest.raises(ValueError, match="two decades"):
            fit_esaki_tsu(SweepTable(k_narrow, k_narrow, np.zeros(10)))
        k = np.logspace(-3, 1, 10)
        with pytest.raises(ValueError, match="positive"):
            fit_esaki_tsu(SweepTable(k - k[4], np.ones(10), np.zeros(10)))
        with pytest.raises(ValueError, match="positive and finite"):
            fit_esaki_tsu(SweepTable(np.append(k[:-1], np.inf), np.ones(10), np.zeros(10)))
        mixed = np.ones(10)
        mixed[3] = -1.0
        with pytest.raises(ValueError, match="one sign"):
            fit_esaki_tsu(SweepTable(k, mixed, np.zeros(10)))
        with pytest.raises(ValueError, match="must be positive"):
            EsakiTsuFit(a=-1.0, c=0.1, relative_residual=0.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        t = SweepTable(
            np.linspace(-0.4, 0.4, 9),
            np.sin(np.linspace(0, 3, 9)) * 1e-4,
            np.full(9, 2.5e-10),
            extra_columns={
                "imbalance": np.linspace(0, 1, 9),
                "gradient": np.linspace(-1, 1, 9) * 1e-3,
                "converged": np.ones(9),
            },
            config_fingerprint="f" * 64,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER_PREFIX + "f" * 64
        assert lines[1] == "axis,current,residual,imbalance,gradient,converged"
        assert len(lines) == 11
        back = read_sweep_csv(path)
        assert back.config_fingerprint == "f" * 64
        assert list(back.extra_columns) == ["imbalance", "gradient", "converged"]
        for name in ("axis", "current", "residual", "imbalance", "gradient"):
            assert_allclose(back.column(name), t.column(name), rtol=1e-11)
        # a table the library wrote reads back field by field, to the CSV's 12 digits
        swept = sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], kappa=0.002)
        write_sweep_csv(swept, path)
        back = read_sweep_csv(path)
        for f in dataclasses.fields(SweepTable):
            got, want = getattr(back, f.name), getattr(swept, f.name)
            if isinstance(want, dict):
                assert list(got) == list(want)
                for name in want:
                    assert_allclose(got[name], want[name], rtol=1e-11, atol=0, err_msg=name)
            elif isinstance(want, np.ndarray):
                assert_allclose(got, want, rtol=1e-11, atol=0, err_msg=f.name)
            else:
                assert got == want, f.name

    def test_twelve_significant_digits(self, tmp_path):
        t = SweepTable(np.array([1.0 / 3.0]), np.array([2.0 / 3.0]), np.array([0.0]))
        path = tmp_path / "digits.csv"
        write_sweep_csv(t, path)
        assert path.read_text().splitlines()[2] == "0.333333333333,0.666666666667,0"

    def test_read_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("axis,current\n0,1\n2,3\n")
        with pytest.raises(ValueError, match="not an edgesense sweep CSV"):
            read_sweep_csv(bad)

    def test_read_rejects_wrong_columns(self, tmp_path):
        bad = tmp_path / "cols.csv"
        bad.write_text(CSV_HEADER_PREFIX + "x\n" + "delta,current,residual\n0,1,2\n")
        with pytest.raises(ValueError, match="unexpected column layout"):
            read_sweep_csv(bad)

    def test_read_rejects_ragged_rows(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        cases = [
            ("0,1\n", ", line 3: ragged"),
            ("0,1,2\n0,1\n", ", line 4: ragged"),
            ("0,1,2\n0,abc,2\n", ", line 4: could not convert string to float: 'abc'"),
            # past the three-line check, with no row to read
            ("\n", ": no data rows"),
        ]
        for rows, message in cases:
            bad.write_text(CSV_HEADER_PREFIX + "x\n" + "axis,current,residual\n" + rows)
            with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}{message}"):
                read_sweep_csv(bad)


class TestSweeps:
    def test_gate_sweep_structure(self):
        cfg = small_cfg()
        t = sweep_gate(cfg, [-0.1, 0.0, 0.1], kappa=0.002)
        assert t.n_rows == 3
        assert t.config_fingerprint == cfg.fingerprint()
        assert_allclose(t.column("converged"), np.ones(3), atol=0)
        assert np.isfinite(t.current).all()
        assert t.residuals.max() < 1e-9
        assert set(t.extra_columns) == {"imbalance", "gradient", "converged"}

    def test_gate_sweep_default_kappa_from_config(self):
        a = sweep_gate(small_cfg(decoherence=0.004), [0.0])
        b = sweep_gate(small_cfg(), [0.0], kappa=0.004)
        assert_allclose(a.current, b.current, rtol=1e-12)

    def test_decoherence_sweep_matches_gate_sweep(self):
        cfg = small_cfg()
        a = sweep_decoherence(cfg, [0.01], delta=0.3)
        b = sweep_gate(cfg, [0.3], kappa=0.01)
        assert_allclose(a.current, b.current, rtol=1e-10)

    def test_parallel_chunks_change_nothing(self):
        cfg = small_cfg()
        deltas = np.linspace(-0.2, 0.2, 7)
        serial = sweep_gate(cfg, deltas, kappa=0.001, parallel=1)
        threaded = sweep_gate(cfg, deltas, kappa=0.001, parallel=3)
        assert np.array_equal(serial.current, threaded.current)
        assert np.array_equal(serial.column("imbalance"), threaded.column("imbalance"))

    def test_failed_rows_are_nan_not_fatal(self):
        # a target below round-off fails every row
        solver = {"residual_tol": 1e-30}
        t = sweep_gate(small_cfg(solver=solver), [0.0, 0.1], kappa=0.0)
        assert np.isnan(t.current).all()
        assert_allclose(t.column("converged"), np.zeros(2), atol=0)
        assert np.isfinite(t.residuals).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            sweep_gate(small_cfg(), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_point_rejected_before_any_solve(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(experiments, "solve_steady_state", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="kappa must be non-negative and finite"):
            sweep_decoherence(small_cfg(), [1e-3, bad])
        with pytest.raises(ValueError, match="gate must be finite"):
            sweep_gate(small_cfg(), [0.1, bad])
        with pytest.raises(ValueError, match="kappa must be non-negative and finite"):
            sweep_gate(small_cfg(), [0.1, 0.2], kappa=bad)
        assert calls == []

    def test_peak_support_tracks_conduction_window(self):
        # resonance support must reproduce (mu_R - gamma/2, mu_L + gamma/2)
        # to within one grid step
        cfg = small_cfg(L=24, M=40)
        win = conduction_window(math.pi / 40, -math.pi / 40, 0.05)
        grid = np.round(np.arange(-0.14, 0.1401, 0.01), 10)
        t = sweep_gate(cfg, grid, kappa=0.003, parallel=2)
        pm = peak_metrics(t, window=win, exclusion=0.025)
        assert pm is not None
        assert abs(pm.support[0] - win[0]) <= 0.01 + 1e-9
        assert abs(pm.support[1] - win[1]) <= 0.01 + 1e-9


def table_bytes(table):
    return [table.column(name).tobytes() for name in ("axis", "current", "residual", *table.extra_columns)]


def track_workspaces(monkeypatch):
    """Fill each idle workspace with NaN as a solve takes it; return the workspaces handed out.

    Every ``_Sectors`` built meanwhile keeps its idle workspaces in a list
    that poisons the one it hands out.  A workspace handed to a
    factorization while another running solve still holds it, from its
    factorization until it goes back to the idle list, fails the test.
    """
    lock = threading.Lock()
    handed = []
    busy = set()

    class PoisonedIdle(list):
        def pop(self):
            ws = super().pop()
            ws.block.fill(np.nan)
            return ws

        def append(self, ws):
            with lock:
                busy.discard(id(ws))
            super().append(ws)

    build = master_eq._Sectors.__init__
    factorize = master_eq._SylvesterFactorization.__init__

    def sectors(self, sys):
        build(self, sys)
        self.idle = PoisonedIdle()

    def factorization(self, sys, kappa):
        factorize(self, sys, kappa)
        with lock:
            assert id(self.ws) not in busy
            busy.add(id(self.ws))
        # held here, so no id is reused while the test runs
        handed.append(self.ws)

    monkeypatch.setattr(master_eq._Sectors, "__init__", sectors)
    monkeypatch.setattr(master_eq._SylvesterFactorization, "__init__", factorization)
    return handed


class TestSweepWorkspaces:
    """The rows of a sweep reuse workspaces, and what one row leaves there never reaches another."""

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_poisoned_workspaces_change_no_byte(self, monkeypatch, parallel):
        # fig2's kappa rows all fold at gate 0; the fig1 gate rows fold at 0 alone
        fig2 = parse_config((CONFIGS / "fig2.json").read_text())
        fig1 = parse_config((CONFIGS / "fig1.json").read_text())
        kappas = fig2.sweep.materialize()[::5]
        gates = [-0.3, -0.1, 0.0, 0.1, 0.3]
        expected = [sweep_decoherence(fig2, kappas), sweep_gate(fig1, gates)]
        handed = track_workspaces(monkeypatch)
        tables = [
            sweep_decoherence(fig2, kappas, parallel=parallel),
            sweep_gate(fig1, gates, parallel=parallel),
        ]
        for table, serial in zip(tables, expected):
            assert table_bytes(table) == table_bytes(serial)
        assert len(handed) == len(kappas) + len(gates)
        # the rows reused workspaces: at most one per worker and sweep was made
        assert len({id(ws) for ws in handed}) <= 2 * parallel

    def test_more_workers_than_cores_share_no_workspace(self, monkeypatch):
        # frequent thread switches, and more workers than the two cores of a small host
        deltas = np.linspace(-0.2, 0.2, 16)
        expected = table_bytes(sweep_gate(small_cfg(), deltas, kappa=1e-3))
        handed = track_workspaces(monkeypatch)
        # the thread that makes each workspace: a worker's would stay in its malloc arena
        makers = []
        make = master_eq._Workspace.__init__

        def workspace(self, n_sites, n_kept):
            makers.append(threading.get_ident())
            make(self, n_sites, n_kept)

        monkeypatch.setattr(master_eq._Workspace, "__init__", workspace)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = sweep_gate(small_cfg(), deltas, kappa=1e-3, parallel=4)
        finally:
            sys.setswitchinterval(interval)
        assert table_bytes(table) == expected
        assert len(handed) == deltas.size
        assert len({id(ws) for ws in handed}) <= 4
        assert makers == [threading.get_ident()] * 4

    def test_a_row_keeps_its_matrix(self):
        # two rows derived from one system, as a sweep derives them, share its blocks
        base = parse_config((CONFIGS / "fig2.json").read_text()).build_system()
        first, _ = solve_steady_state(master_eq.at_gate(base, 0.0), 1e-3)
        kept = first.copy()
        second, _ = solve_steady_state(master_eq.at_gate(base, 0.1), 2e-3)
        (ws,) = master_eq._sectors(base).idle
        assert not np.shares_memory(first, ws.block)
        assert not np.shares_memory(second, ws.block)
        assert first.tobytes() == kept.tobytes()

    def test_bare_solves_on_one_system_reuse_one_workspace(self):
        system = small_cfg().build_system()
        solve_steady_state(system, 1e-3)
        idle = master_eq._sectors(system).idle
        (ws,) = idle
        solve_steady_state(system, 2e-3)
        assert len(idle) == 1 and idle[0] is ws

    def test_a_replaced_copy_starts_with_an_empty_pool(self):
        system = small_cfg().build_system()
        solve_steady_state(system, 1e-3)
        (ws,) = master_eq._sectors(system).idle
        copy = dataclasses.replace(system)
        assert master_eq._sectors(copy).idle == []
        solve_steady_state(copy, 1e-3)
        (own,) = master_eq._sectors(copy).idle
        assert own is not ws

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_no_workspace_outlives_its_sweep(self, monkeypatch, parallel):
        refs = []
        factorize = master_eq._SylvesterFactorization.__init__

        def factorization(self, sys, kappa):
            factorize(self, sys, kappa)
            refs.append(weakref.ref(self.ws))

        monkeypatch.setattr(master_eq._SylvesterFactorization, "__init__", factorization)
        sweep_decoherence(small_cfg(), [1e-3, 2e-3, 3e-3], parallel=parallel)
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        assert master_eq._pin_depth == 0
        # the third eigendecomposition fails, after a row has returned its workspace
        eig = np.linalg.eig
        calls = []

        def failing(a):
            calls.append(a.shape)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("boom")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", failing)
        refs.clear()
        with pytest.raises(np.linalg.LinAlgError, match="boom"):
            sweep_decoherence(small_cfg(), [1e-3, 2e-3, 3e-3, 4e-3], parallel=parallel)
        assert refs and all(ref() is None for ref in refs)
        assert master_eq._pin_depth == 0

    def test_concurrent_sweeps_each_match_their_serial_run(self, monkeypatch):
        # two sweeps of different sizes from a user's pool, both started
        # before either solves, so their rows run under one pin
        sweeps = [
            lambda: sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], kappa=1e-3),
            lambda: sweep_decoherence(small_cfg(L=6), [1e-3, 2e-3, 3e-3]),
        ]
        expected = [table_bytes(run()) for run in sweeps]
        handed = track_workspaces(monkeypatch)
        solve = experiments.solve_steady_state
        started = threading.Barrier(2, timeout=30)
        waited = set()

        def solve_together(*args, **kwargs):
            name = threading.current_thread().name
            if name not in waited:
                waited.add(name)
                started.wait()
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_steady_state", solve_together)
        with ThreadPoolExecutor(max_workers=2) as pool:
            tables = list(pool.map(lambda run: run(), sweeps))
        assert len(waited) == 2
        assert [table_bytes(t) for t in tables] == expected
        # each serial sweep reused the one workspace its own system made
        assert len(handed) == 6 and len({id(ws) for ws in handed}) == 2


@pytest.fixture
def blas():
    """OpenBLAS set to two threads for the test, the caller's count restored after."""
    blas = master_eq._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, put = blas
    saved = get()
    put(2)
    yield get
    put(saved)


class TestSweepBlasThreads:
    def test_normal_sweep_restores_the_count(self, blas):
        table = sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], parallel=2)
        assert table.extra_columns["converged"].all()
        assert blas() == 2

    def test_failing_sweep_restores_the_count(self, blas, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(experiments, "solve_steady_state", boom)
        for parallel in (1, 2):
            with pytest.raises(RuntimeError, match="boom"):
                sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], parallel=parallel)
            assert blas() == 2

    def test_concurrent_sweeps_restore_the_count(self, blas, monkeypatch):
        # Both sweeps start before either solves, and sweep-b's second solve
        # waits until sweep-a has exited: it must still run on one thread.
        solve = experiments.solve_steady_state
        started = threading.Barrier(2, timeout=30)
        a_done = threading.Event()
        calls = {"sweep-a": 0, "sweep-b": 0}
        seen = []

        def solve_in_step(*args, **kwargs):
            name = threading.current_thread().name
            calls[name] += 1
            if calls[name] == 1:
                started.wait()
            elif name == "sweep-b":
                assert a_done.wait(timeout=30)
            seen.append(blas())
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_steady_state", solve_in_step)
        tables = {}

        def run():
            name = threading.current_thread().name
            try:
                tables[name] = sweep_gate(small_cfg(), [0.0, 0.1])
            finally:
                if name == "sweep-a":
                    a_done.set()

        threads = [threading.Thread(target=run, name=name) for name in calls]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert sorted(tables) == ["sweep-a", "sweep-b"]
        assert seen == [1, 1, 1, 1]
        assert blas() == 2

    def test_missing_blas_control_warns_once(self, monkeypatch):
        expected = sweep_gate(small_cfg(), [-0.1, 0.0, 0.1])
        monkeypatch.setattr(master_eq, "_openblas_threads", lambda: None)
        with pytest.warns(RuntimeWarning, match="thread layout") as record:
            table = sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], parallel=2)
        assert len(record) == 1
        assert_allclose(table.current, expected.current, rtol=1e-9)


class TestSolveBlasThreads:
    """A bare solve holds BLAS at one thread and gives back the caller's count."""

    # fig1 off gate 0 runs two eigendecompositions at 51, fig2 at kappa > 0 one
    CASES = [("fig1", 0.3, 0.0), ("fig2", None, 1e-3)]

    @pytest.fixture
    def eig_counts(self, blas, monkeypatch):
        """The BLAS thread count as each np.linalg.eig call starts."""
        eig = np.linalg.eig
        seen = []

        def spy(a):
            seen.append(blas())
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", spy)
        return seen

    @pytest.mark.parametrize("fig, gate, kappa", CASES, ids=["fig1", "fig2"])
    def test_bare_solve_runs_on_one_thread(self, blas, eig_counts, fig, gate, kappa):
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        system = cfg.build_system(gate=gate)
        rho, _ = solve_steady_state(system, kappa)
        assert eig_counts and set(eig_counts) == {1}
        assert blas() == 2
        put = master_eq._openblas_threads()[1]
        put(1)
        try:
            serial, _ = solve_steady_state(system, kappa)
        finally:
            put(2)
        assert rho.tobytes() == serial.tobytes()
        if gate is None:
            table = sweep_decoherence(cfg, [kappa])
        else:
            table = sweep_gate(cfg, [gate], kappa)
        assert table.current[0] == current_profile(rho, system).mean
        assert blas() == 2

    @pytest.mark.parametrize("fig, gate, kappa", CASES, ids=["fig1", "fig2"])
    def test_failed_solve_restores_the_count(self, blas, eig_counts, fig, gate, kappa):
        system = parse_config((CONFIGS / f"{fig}.json").read_text()).build_system(gate=gate)
        with pytest.raises(SolverError):
            solve_steady_state(system, kappa, SolverConfig(residual_tol=1e-30))
        assert eig_counts and set(eig_counts) == {1}
        assert blas() == 2

    def test_solves_in_a_user_pool_each_run_on_one_thread(self, blas, eig_counts, monkeypatch):
        system = parse_config((CONFIGS / "fig1.json").read_text()).build_system(gate=0.3)
        kappas = [0.0, 2e-3]
        expected = [solve_steady_state(system, k)[0] for k in kappas]
        eig_counts.clear()
        # each solve waits at its first eig for the other, so both hold the pin at once
        met = threading.Barrier(2, timeout=30)
        spy = np.linalg.eig
        waited = set()

        def meet(a):
            name = threading.current_thread().name
            if name not in waited:
                waited.add(name)
                met.wait()
            return spy(a)

        monkeypatch.setattr(np.linalg, "eig", meet)
        with ThreadPoolExecutor(max_workers=2) as pool:
            rhos = list(pool.map(lambda k: solve_steady_state(system, k)[0], kappas))
        assert len(waited) == 2
        assert set(eig_counts) == {1}
        assert blas() == 2
        assert [r.tobytes() for r in rhos] == [r.tobytes() for r in expected]

    def test_missing_blas_control_warns_once_per_solve(self, small_system, monkeypatch):
        monkeypatch.setattr(master_eq, "_openblas_threads", lambda: None)
        with pytest.warns(RuntimeWarning, match="thread layout") as record:
            solve_steady_state(small_system, 0.01)
        assert len(record) == 1
        assert record[0].filename == __file__
