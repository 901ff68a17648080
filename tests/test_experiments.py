import math
import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense import experiments
from edgesense.config import parse_config_dict
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
from edgesense.master_eq import SolverMethod


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
        axis_name="delta",
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
            SweepTable("x", np.arange(3.0), np.arange(4.0), np.arange(3.0))
        with pytest.raises(ValueError, match="column 'bad'"):
            SweepTable(
                "x",
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
        t = SweepTable("delta", axis, np.full(21, 0.2), np.full(21, 1e-9))
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
        t = SweepTable("delta", axis, js, np.full(8, 1e-9))
        with pytest.raises(ValueError, match="too few converged"):
            peak_metrics(t)


class TestEsakiTsuFit:
    def test_exact_recovery(self):
        k = np.logspace(-3, 1, 20)
        t = SweepTable("kappa", k, 2.0 * k / (k**2 + 0.25), np.zeros(20))
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
            fit = fit_esaki_tsu(SweepTable("kappa", k, noisy, np.zeros(30)))
            assert abs(fit.a / 0.8 - 1.0) < 0.05
            assert abs(fit.c / 0.01 - 1.0) < 0.05
            assert 0.0005 < fit.relative_residual < 0.05

    def test_negative_branch_is_flipped(self):
        k = np.logspace(-3, 1, 20)
        t = SweepTable("kappa", k, -2.0 * k / (k**2 + 0.25), np.zeros(20))
        fit = fit_esaki_tsu(t)
        assert fit.a > 0 and fit.c > 0
        assert_allclose(fit.c, 0.25, rtol=1e-6)

    def test_extreme_scales(self):
        # power-of-two scaling is exact: currents of 1e-170 fit as well as those of 1
        k = np.logspace(-3, 1, 20)
        j = k / (k**2 + 0.25)
        unit = fit_esaki_tsu(SweepTable("kappa", k, j, np.zeros(20)))
        tiny = fit_esaki_tsu(SweepTable("kappa", k, 1e-170 * j, np.zeros(20)))
        assert_allclose(tiny.a, 1e-170 * unit.a, rtol=1e-12)
        assert_allclose(tiny.c, unit.c, rtol=1e-12)
        assert_allclose(tiny.relative_residual, unit.relative_residual, rtol=1e-12, atol=1e-15)
        assert_allclose([tiny.a, tiny.c], [1e-170, 0.25], rtol=1e-9)

    def test_refusals(self):
        wide = np.logspace(-300, 300, 12)
        with pytest.raises(ValueError, match="spans too many decades"):
            fit_esaki_tsu(SweepTable("kappa", wide, np.ones(12), np.zeros(12)))
        # j = kappa rises over the whole sweep: the peak lies far above it
        k = np.logspace(-3, 1, 20)
        with pytest.raises(ValueError, match="more than a decade outside"):
            fit_esaki_tsu(SweepTable("kappa", k, k, np.zeros(20)))
        # the best c is near (1e161.5)^2, above the largest float
        huge = np.logspace(160, 163, 20)
        with pytest.raises(ValueError, match="outside the float range once unscaled"):
            fit_esaki_tsu(SweepTable("kappa", huge, np.ones(20), np.zeros(20)))

    def test_exact_data_recovered_at_any_scale(self):
        # seeded sample: kappa and j scales from 1e-150 to 1e150, peak inside the sweep
        rng = np.random.default_rng(12)
        for _ in range(200):
            lo = rng.uniform(-150, 144)
            k = np.logspace(lo, lo + rng.uniform(2, 6), int(rng.integers(6, 31)))
            peak = k.min() * (k.max() / k.min()) ** rng.uniform(0.1, 0.9)
            jmax = 10.0 ** rng.uniform(-150, 150)
            j = jmax * (2 * peak * k / (k**2 + peak**2))
            fit = fit_esaki_tsu(SweepTable("kappa", k, j, np.zeros(k.size)))
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
            fit = fit_esaki_tsu(SweepTable("kappa", k, j, np.zeros(k.size)))
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
            fit_esaki_tsu(SweepTable("kappa", k5, k5, np.zeros(5)))
        k_narrow = np.logspace(-2, -0.5, 10)
        with pytest.raises(ValueError, match="two decades"):
            fit_esaki_tsu(SweepTable("kappa", k_narrow, k_narrow, np.zeros(10)))
        k = np.logspace(-3, 1, 10)
        with pytest.raises(ValueError, match="positive"):
            fit_esaki_tsu(SweepTable("kappa", k - k[4], np.ones(10), np.zeros(10)))
        with pytest.raises(ValueError, match="positive and finite"):
            fit_esaki_tsu(SweepTable("kappa", np.append(k[:-1], np.inf), np.ones(10), np.zeros(10)))
        mixed = np.ones(10)
        mixed[3] = -1.0
        with pytest.raises(ValueError, match="one sign"):
            fit_esaki_tsu(SweepTable("kappa", k, mixed, np.zeros(10)))
        with pytest.raises(ValueError, match="must be positive"):
            EsakiTsuFit(a=-1.0, c=0.1, relative_residual=0.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        t = SweepTable(
            "delta",
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
        back = read_sweep_csv(path, axis_name="delta")
        assert back.config_fingerprint == "f" * 64
        assert list(back.extra_columns) == ["imbalance", "gradient", "converged"]
        for name in ("axis", "current", "residual", "imbalance", "gradient"):
            assert_allclose(back.column(name), t.column(name), rtol=1e-11)

    def test_twelve_significant_digits(self, tmp_path):
        t = SweepTable("x", np.array([1.0 / 3.0]), np.array([2.0 / 3.0]), np.array([0.0]))
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
        assert t.axis_name == "delta"
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
        assert a.axis_name == "kappa"
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


class TestSweepBlasThreads:
    @pytest.fixture
    def blas(self):
        """OpenBLAS set to two threads for the test, the caller's count restored after."""
        blas = experiments._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread control in this process")
        get, put = blas
        saved = get()
        put(2)
        yield get
        put(saved)

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
        monkeypatch.setattr(experiments, "_openblas_threads", lambda: None)
        with pytest.warns(RuntimeWarning, match="thread layout") as record:
            table = sweep_gate(small_cfg(), [-0.1, 0.0, 0.1], parallel=2)
        assert len(record) == 1
        assert_allclose(table.current, expected.current, rtol=1e-9)
