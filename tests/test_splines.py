"""Spline bases and the hourly demand design."""

import datetime as dt

import numpy as np
import pytest
from conftest import cyclic_basis_oracle, write_demand_files

from bootsmooth import (
    DemandModelSpec,
    IngestionError,
    SingularDesignError,
    SplineBasisSpec,
    bspline_basis,
    build_demand_design,
    cyclic_bspline_basis,
    demand_feature_row,
    load_demand_csv,
    load_temperature_csv,
    ols_fit,
    tabular,
)


class TestPlainBasis:
    def test_degree_zero_indicators(self):
        spec = SplineBasisSpec(degree=0, interior_knots=(1.0, 2.0), domain=(0.0, 3.0))
        np.testing.assert_array_equal(bspline_basis(spec, 1.5), [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(bspline_basis(spec, 0.2), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(bspline_basis(spec, 3.0), [0.0, 0.0, 1.0])

    def test_degree_one_hat_functions(self):
        # clamped knots [0,0,1,2,3,3]; hats interpolate linearly between knots
        spec = SplineBasisSpec.uniform(1, 4, 0.0, 3.0)
        np.testing.assert_allclose(bspline_basis(spec, 1.0), [0.0, 1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(bspline_basis(spec, 0.5), [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(bspline_basis(spec, 2.5), [0.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_partition_of_unity_cubic(self, rng):
        spec = SplineBasisSpec.uniform(3, 9, -2.0, 7.0)
        for x in rng.uniform(-2.0, 7.0, size=1000):
            vals = bspline_basis(spec, float(x))
            assert abs(vals.sum() - 1.0) < 1e-12
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_local_support(self, rng):
        d = 3
        spec = SplineBasisSpec.uniform(d, 10, 0.0, 10.0)
        knots = np.concatenate(
            [np.full(d + 1, 0.0), np.asarray(spec.interior_knots), np.full(d + 1, 10.0)]
        )
        for m in (0, 3, 6, 9):
            lo, hi = knots[m], knots[m + d + 1]
            for x in rng.uniform(0.0, 10.0, size=300):
                if not lo <= x <= hi:
                    assert bspline_basis(spec, float(x))[m] == 0.0

    def test_out_of_domain_is_error(self):
        spec = SplineBasisSpec.uniform(2, 5, 0.0, 1.0)
        for x in (-0.001, 1.001):
            with pytest.raises(ValueError, match="outside"):
                bspline_basis(spec, x)

    def test_cyclic_spec_rejected(self):
        spec = SplineBasisSpec.uniform_cyclic(2, 5, 0.0, 24.0)
        with pytest.raises(ValueError, match="cyclic"):
            bspline_basis(spec, 3.0)


class TestCyclicBasis:
    def test_period_is_the_domain_length(self):
        assert SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0).period == 24.0
        assert SplineBasisSpec.uniform(3, 4, 0.0, 24.0).period is None

    def test_periodicity_24(self):
        spec = SplineBasisSpec.uniform_cyclic(3, 6, 0.0, 24.0)
        np.testing.assert_allclose(
            cyclic_bspline_basis(spec, 1.0), cyclic_bspline_basis(spec, 25.0), atol=1e-12
        )

    def test_periodicity_random_points(self, rng):
        spec = SplineBasisSpec.uniform_cyclic(3, 5, 0.0, 24.0)
        for x in rng.uniform(-100.0, 100.0, size=100):
            a = cyclic_bspline_basis(spec, float(x))
            b = cyclic_bspline_basis(spec, float(x) + 24.0)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_partition_of_unity(self, rng):
        spec = SplineBasisSpec.uniform_cyclic(3, 7, 0.0, 24.0)
        for x in rng.uniform(-50.0, 50.0, size=100):
            assert abs(cyclic_bspline_basis(spec, float(x)).sum() - 1.0) < 1e-12

    def test_hand_wrapped_hats(self):
        # degree 1, sites (0, 6, 12, 18): hats peak at their sites
        spec = SplineBasisSpec.uniform_cyclic(1, 4, 0.0, 24.0)
        np.testing.assert_allclose(
            cyclic_bspline_basis(spec, 6.0), [0.0, 1.0, 0.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            cyclic_bspline_basis(spec, 0.0), [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )
        # between the last site and the wrap point mass splits across the seam
        np.testing.assert_allclose(
            cyclic_bspline_basis(spec, 21.0), [0.5, 0.0, 0.0, 0.5], atol=1e-15
        )

    def test_single_function_is_constant(self, rng):
        spec = SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0)
        for x in rng.uniform(0.0, 24.0, size=50):
            np.testing.assert_allclose(cyclic_bspline_basis(spec, float(x)), [1.0], atol=1e-12)

    def test_non_cyclic_spec_rejected(self):
        spec = SplineBasisSpec.uniform(1, 3, 0.0, 24.0)
        with pytest.raises(ValueError, match="not cyclic"):
            cyclic_bspline_basis(spec, 3.0)


def demand_inputs(n_days=8, hour=9, t_lags=1, q=2, m=4):
    start = dt.date(2022, 3, 1)
    days = [start + dt.timedelta(days=i) for i in range(n_days)]
    demand = {(d, hour): 50.0 + 3.0 * i for i, d in enumerate(days)}
    temps = {d: 5.0 + 2.0 * i for i, d in enumerate(days)}
    spec = DemandModelSpec(
        t_lags=t_lags,
        hour_basis=SplineBasisSpec.uniform_cyclic(3, q, 0.0, 24.0),
        temp_basis=SplineBasisSpec.uniform(2, m, 0.0, 40.0),
    )
    from bootsmooth import DemandTable

    return DemandTable(values=demand, dates=tuple(days)), temps, spec, days


class TestDemandDesign:
    def test_smallest_reference_dimension(self):
        # one lag, 6 hour functions, 20 temperature functions: 121 columns
        table, temps, _, days = demand_inputs(n_days=6)
        spec = DemandModelSpec(
            t_lags=1,
            hour_basis=SplineBasisSpec.uniform_cyclic(3, 6, 0.0, 24.0),
            temp_basis=SplineBasisSpec.uniform(3, 20, 0.0, 25.0),
        )
        data = build_demand_design(table, temps, spec, hour=9, days=days)
        assert data.p == 121
        assert data.n == 5

    def test_matches_double_loop_oracle(self):
        table, temps, spec, days = demand_inputs(n_days=5, q=3, m=4)
        hour = 9
        data = build_demand_design(table, temps, spec, hour=hour, days=days)
        q, m = spec.hour_basis.n_basis, spec.temp_basis.n_basis
        assert data.p == spec.t_lags + q * m
        for row, day_idx in enumerate(range(spec.t_lags, len(days))):
            day = days[day_idx]
            assert data.y[row] == table.values[(day, hour)]
            for t in range(1, spec.t_lags + 1):
                assert data.X[row, t - 1] == table.values[(days[day_idx - t], hour)]
            h = cyclic_bspline_basis(spec.hour_basis, float(hour))
            g = bspline_basis(spec.temp_basis, temps[day])
            for qi in range(q):
                for mi in range(m):
                    expect = h[qi] * g[mi]
                    assert data.X[row, spec.t_lags + qi * m + mi] == pytest.approx(
                        expect, abs=1e-15
                    )

    def test_constant_temperature_flags_collinearity(self):
        table, temps, spec, days = demand_inputs(n_days=8, q=1, m=4)
        flat = {d: 10.0 for d in temps}
        data = build_demand_design(table, flat, spec, hour=9, days=days)
        with pytest.raises(SingularDesignError):
            ols_fit(data)

    def test_fixed_hour_tensor_with_multiple_hour_functions_is_collinear(self):
        # h_q(hour) are constants for a fixed hour, so q >= 2 blocks are
        # proportional; the rank check flags this at OLS time
        table, temps, spec, days = demand_inputs(n_days=12, q=3, m=3)
        data = build_demand_design(table, temps, spec, hour=9, days=days)
        with pytest.raises(SingularDesignError):
            ols_fit(data)

    def test_missing_keys_listed(self):
        table, temps, spec, days = demand_inputs(n_days=6, q=1)
        short_temps = dict(temps)
        missing_day = days[3]
        del short_temps[missing_day]
        with pytest.raises(IngestionError, match=str(missing_day)):
            build_demand_design(table, short_temps, spec, hour=9, days=days)
        with pytest.raises(IngestionError, match="h=10"):
            build_demand_design(table, temps, spec, hour=10, days=days)

    def test_feature_row_uses_trailing_lags(self):
        table, temps, spec, days = demand_inputs(n_days=6, q=1, m=4)
        target = days[-1] + dt.timedelta(days=1)
        temps2 = dict(temps)
        temps2[target] = 9.0
        row = demand_feature_row(table, temps2, spec, 9, days, target)
        assert row[0] == table.values[(days[-1], 9)]
        assert row.shape == (spec.p,)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="cyclic"):
            DemandModelSpec(
                t_lags=1,
                hour_basis=SplineBasisSpec.uniform(3, 6, 0.0, 24.0),
                temp_basis=SplineBasisSpec.uniform(3, 5, 0.0, 25.0),
            )
        with pytest.raises(ValueError, match="period"):
            DemandModelSpec(
                t_lags=1,
                hour_basis=SplineBasisSpec.uniform_cyclic(3, 6, 0.0, 12.0),
                temp_basis=SplineBasisSpec.uniform(3, 5, 0.0, 25.0),
            )


class TestCsvLoaders:
    def test_round_trip(self, tmp_path):
        rows = [("2022-01-01", 1, "100.5"), ("2022-01-01", 2, "90.25"), ("2022-01-02", 1, "80.0")]
        temps = [("2022-01-01", "3.5"), ("2022-01-02", "4.25")]
        dpath, tpath = write_demand_files(tmp_path, rows, temps)
        table = load_demand_csv(dpath)
        assert table.values[(dt.date(2022, 1, 1), 2)] == 90.25
        assert table.dates == (dt.date(2022, 1, 1), dt.date(2022, 1, 2))
        tmap = load_temperature_csv(tpath)
        assert tmap[dt.date(2022, 1, 2)] == 4.25

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("day,hour,demand\n2022-01-01,1,5\n")
        with pytest.raises(IngestionError, match="bad.csv:1"):
            load_demand_csv(p)

    def test_line_numbered_errors(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,hour,demand\n2022-01-01,1,5\n2022-01-01,25,5\n")
        with pytest.raises(IngestionError, match="d.csv:3.*1..24"):
            load_demand_csv(p)
        p.write_text("date,hour,demand\n2022-01-01,1,abc\n")
        with pytest.raises(IngestionError, match="d.csv:2"):
            load_demand_csv(p)
        p.write_text("date,hour,demand\n2022-01-01,1,5\n2022-01-01,1,6\n")
        with pytest.raises(IngestionError, match="duplicate"):
            load_demand_csv(p)
        t = tmp_path / "t.csv"
        t.write_text("date,mean_temp\nnot-a-date,3\n")
        with pytest.raises(IngestionError, match="t.csv:2"):
            load_temperature_csv(t)
        # the first bad line in file order is reported, with its column
        p.write_text("date,hour,demand\n2022-01-01,1,abc\n2022-01-01,2,5\n2022-01-01,3\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:2: demand is not a number: 'abc'"
        t.write_text("date,mean_temp\n2022-01-01,warm\n2022-01-02,4\n2022-01-03\n")
        with pytest.raises(IngestionError) as err:
            load_temperature_csv(t)
        assert str(err.value) == f"{t}:2: mean_temp is not a number: 'warm'"

    def test_repeated_bad_date_reports_its_first_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,hour,demand\n2022-01-01,1,5\n2022-13-01,1,5\n2022-13-01,2,5\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:3: bad ISO date '2022-13-01'"

    def test_duplicate_of_an_already_parsed_date_is_caught(self, tmp_path):
        # each date text is parsed once; its later rows take the parsed date
        p = tmp_path / "d.csv"
        p.write_text("date,hour,demand\n2022-01-01,1,5\n2022-01-01,2,5\n2022-01-01,1,6\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:4: duplicate entry for (2022-01-01, 1)"


# Rows per block of the CSV reader: one row, a few rows, and the shipped size.
BLOCK_SIZES = pytest.mark.parametrize("block_rows", [1, 2, 3, None], ids=["1", "2", "3", "shipped"])


def read_in_blocks_of(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block_rows, raising=False)


def hourly_lines(days: int, start=dt.date(2022, 1, 1)) -> list[str]:
    """``date,hour,demand`` lines for every hour of ``days`` days."""
    return [
        f"{start + dt.timedelta(days=d)},{h},{100 + h}" for d in range(days) for h in range(1, 25)
    ]


class TestCsvFaultOrder:
    """One file with several faults reports the first in file order, at any block size."""

    @BLOCK_SIZES
    def test_bad_value_before_an_over_long_field(self, tmp_path, monkeypatch, block_rows):
        read_in_blocks_of(monkeypatch, block_rows)
        p = tmp_path / "d.csv"
        lines = hourly_lines(2)
        lines[0] = "2022-01-01,1,abc"
        lines[30] = "2022-01-02,7," + "9" * 200_000
        p.write_text("date,hour,demand\n" + "\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:2: demand is not a number: 'abc'"
        # alone, the over-long field is reported on its own line
        lines[0] = "2022-01-01,1,101"
        p.write_text("date,hour,demand\n" + "\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:32: field larger than field limit (131072)"

    @BLOCK_SIZES
    def test_duplicate_more_than_a_block_after_its_first_row(self, tmp_path, monkeypatch, block_rows):
        read_in_blocks_of(monkeypatch, block_rows)
        p = tmp_path / "d.csv"
        # 720 rows lie between the two rows: over two blocks of the shipped size
        lines = hourly_lines(30) + ["2022-01-01,5,7.5"]
        p.write_text("date,hour,demand\n" + "\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:{len(lines) + 1}: duplicate entry for (2022-01-01, 5)"
        t = tmp_path / "t.csv"
        days = [dt.date(2022, 1, 1) + dt.timedelta(days=d) for d in range(600)]
        t.write_text("date,mean_temp\n" + "".join(f"{d},{i % 30}\n" for i, d in enumerate(days)) + f"{days[2]},4\n")
        with pytest.raises(IngestionError) as err:
            load_temperature_csv(t)
        assert str(err.value) == f"{t}:{len(days) + 2}: duplicate entry for {days[2]}"

    @BLOCK_SIZES
    @pytest.mark.parametrize(
        "text, message",
        [("x", "hour is not an integer: 'x'"), ("25", "hour must be in 1..24, got 25")],
        ids=["not_an_integer", "out_of_range"],
    )
    def test_repeated_bad_hour_text_reports_its_first_line(
        self, tmp_path, monkeypatch, block_rows, text, message
    ):
        read_in_blocks_of(monkeypatch, block_rows)
        p = tmp_path / "d.csv"
        lines = hourly_lines(1)
        lines[3] = lines[7] = lines[8] = f"2022-01-01,{text},5"
        # a bad demand on a later line is not the first fault
        lines[9] = "2022-01-01,10,nan"
        p.write_text("date,hour,demand\n" + "\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as err:
            load_demand_csv(p)
        assert str(err.value) == f"{p}:5: {message}"

    @BLOCK_SIZES
    def test_bad_temperature_before_a_short_row(self, tmp_path, monkeypatch, block_rows):
        read_in_blocks_of(monkeypatch, block_rows)
        t = tmp_path / "t.csv"
        days = [dt.date(2022, 1, 1) + dt.timedelta(days=d) for d in range(10)]
        rows = [f"{d},{i}" for i, d in enumerate(days)]
        rows[4] = f"{days[4]},inf"
        rows[8] = f"{days[8]}"
        t.write_text("date,mean_temp\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError) as err:
            load_temperature_csv(t)
        assert str(err.value) == f"{t}:6: mean_temp must be finite"


class TestOnePassDesign:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
    def test_array_basis_equals_one_point_evaluations(self, rng, degree):
        from bootsmooth.splines import _bspline_rows

        spec = SplineBasisSpec.uniform(degree, degree + 7, -8.5, 31.0)
        x = np.concatenate([[-8.5, 31.0], spec.interior_knots, rng.uniform(-8.5, 31.0, 200)])
        rows = _bspline_rows(spec, x)
        assert rows.tobytes() == np.array([bspline_basis(spec, v) for v in x]).tobytes()
        # cyclic bases, multi-point and one-point, against the one-point loop, bitwise
        for sites in range(1, 9):
            for lo, period in ((0.0, 24.0), (-8.5, 39.5), (1.25, 0.75)):
                spec = SplineBasisSpec.uniform_cyclic(degree, sites, lo, period)
                x = np.concatenate(
                    [
                        [lo + k * period for k in range(-3, 4)],
                        [s + k * period for s in spec.interior_knots for k in (-3, 0, 3)],
                        lo + rng.uniform(-3.0, 3.0, 40) * period,
                    ]
                )
                expected = np.array([cyclic_basis_oracle(spec, v) for v in x])
                assert np.array([cyclic_bspline_basis(spec, v) for v in x]).tobytes() == expected.tobytes()
                assert _bspline_rows(spec, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t_lags", [1, 2, 3])
    def test_feature_row_is_the_last_design_row_of_the_extended_window(self, t_lags):
        table, temps, spec, days = demand_inputs(n_days=9, t_lags=t_lags, q=2, m=5)
        window, day = days[:-1], days[-1]
        row = demand_feature_row(table, temps, spec, 9, window, day)
        data = build_demand_design(table, temps, spec, hour=9, days=window + [day])
        assert row.tobytes() == data.X[-1].tobytes()

    @pytest.mark.parametrize("hour", [0, 25])
    def test_both_builders_refuse_an_hour_outside_1_to_24(self, hour):
        table, temps, spec, days = demand_inputs(n_days=6, q=1, m=4)
        # keys at the bad hour, so that only the hour rule can refuse it
        values = {**table.values, **{(d, hour): 1.0 for d in days}}
        table = type(table)(values=values, dates=table.dates)
        message = f"^hour must be in 1..24, got {hour}$"
        with pytest.raises(ValueError, match=message):
            build_demand_design(table, temps, spec, hour=hour, days=days)
        with pytest.raises(ValueError, match=message):
            demand_feature_row(table, temps, spec, hour, days[:-1], days[-1])

    def test_first_temperature_outside_the_domain_is_named(self):
        table, temps, spec, days = demand_inputs(n_days=6, q=1, m=4)
        temps = {**temps, days[2]: 41.5, days[4]: -3.0}
        with pytest.raises(ValueError, match=r"^x=41.5 outside basis domain \[0.0, 40.0\]$"):
            build_demand_design(table, temps, spec, hour=9, days=days)

    @pytest.mark.parametrize("t_lags", [1, 2, 3])
    def test_rows_equal_the_row_by_row_build(self, t_lags):
        table, temps, spec, days = demand_inputs(n_days=9, t_lags=t_lags, q=3, m=5)
        hour = 9
        data = build_demand_design(table, temps, spec, hour=hour, days=days)
        h = cyclic_bspline_basis(spec.hour_basis, float(hour))
        rows = [
            np.concatenate(
                [
                    [table.values[(days[i - t], hour)] for t in range(1, t_lags + 1)],
                    np.outer(h, bspline_basis(spec.temp_basis, temps[days[i]])).ravel(),
                ]
            )
            for i in range(t_lags, len(days))
        ]
        assert data.X.tobytes() == np.vstack(rows).tobytes()
        assert data.y.tobytes() == np.array([table.values[(d, hour)] for d in days[t_lags:]]).tobytes()
