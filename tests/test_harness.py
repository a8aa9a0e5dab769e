import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactopt.harness as harness
from contactopt.harness import (
    BAND_HEADER,
    ConfigError,
    ExperimentSpec,
    InitSpec,
    ObjectiveSpec,
    OptimizerEntry,
    QuantileBand,
    RateUndefinedError,
    SearchRanges,
    TRACE_HEADER,
    _quantile,
    derive_seed,
    estimate_rate,
    export_band_csv,
    export_svg,
    export_trace_csv,
    monte_carlo,
    parse_experiment,
    random_search,
    read_band_csv,
    read_trace_csv,
    run_bench,
    spec_to_doc,
)
from contactopt.objectives import OBJECTIVE_NAMES
from contactopt.optimizers import (
    KIND_PARAMS,
    OPTIMIZER_KINDS,
    TUNABLES,
    RunRecord,
    run,
)
from contactopt.presets import PRESET_NAMES, SCALES, experiment_preset


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(42, "search:gd", 3) == derive_seed(42, "search:gd", 3)

    def test_distinct_streams(self):
        seeds = {
            derive_seed(42, "search:gd", 0),
            derive_seed(42, "search:gd", 1),
            derive_seed(42, "search:cm", 0),
            derive_seed(43, "search:gd", 0),
            derive_seed(42, "objective", 0),
        }
        assert len(seeds) == 5

    def test_range_and_negative_master(self):
        s = derive_seed(-1, "x", 0)
        assert 0 <= s < 2 ** 64
        assert s == derive_seed(2 ** 64 - 1, "x", 0)


class TestInitSpec:
    def test_fixed_roundtrip(self):
        spec = InitSpec(kind="fixed", values=(1.0, -2.0, 3.0))
        np.testing.assert_array_equal(spec.materialize(3), [1.0, -2.0, 3.0])
        assert not spec.random

    def test_fixed_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            InitSpec(kind="fixed", values=(1.0, 2.0)).materialize(3)

    def test_pattern_tiles(self):
        spec = InitSpec(kind="pattern", values=(-1.2, 1.0))
        np.testing.assert_array_equal(
            spec.materialize(5), [-1.2, 1.0, -1.2, 1.0, -1.2])

    def test_box_draws_in_range(self):
        spec = InitSpec(kind="box", lo=-2.0, hi=3.0)
        assert spec.random
        x = spec.materialize(100, np.random.default_rng(0))
        assert np.all(x >= -2.0) and np.all(x <= 3.0)

    def test_start_of_a_seeded_run(self):
        box = InitSpec(kind="box", lo=-2.0, hi=3.0)
        rng = np.random.default_rng(derive_seed(7, "init", 0))
        np.testing.assert_array_equal(box.start(4, 7), box.materialize(4, rng))
        assert not np.array_equal(box.start(4, 7), box.start(4, 8))
        pattern = InitSpec(kind="pattern", values=(-1.2, 1.0))
        np.testing.assert_array_equal(pattern.start(3, 7), pattern.materialize(3))

    def test_box_needs_generator(self):
        with pytest.raises(ValueError, match="generator"):
            InitSpec(kind="box", lo=0.0, hi=1.0).materialize(2)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            InitSpec(kind="gaussian")
        with pytest.raises(ValueError, match="value"):
            InitSpec(kind="pattern")
        with pytest.raises(ValueError, match="lo < hi"):
            InitSpec(kind="box", lo=1.0, hi=1.0)
        # a start that is not finite is bad input, not a divergence
        for bad in (
            {"kind": "pattern", "values": (math.nan,)},
            {"kind": "fixed", "values": (1.0, -math.inf)},
            {"kind": "box", "lo": -math.inf, "hi": 0.0},
            {"kind": "box", "lo": 0.0, "hi": math.nan},
            {"kind": "box", "lo": -1e308, "hi": 1e308},  # finite bounds, width overflows
        ):
            with pytest.raises(ValueError, match="finite"):
                InitSpec(**bad)


class _ZeroRng:
    def uniform(self, lo, hi):
        return 0.0


class TestSearchRanges:
    def test_default_laws(self):
        r = SearchRanges(tau=(1e-5, 1e-1), epsilon=(0.0, 0.6), mu=(0.8, 0.99))
        assert r.law("tau") == "log_uniform"  # four decades
        assert r.law("epsilon") == "uniform"  # touches zero
        assert r.law("mu") == "uniform"
        assert SearchRanges(tau=(0.01, 0.5)).law("tau") == "uniform"  # < 2 decades

    def test_sampling_override(self):
        r = SearchRanges(mu=(0.5, 0.9), sampling={"mu": "log_uniform"})
        assert r.law("mu") == "log_uniform"

    def test_sampling_validation(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            SearchRanges(tau=(0.1, 1.0), sampling={"beta": "uniform"})
        with pytest.raises(ValueError, match="law"):
            SearchRanges(tau=(0.1, 1.0), sampling={"tau": "jeffreys"})
        with pytest.raises(ValueError, match="positive lower bound"):
            SearchRanges(delta=(0.0, 5.0), sampling={"delta": "log_uniform"})

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="lo > hi"):
            SearchRanges(tau=(1.0, 0.5))
        with pytest.raises(ValueError, match="finite"):
            SearchRanges(mu=(0.1, math.inf))

    def test_degenerate_interval_is_point_mass(self):
        r = SearchRanges(tau=(0.25, 0.25))
        rng = np.random.default_rng(0)
        assert all(r.draw("tau", rng) == 0.25 for _ in range(5))

    def test_draw_requires_declared_interval(self):
        with pytest.raises(ValueError, match="no search interval"):
            SearchRanges(tau=(0.1, 1.0)).draw("mu", np.random.default_rng(0))

    def test_zero_draw_clamped_positive(self):
        r = SearchRanges(epsilon=(0.0, 0.6))
        v = r.draw("epsilon", _ZeroRng())
        assert v > 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_draws_stay_in_bounds(self, seed):
        r = SearchRanges(tau=(1e-5, 1e-1), mu=(0.8, 0.99))
        rng = np.random.default_rng(seed)
        t = r.draw("tau", rng)
        m = r.draw("mu", rng)
        assert 1e-5 <= t <= 1e-1
        assert 0.8 <= m <= 0.99


class TestEntryAndSpecs:
    def test_entry_requires_ranges_for_kind(self):
        with pytest.raises(ValueError, match="search range"):
            OptimizerEntry(kind="cm", ranges=SearchRanges(tau=(0.1, 1.0)))
        with pytest.raises(ValueError, match="search range"):
            OptimizerEntry(kind="rgd", ranges=SearchRanges(
                epsilon=(0.1, 1.0), mu=(0.5, 0.9)))

    def test_entry_rejects_an_unknown_kind(self):
        # at construction, not when the search builds its first config
        ranges = SearchRanges(epsilon=(1e-3, 1e-2), mu=(0.5, 0.9), delta=(0.0, 1.0))
        with pytest.raises(ValueError, match=r"^unknown optimizer kind 'crgd_physical'"):
            OptimizerEntry(kind="crgd_physical", ranges=ranges)

    def test_make_config_carries_the_kind(self):
        entry = OptimizerEntry(kind="nag_k", ranges=SearchRanges(tau=(0.1, 1.0)))
        cfg = entry.make_config({"tau": 0.2})
        assert cfg.kind == "nag_k" and cfg.tau == 0.2

    def test_objective_spec_validation(self):
        with pytest.raises(ValueError, match="unknown objective"):
            ObjectiveSpec(name="ackley", dim=2)
        with pytest.raises(ValueError, match="two-dimensional"):
            ObjectiveSpec(name="camelback", dim=3)

    def test_only_quadratic_is_randomized(self):
        assert ObjectiveSpec(name="quadratic", dim=3).randomized
        assert not ObjectiveSpec(name="quartic", dim=3).randomized

    def test_quadratic_seed_override_changes_draw(self):
        spec = ObjectiveSpec(name="quadratic", dim=4, seed=1)
        x = np.ones(4)
        assert spec.build().eval(x) == spec.build(seed=1).eval(x)
        assert spec.build().eval(x) != spec.build(seed=2).eval(x)

    def test_experiment_spec_validation(self):
        obj = ObjectiveSpec(name="quartic", dim=3)
        init = InitSpec(kind="pattern", values=(2.0,))
        entry = OptimizerEntry(kind="gd", ranges=SearchRanges(tau=(0.01, 0.1)))
        good = dict(objective=obj, init=init, optimizers=(entry,),
                    search_trials=5, mc_runs=2, iters=10)
        ExperimentSpec(**good)
        with pytest.raises(ValueError, match="at least one optimizer"):
            ExperimentSpec(**{**good, "optimizers": ()})
        for field in ("search_trials", "mc_runs", "iters"):
            with pytest.raises(ValueError, match=field):
                ExperimentSpec(**{**good, field: 0})
        with pytest.raises(ValueError, match="fixed init length"):
            ExperimentSpec(**{**good, "init": InitSpec(kind="fixed", values=(1.0,))})


class TestQuantiles:
    def test_band_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordering"):
            QuantileBand(kind="gd", median=(1.0,), q025=(2.0,), q975=(3.0,))
        with pytest.raises(ValueError, match="equal length"):
            QuantileBand(kind="gd", median=(1.0, 2.0), q025=(1.0,), q975=(1.0,))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
           st.sampled_from([0.025, 0.25, 0.5, 0.975]))
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_on_finite_data(self, vals, q):
        vals = sorted(vals)
        mine = _quantile(vals, q)
        ref = float(np.quantile(vals, q))
        assert mine == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))

    def test_infinity_handling(self):
        assert _quantile([1.0, math.inf, math.inf], 0.5) == math.inf
        assert _quantile([1.0, 2.0, math.inf], 0.5) == 2.0
        assert _quantile([1.0, 2.0, math.inf], 0.975) == math.inf
        assert _quantile([5.0], 0.025) == 5.0
        # a stack is reduced row by row
        rows = [[1.0, math.inf, math.inf], [1.0, 2.0, math.inf]]
        assert _quantile(rows, 0.5).tolist() == [math.inf, 2.0]


class TestRateEstimation:
    def test_recovers_planted_rates(self):
        for p in (0.5, 3.0, 18.22, 116.19):
            trace = [1.0] + [2.3 * k ** (-p) for k in range(1, 301)]
            est = estimate_rate(trace, (150, 300))
            assert est == pytest.approx(p, rel=1e-3)

    def test_cubic_decay_tight(self):
        trace = [1.0] + [k ** -3.0 for k in range(1, 101)]
        assert estimate_rate(trace, (1, 100)) == pytest.approx(3.0, abs=1e-9)

    def test_constant_trace_has_zero_rate(self):
        trace = [7.0] * 50
        assert abs(estimate_rate(trace, (1, 49))) <= 1e-9

    def test_undefined_on_bad_values(self):
        with pytest.raises(RateUndefinedError):
            estimate_rate([1.0, 0.5, 0.0, 0.1], (1, 3))
        with pytest.raises(RateUndefinedError):
            estimate_rate([1.0, 0.5, math.inf, 0.1], (1, 3))
        with pytest.raises(RateUndefinedError):
            estimate_rate([1.0, -0.5, 0.2, 0.1], (1, 3))

    def test_window_validation(self):
        trace = [1.0] * 20
        with pytest.raises(ValueError, match=">= 1"):
            estimate_rate(trace, (0, 10))
        with pytest.raises(ValueError, match="k_lo < k_hi"):
            estimate_rate(trace, (5, 5))
        with pytest.raises(ValueError, match="exceeds"):
            estimate_rate(trace, (1, 20))


def tiny_spec(**over):
    base = dict(
        objective=ObjectiveSpec(name="quartic", dim=2),
        init=InitSpec(kind="fixed", values=(2.0, 2.0)),
        optimizers=(OptimizerEntry(kind="gd", ranges=SearchRanges(tau=(0.02, 0.02))),),
        search_trials=3,
        mc_runs=4,
        iters=15,
        master_seed=9,
    )
    base.update(over)
    return ExperimentSpec(**base)


class TestMonteCarlo:
    def test_deterministic_setup_gives_zero_width_band(self):
        spec = tiny_spec()
        entry = spec.optimizers[0]
        band, records = monte_carlo(spec, entry, {"tau": 0.02})
        assert len(records) == 4
        assert band.median == band.q025 == band.q975
        assert len(band.median) == 16

    def test_single_run_band_is_the_trace(self):
        spec = tiny_spec(mc_runs=1)
        band, records = monte_carlo(spec, spec.optimizers[0], {"tau": 0.02})
        assert band.median == records[0].trace

    def test_randomized_objective_spreads_band(self):
        spec = tiny_spec(
            objective=ObjectiveSpec(name="quadratic", dim=4),
            init=InitSpec(kind="pattern", values=(1.0,)),
            mc_runs=5,
            iters=10,
        )
        band, records = monte_carlo(spec, spec.optimizers[0], {"tau": 0.1})
        assert len({r.trace for r in records}) > 1
        assert any(h > l for l, h in zip(band.q025[1:], band.q975[1:]))

    def test_master_seeds_draw_disjoint_runs(self):
        # an XOR of master and run index would give masters 42 and 43 the
        # same ten run seeds, and so the same quadratic draws
        seeds = []
        for master in (42, 43):
            spec = tiny_spec(
                objective=ObjectiveSpec(name="quadratic", dim=4),
                init=InitSpec(kind="pattern", values=(1.0,)),
                mc_runs=10,
                iters=2,
                master_seed=master,
            )
            _, records = monte_carlo(spec, spec.optimizers[0], {"tau": 0.1})
            seeds.append({r.trial_seed for r in records})
        assert len(seeds[0]) == len(seeds[1]) == 10
        assert not seeds[0] & seeds[1]

    def test_diverged_runs_pad_with_inf(self):
        spec = tiny_spec(mc_runs=3, iters=30)
        band, records = monte_carlo(spec, spec.optimizers[0], {"tau": 1.0})
        assert all(r.diverged for r in records)
        assert band.median[0] < math.inf
        assert band.median[-1] == math.inf


class TestRandomSearch:
    def test_point_mass_ranges_return_the_point(self):
        spec = tiny_spec()
        sr = random_search(spec, spec.optimizers[0])
        assert sr.viable
        assert sr.best_params == {"tau": 0.02}
        assert sr.n_trials == 3 and sr.n_diverged == 0

    def test_nag_k_needs_no_mu_range_and_reports_only_tau(self):
        spec = tiny_spec(
            optimizers=(OptimizerEntry(kind="nag_k", ranges=SearchRanges(tau=(0.001, 0.05))),),
            search_trials=8,
        )
        sr = random_search(spec, spec.optimizers[0])
        assert sr.viable and set(sr.best_params) == {"tau"}

    def test_deterministic_in_master_seed(self):
        spec = tiny_spec(
            optimizers=(OptimizerEntry(
                kind="gd", ranges=SearchRanges(tau=(0.001, 0.05))),),
            search_trials=20,
        )
        a = random_search(spec, spec.optimizers[0])
        b = random_search(spec, spec.optimizers[0])
        assert a.best_params == b.best_params and a.best_gap == b.best_gap

    def test_recovers_known_optimal_step(self):
        # f(x) = x^2/2 in 1-D: gd contracts by (1 - tau) per step, so the
        # best step over a wide log-uniform range must land near tau = 1
        spec = ExperimentSpec(
            objective=ObjectiveSpec(
                name="quadratic", dim=1, seed=3, eigen_lo=1.0, eigen_hi=1.0),
            init=InitSpec(kind="fixed", values=(1.0,)),
            optimizers=(OptimizerEntry(
                kind="gd", ranges=SearchRanges(tau=(0.01, 1.9))),),
            search_trials=600,
            mc_runs=1,
            iters=5,
            master_seed=7,
        )
        assert spec.optimizers[0].ranges.law("tau") == "log_uniform"
        sr = random_search(spec, spec.optimizers[0])
        assert sr.viable
        assert 0.9 <= sr.best_params["tau"] <= 1.1

    def test_all_diverged_marks_nonviable(self):
        spec = tiny_spec(
            optimizers=(OptimizerEntry(
                kind="gd", ranges=SearchRanges(tau=(1.0, 2.0))),),
            search_trials=6,
        )
        outcomes = run_bench(spec)
        sr = outcomes[0].search
        assert not sr.viable
        assert sr.best_params is None and sr.best_record is None
        assert sr.best_gap == math.inf
        assert sr.n_diverged == 6
        assert outcomes[0].band is None
        assert outcomes[0].records == ()


class TestRunBench:
    def test_two_runs_of_one_spec_agree(self):
        spec = tiny_spec(
            objective=ObjectiveSpec(name="quadratic", dim=3),
            init=InitSpec(kind="box", lo=-1.0, hi=1.0),
            optimizers=(
                OptimizerEntry(kind="gd", ranges=SearchRanges(tau=(0.01, 0.3))),
                OptimizerEntry(kind="cm", ranges=SearchRanges(
                    tau=(0.01, 0.3), mu=(0.5, 0.95))),
            ),
            search_trials=8,
            mc_runs=3,
            iters=12,
        )
        # two runs of one spec must agree exactly
        first = run_bench(spec)
        second = run_bench(spec)
        assert len(first) == len(second) == 2
        for a, b in zip(first, second):
            assert a.search == b.search
            assert a.band == b.band
            assert a.records == b.records


def quadratic_spec(**over):
    """The quadratic preset cut to a few trials, runs and iterations."""
    base = dict(objective=ObjectiveSpec(name="quadratic", dim=6, seed=1),
                search_trials=5, mc_runs=3, iters=20)
    base.update(over)
    return dataclasses.replace(
        experiment_preset("quadratic", scale="desk", master_seed=3), **base)


class TestSharedDraws:
    def test_bench_draws_every_matrix_once(self, monkeypatch):
        draws = []
        real = harness.draw_quadratic

        def counting(seed, *args):
            draws.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(harness, "draw_quadratic", counting)
        spec = quadratic_spec()
        outcomes = run_bench(spec)
        assert len(spec.optimizers) == 4 and all(oc.search.viable for oc in outcomes)
        # the search matrix and each Monte-Carlo matrix, shared by all four
        assert len(draws) == 1 + spec.mc_runs
        assert len(set(draws)) == len(draws)

    def test_monte_carlo_is_one_batch(self, monkeypatch):
        calls = []
        real = harness.run_batch

        def counting(obj, cfgs, *args, **kwargs):
            calls.append(len(cfgs))
            return real(obj, cfgs, *args, **kwargs)

        monkeypatch.setattr(harness, "run_batch", counting)
        spec = quadratic_spec(mc_runs=7)
        entry = spec.optimizers[2]
        band, records = monte_carlo(spec, entry, {"epsilon": 0.3, "mu": 0.8, "delta": 5.0})
        assert calls == [7]
        assert len(records) == 7 and len({r.trace for r in records}) == 7

    def test_shared_draws_equal_drawing_alone(self):
        # random_search and monte_carlo called alone draw for themselves
        spec = quadratic_spec()
        for entry, oc in zip(spec.optimizers, run_bench(spec)):
            assert random_search(spec, entry) == oc.search
            band, records = monte_carlo(spec, entry, oc.search.best_params)
            assert band == oc.band and tuple(records) == oc.records

    def test_eigenbasis_gaps_match_the_assembled_matrix(self):
        # Monte Carlo on diag(lam) from x0 @ Q tracks runs on the assembled
        # A = Q diag(lam) Q' from x0 to rounding
        spec = quadratic_spec(init=InitSpec(kind="box", lo=-1.0, hi=1.0))
        entry = spec.optimizers[1]
        params = {"tau": 0.3, "mu": 0.85}
        _, records = monte_carlo(spec, entry, params)
        for j, rec in enumerate(records):
            rseed = derive_seed(spec.master_seed, "mc", j)
            obj = spec.objective.build(seed=derive_seed(rseed, "objective", 0))
            x0 = spec.init.materialize(
                spec.objective.dim, np.random.default_rng(derive_seed(rseed, "init", 0)))
            alone = run(obj, entry.make_config(params), x0, spec.iters)
            assert rec.diverged == alone.diverged and rec.trial_seed == rseed
            np.testing.assert_allclose(rec.trace, alone.trace, rtol=1e-12, atol=0)


def trimmed_preset(name, seed, **over):
    """A desk preset cut to a dozen search trials."""
    return dataclasses.replace(
        experiment_preset(name, master_seed=seed), search_trials=12, **over)


class TestWinnerRuns:
    """A spec with nothing random left after the search takes its Monte-Carlo
    runs from the search winner instead of running them again."""

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("name, over", [
        pytest.param("quartic", {}, id="quartic"),
        pytest.param("camelback", {}, id="camelback"),
        pytest.param("rosenbrock", {}, id="rosenbrock"),
        # a box start is drawn per run, so this bench still runs its Monte Carlo
        pytest.param("camelback", {"init": InitSpec(kind="box", lo=-0.5, hi=0.5)},
                     id="camelback-box"),
    ])
    def test_bench_equals_running_monte_carlo(self, name, over, seed):
        spec = trimmed_preset(name, seed, **over)
        for entry, oc in zip(spec.optimizers, run_bench(spec)):
            assert oc.search.viable
            band, records = monte_carlo(spec, entry, oc.search.best_params)
            assert oc.band == band
            # RunRecord equality covers every field, trial_seed included
            assert oc.records == tuple(records)

    def test_every_run_is_the_winner_reseeded(self):
        spec = trimmed_preset("camelback", 7, mc_runs=3)
        for oc in run_bench(spec):
            assert len(oc.records) == 3
            assert oc.band.median == oc.band.q025 == oc.band.q975 == oc.records[0].trace
            assert {r.trace for r in oc.records} == {oc.search.best_record.trace}
            assert [r.trial_seed for r in oc.records] == [
                derive_seed(spec.master_seed, "mc", j) for j in range(3)]

    def test_search_keeps_a_copy_of_the_winner(self):
        spec = trimmed_preset("quartic", 42)
        sr = random_search(spec, spec.optimizers[3])
        rec = sr.best_record
        assert rec.final_gap == sr.best_gap and not rec.diverged
        assert rec.params == sr.best_params and len(rec.trace) == spec.iters + 1

    @pytest.mark.parametrize("make, per_optimizer", [
        pytest.param(lambda: trimmed_preset("camelback", 42), 1, id="deterministic"),
        pytest.param(quadratic_spec, 2, id="quadratic"),
        pytest.param(lambda: trimmed_preset(
            "camelback", 42, init=InitSpec(kind="box", lo=-0.5, hi=0.5)), 2, id="box-init"),
    ])
    def test_batches_per_optimizer(self, monkeypatch, make, per_optimizer):
        calls = []
        real = harness.run_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_batch", counting)
        spec = make()
        outcomes = run_bench(spec)
        assert all(oc.search.viable for oc in outcomes)
        assert len(calls) == per_optimizer * len(spec.optimizers)


class TestCsvRoundTrip:
    def make_records(self):
        return [
            RunRecord(kind="gd", params={"tau": 0.1},
                      trace=(2.0, 1.0, 0.5, 0.125), diverged=False),
            RunRecord(kind="crgd", params={},
                      trace=(2.0, 37.25), diverged=True),
        ]

    def test_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        recs = self.make_records()
        export_trace_csv(recs, path)
        back = read_trace_csv(path)
        assert [t for t, _ in back] == [0, 1]
        for (_, got), want in zip(back, recs):
            assert got.kind == want.kind
            assert got.trace == want.trace
            assert got.diverged == want.diverged

    def test_interleaved_rows_count_iters_per_trace_and_band(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write(f"{TRACE_HEADER}\ngd,0,0,1.0,false\ngd,1,0,2.0,true\n"
                     "cm,0,0,3.0,false\ngd,0,1,0.5,false\n")
        got = [(t, r.kind, r.trace, r.diverged) for t, r in read_trace_csv(path)]
        assert got == [(0, "gd", (1.0, 0.5), False), (1, "gd", (2.0,), True),
                       (0, "cm", (3.0,), False)]
        with open(path, "w") as fh:
            fh.write(f"{BAND_HEADER}\ncm,0,1.0,0.5,2.0\ngd,0,3.0,3.0,3.0\ncm,1,0.5,0.5,0.5\n")
        assert [len(b.median) for b in read_band_csv(path)] == [2, 1]

    def test_band_roundtrip_with_inf(self, tmp_path):
        path = str(tmp_path / "b.csv")
        band = QuantileBand(
            kind="rgd",
            median=(1.0, 0.1234567890123456, math.inf),
            q025=(0.5, 0.001, math.inf),
            q975=(2.0, 1.0, math.inf),
        )
        export_band_csv([band], path)
        got = read_band_csv(path)
        assert got == [band]
        text = Path(path).read_text()
        assert "inf" in text

    def test_empty_exports_header_only(self, tmp_path):
        path = str(tmp_path / "e.csv")
        export_trace_csv([], path)
        assert Path(path).read_text() == TRACE_HEADER + "\n"
        assert read_trace_csv(path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "x.csv")
        with open(path, "w") as fh:
            fh.write("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="trace CSV"):
            read_trace_csv(path)
        with pytest.raises(ValueError, match="band CSV"):
            read_band_csv(path)

    @pytest.mark.parametrize("reader, header, good, bad, message", [
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,false", "gd,0,1",
                     "3 fields", id="trace-short-row"),
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,false", "gd,0,1,abc,false",
                     "'abc'", id="trace-non-number"),
        pytest.param(read_band_csv, BAND_HEADER, "gd,0,1.0,0.5,2.0", "gd,1,1.0,0.5",
                     "4 fields", id="band-short-row"),
        pytest.param(read_band_csv, BAND_HEADER, "gd,0,1.0,0.5,2.0", "gd,1,1.0,abc,2.0",
                     "'abc'", id="band-non-number"),
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,false", "gd,0,1,0.5,TRUE",
                     "'TRUE'", id="trace-bad-diverged-flag"),
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,true", "gd,0,1,0.5,false",
                     "diverged false where gd trial 0 began true", id="trace-flag-flips"),
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,false", "gd,0,0,0.5,false",
                     "iter 0 where gd trial 0 is at iteration 1", id="trace-repeated-iter"),
        pytest.param(read_trace_csv, TRACE_HEADER, "gd,0,0,1.0,false", "gd,0,7,0.5,false",
                     "iter 7 where gd trial 0 is at iteration 1", id="trace-skipped-iter"),
        pytest.param(read_band_csv, BAND_HEADER, "cm,0,1.0,0.5,2.0", "cm,0,1.0,0.5,2.0",
                     "iter 0 where the cm band is at iteration 1", id="band-repeated-iter"),
        pytest.param(read_band_csv, BAND_HEADER, "cm,0,1.0,0.5,2.0", "cm,5,1.0,0.5,2.0",
                     "iter 5 where the cm band is at iteration 1", id="band-skipped-iter"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, reader, header, good, bad, message):
        # the blank third line is skipped but still counted
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write(f"{header}\n{good}\n\n{bad}\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}:4: ")
        assert message in str(err.value)


class TestSvg:
    def bands(self):
        ks = list(range(6))
        return [
            QuantileBand(kind="gd",
                         median=tuple(2.0 ** -k for k in ks),
                         q025=tuple(2.0 ** -k / 2 for k in ks),
                         q975=tuple(2.0 ** -k * 2 for k in ks)),
            QuantileBand(kind="crgd",
                         median=tuple(4.0 ** -k for k in ks),
                         q025=tuple(4.0 ** -k / 2 for k in ks),
                         q975=tuple(4.0 ** -k * 2 for k in ks)),
        ]

    def test_two_bands_render_distinctly(self, tmp_path):
        # the second title holds XML markup characters, which must be escaped
        for title in ("demo", "CM & NAG <desk>"):
            path = str(tmp_path / "p.svg")
            export_svg(self.bands(), path, title=title)
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")
            polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
            polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
            texts = [el.text for el in root.iter() if el.tag.endswith("text")]
            assert len(polylines) == 2 and len(polygons) == 2
            strokes = {el.get("stroke") for el in polylines}
            assert len(strokes) == 2
            assert "gd" in texts and "crgd" in texts and title in texts

    def test_constant_band_is_horizontal(self, tmp_path):
        path = str(tmp_path / "c.svg")
        band = QuantileBand(kind="gd", median=(1.0,) * 5,
                            q025=(1.0,) * 5, q975=(1.0,) * 5)
        export_svg([band], path)
        root = ET.parse(path).getroot()
        line = next(el for el in root.iter() if el.tag.endswith("polyline"))
        ys = {pt.split(",")[1] for pt in line.get("points").split()}
        assert len(ys) == 1

    def test_requires_bands(self, tmp_path):
        with pytest.raises(ValueError):
            export_svg([], str(tmp_path / "n.svg"))


def base_doc():
    return {
        "objective": {"name": "quartic", "dim": 3},
        "init": {"kind": "pattern", "pattern": [2.0]},
        "optimizers": [{"kind": "gd", "ranges": {"tau": [0.01, 0.1]}}],
        "search_trials": 5,
        "mc_runs": 2,
        "iters": 10,
    }


_finite = st.floats(-1e6, 1e6)


def _intervals(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


# search intervals inside each tunable's domain; tau and epsilon may touch 0
_positive_hi = _intervals(st.floats(0, 1e6)).filter(lambda iv: iv[1] > 0)
_IN_DOMAIN = {
    "tau": _positive_hi,
    "epsilon": _positive_hi,
    "mu": _intervals(st.floats(0, 1, exclude_min=True)),
    "delta": _intervals(st.floats(0, 1e6)),
}


@st.composite
def experiment_docs(draw):
    """Valid JSON configs: every objective, init kind and optimizer kind,
    with optional keys and sampling laws present or left to their defaults."""
    name = draw(st.sampled_from(OBJECTIVE_NAMES))
    dim = 2 if name == "camelback" else draw(st.integers(2 if name == "rosenbrock" else 1, 8))
    objective = {"name": name, "dim": dim}
    if name == "quadratic":  # lo <= 1 <= hi, so either may be left to its default
        for key, bounds in (("eigen_lo", (1e-6, 1.0)), ("eigen_hi", (1.0, 1e6))):
            if draw(st.booleans()):
                objective[key] = draw(st.floats(*bounds))
    init_kind = draw(st.sampled_from(["fixed", "pattern", "box"]))
    if init_kind == "box":
        lo = draw(_finite)
        init = {"kind": "box", "lo": lo, "hi": lo + draw(st.floats(1e-3, 1e3))}
    else:
        size = dim if init_kind == "fixed" else draw(st.integers(1, 3))
        init = {"kind": init_kind, "pattern": draw(st.lists(_finite, min_size=size, max_size=size))}
    optimizers = []
    for kind in draw(st.lists(st.sampled_from(OPTIMIZER_KINDS), min_size=1, max_size=5)):
        names = set(KIND_PARAMS[kind]) | draw(st.sets(st.sampled_from(TUNABLES)))
        ranges = {p: draw(_IN_DOMAIN[p]) for p in names}
        entry = {"kind": kind, "ranges": ranges}
        laws = {p: "log_uniform" if lo > 0 and draw(st.booleans()) else "uniform"
                for p, (lo, _) in ranges.items() if draw(st.booleans())}
        if laws or draw(st.booleans()):
            entry["sampling"] = laws
        optimizers.append(entry)
    doc = {"objective": objective, "init": init, "optimizers": optimizers}
    for key in ("search_trials", "mc_runs", "iters"):
        doc[key] = draw(st.integers(1, 10 ** 4))
    if draw(st.booleans()):
        objective["seed"] = draw(st.integers(0, 2 ** 64 - 1))
    if draw(st.booleans()):
        doc["master_seed"] = draw(st.integers(-(2 ** 63), 2 ** 64 - 1))
    return doc


class TestConfigParsing:
    def test_minimal_doc_parses(self):
        spec = parse_experiment(base_doc())
        assert spec.objective.name == "quartic"
        assert spec.master_seed == 0
        assert spec.optimizers[0].ranges.tau == (0.01, 0.1)

    def test_presets_roundtrip_through_json_doc(self):
        for name in PRESET_NAMES:
            for scale in SCALES:
                spec = experiment_preset(name, scale=scale, master_seed=5)
                assert parse_experiment(spec_to_doc(spec)) == spec

    def test_unknown_keys_carry_json_path(self):
        doc = base_doc()
        doc["bogus"] = 1
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            parse_experiment(doc)

        doc = base_doc()
        doc["objective"]["noise"] = 0.1
        with pytest.raises(ConfigError, match=r"\$\.objective\.noise"):
            parse_experiment(doc)

        doc = base_doc()
        doc["optimizers"][0]["ranges"]["beta"] = [0, 1]
        with pytest.raises(ConfigError, match=r"\$\.optimizers\[0\]\.ranges\.beta"):
            parse_experiment(doc)

    def test_missing_required_keys(self):
        for key in ("objective", "init", "optimizers", "iters"):
            doc = base_doc()
            del doc[key]
            with pytest.raises(ConfigError):
                parse_experiment(doc)

    def test_interval_shape_checked(self):
        doc = base_doc()
        doc["optimizers"][0]["ranges"]["tau"] = [0.01]
        with pytest.raises(ConfigError, match=r"interval"):
            parse_experiment(doc)

    def test_init_key_exclusivity(self):
        doc = base_doc()
        doc["init"] = {"kind": "box", "lo": 0.0, "hi": 1.0, "pattern": [1]}
        with pytest.raises(ConfigError, match="not allowed"):
            parse_experiment(doc)
        doc["init"] = {"kind": "pattern", "pattern": [1], "lo": 0.0}
        with pytest.raises(ConfigError, match="not allowed"):
            parse_experiment(doc)

    def test_type_errors_are_config_errors(self):
        doc = base_doc()
        doc["iters"] = 2.5
        with pytest.raises(ConfigError, match="integer"):
            parse_experiment(doc)
        doc = base_doc()
        doc["objective"]["dim"] = True
        with pytest.raises(ConfigError, match="number"):
            parse_experiment(doc)
        doc = base_doc()
        doc["objective"] = {"name": "camelback", "dim": 3}
        with pytest.raises(ConfigError, match="two-dimensional"):
            parse_experiment(doc)
        doc["objective"] = {"name": "rosenbrock", "dim": 1}
        with pytest.raises(ConfigError, match=r"^at \$\.objective: rosenbrock needs dim >= 2, got 1$"):
            parse_experiment(doc)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_nonpositive_dim_is_a_config_error(self, dim):
        doc = base_doc()
        doc["objective"]["dim"] = dim
        with pytest.raises(ConfigError, match=rf"^at \$\.objective: dim must be >= 1, got {dim}$"):
            parse_experiment(doc)

    def test_negative_objective_seed_is_a_config_error(self):
        doc = base_doc()
        doc["objective"] = {"name": "quadratic", "dim": 3, "seed": -1}
        with pytest.raises(ConfigError, match=r"^at \$\.objective: objective seed must be >= 0, got -1$"):
            parse_experiment(doc)

    def test_schedule_kinds_survive_a_dump(self):
        spec = experiment_preset("quartic")
        kinds = {"nag": "nag_k", "crgd": "crgd_t"}
        entries = tuple(dataclasses.replace(e, kind=kinds.get(e.kind, e.kind))
                        for e in spec.optimizers)
        spec = dataclasses.replace(spec, optimizers=entries)
        doc = spec_to_doc(spec)
        assert [set(e) for e in doc["optimizers"]] == [{"kind", "ranges"}] * 4
        assert [e["kind"] for e in doc["optimizers"]] == ["cm", "nag_k", "rgd", "crgd_t"]
        assert parse_experiment(doc) == spec

    def test_eigen_range_survives_a_dump_and_defaults_are_not_written(self):
        doc = base_doc()
        doc["objective"] = {"name": "quadratic", "dim": 3, "seed": 1, "eigen_lo": 0.5}
        spec = parse_experiment(doc)
        assert (spec.objective.eigen_lo, spec.objective.eigen_hi) == (0.5, 1.0)
        assert spec_to_doc(spec)["objective"] == doc["objective"]
        assert parse_experiment(spec_to_doc(spec)) == spec
        assert spec_to_doc(parse_experiment(base_doc()))["objective"] == {
            "name": "quartic", "dim": 3, "seed": 1}

    @pytest.mark.parametrize("objective, why", [
        ({"name": "quartic", "dim": 2, "eigen_hi": 2.0},
         r"eigen_lo and eigen_hi are the quadratic's, not quartic's"),
        ({"name": "quadratic", "dim": 2, "eigen_lo": 2.0},
         r"need 0 < eigen_lo <= eigen_hi < inf, got \[2.0, 1.0\]"),
        ({"name": "quadratic", "dim": 2, "eigen_lo": 0},
         r"need 0 < eigen_lo <= eigen_hi < inf, got \[0, 1.0\]"),
        ({"name": "quadratic", "dim": 2, "eigen_hi": math.inf},
         r"need 0 < eigen_lo <= eigen_hi < inf, got \[0.001, inf\]"),
    ], ids=["not-quadratic", "inverted", "zero", "infinite"])
    def test_eigen_range_is_checked_at_the_objective(self, objective, why):
        doc = base_doc()
        doc["objective"] = objective
        with pytest.raises(ConfigError, match=r"^at \$\.objective: " + why + "$"):
            parse_experiment(doc)

    def test_non_finite_init_is_a_config_error(self):
        for text in ('{"kind": "box", "lo": -Infinity, "hi": 1.0}',
                     '{"kind": "box", "lo": -1e308, "hi": 1e308}',
                     '{"kind": "pattern", "pattern": [NaN]}'):
            doc = base_doc()
            doc["init"] = json.loads(text)
            with pytest.raises(ConfigError, match=r"^at \$\.init: .*finite"):
                parse_experiment(doc)

    def test_unknown_kinds_name_the_valid_ones(self):
        doc = base_doc()
        doc["init"] = {"kind": "gaussian"}  # rejected before its keys are looked for
        with pytest.raises(ConfigError, match=r"^at \$\.init: .*'fixed', 'pattern' or 'box'"):
            parse_experiment(doc)
        doc = base_doc()
        doc["optimizers"][0]["kind"] = "adam"
        with pytest.raises(ConfigError, match=r"^at \$\.optimizers\[0\]: .*valid: gd, cm"):
            parse_experiment(doc)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_valid_doc_roundtrips(self, data):
        doc = data.draw(experiment_docs())
        spec = parse_experiment(doc)
        assert parse_experiment(spec_to_doc(spec)) == spec
        assert parse_experiment(json.loads(json.dumps(spec_to_doc(spec)))) == spec

    @pytest.mark.parametrize("kind, ranges, why", [
        ("cm", {"tau": [0.01, 0.1], "mu": [0.5, 1.5]}, r"mu interval \[0.5, 1.5\] must lie in \(0, 1\]"),
        ("cm", {"tau": [0.01, 0.1], "mu": [0.0, 0.5]}, r"mu interval \[0.0, 0.5\] must lie in \(0, 1\]"),
        ("rgd", {"epsilon": [0.1, 1], "mu": [0.5, 0.9], "delta": [-5, -1]},
         r"delta interval \[-5.0, -1.0\] must be non-negative"),
        ("gd", {"tau": [-1, -0.5]}, r"tau interval \[-1.0, -0.5\] needs a positive hi"),
        ("rgd", {"epsilon": [-1, 0], "mu": [0.5, 0.9], "delta": [0, 1]},
         r"epsilon interval \[-1.0, 0.0\] needs a positive hi"),
        ("gd", {"tau": [-1, 0.01]}, r"tau interval \[-1.0, 0.01\] must be non-negative"),
    ], ids=["mu-above-1", "mu-at-0", "delta-negative", "tau-nonpositive", "epsilon-nonpositive",
            "tau-negative-lo"])
    def test_interval_outside_its_domain_is_rejected_at_its_entry(self, kind, ranges, why):
        doc = base_doc()
        doc["optimizers"] = [{"kind": "gd", "ranges": {"tau": [0.01, 0.1]}},
                             {"kind": kind, "ranges": ranges}]
        with pytest.raises(ConfigError, match=r"^at \$\.optimizers\[1\]: " + why):
            parse_experiment(doc)

    def test_interval_may_touch_the_edge_of_its_domain(self):
        doc = base_doc()
        doc["optimizers"][0] = {"kind": "rgd",
                                "ranges": {"epsilon": [0, 1], "mu": [1, 1], "delta": [0, 0]}}
        ranges = parse_experiment(doc).optimizers[0].ranges
        assert (ranges.epsilon, ranges.mu, ranges.delta) == ((0.0, 1.0), (1.0, 1.0), (0.0, 0.0))

    def test_sampling_law_parsed_and_checked(self):
        doc = base_doc()
        doc["optimizers"][0]["sampling"] = {"tau": "log_uniform"}
        spec = parse_experiment(doc)
        assert spec.optimizers[0].ranges.law("tau") == "log_uniform"
        doc["optimizers"][0]["sampling"] = {"tau": "jeffreys"}
        with pytest.raises(ConfigError):
            parse_experiment(doc)


class TestPresets:
    def test_all_presets_build_at_both_scales(self):
        for name in PRESET_NAMES:
            for scale in SCALES:
                spec = experiment_preset(name, scale=scale)
                assert len(spec.optimizers) == 4
                kinds = [e.kind for e in spec.optimizers]
                assert kinds == ["cm", "nag", "rgd", "crgd"]

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown preset"):
            experiment_preset("styblinski")
        with pytest.raises(ValueError, match="scale"):
            experiment_preset("quartic", scale="huge")

    def test_init_override(self):
        override = InitSpec(kind="fixed", values=(5.0, 5.0))
        spec = experiment_preset("camelback", init=override)
        assert spec.init == override
