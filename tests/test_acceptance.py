"""End-to-end gate for the shipped guarantees.

Each criterion test prints one `criterion N: PASS/FAIL` line (collected
into the terminal summary by conftest) and then asserts, so a red criterion
is visible both as a failing test and as a labelled line.  The golden-output
fence at the end pins the bytes of the desk benchmarks at seed 42.
"""

import hashlib
import statistics
import time
from pathlib import Path

import pytest

from contactopt.checks import (
    check_conformal,
    check_dissipation,
    check_equivalence,
    check_specialization,
)
from contactopt.cli import main
from contactopt.harness import (
    estimate_rate,
    export_band_csv,
    export_trace_csv,
)
from contactopt.presets import experiment_preset


def _gaps(outcomes):
    return {oc.search.kind: oc.search.best_gap for oc in outcomes}


def _export_viable(outcomes, bands_path, traces_path):
    """Band and trace CSVs of the viable optimizers, as `contactopt bench`
    writes them."""
    viable = [oc for oc in outcomes if oc.search.viable]
    export_band_csv([oc.band for oc in viable], bands_path)
    export_trace_csv([r for oc in viable for r in oc.records], traces_path)


def test_criterion_01_every_map_is_conformal(acceptance):
    t0 = time.perf_counter()
    results = check_conformal(0)
    elapsed = time.perf_counter() - t0
    names = " ".join(r.name for r in results)
    covered = all(
        tok in names
        for tok in ("phi1", "phi2", "phi3", "time_shift", "strang", "jump4",
                    "nag_contact", "map_F")
    )
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and covered and elapsed < 10.0
    detail = (f"{len(results)} checks over 8 maps, worst deviation "
              f"{worst:.2e}, {elapsed:.1f}s")
    assert acceptance.record(1, ok, detail), detail


def test_criterion_02_integrator_orders(acceptance, order_check):
    results, _, elapsed = order_check
    ok = all(r.passed for r in results) and elapsed < 30.0
    detail = ("; ".join(f"{r.name} = {r.value:.3f}" for r in results)
              + f"; {elapsed:.1f}s")
    assert acceptance.record(2, ok, detail), detail


def test_criterion_03_discrete_update_equals_splitting_step(acceptance):
    t0 = time.perf_counter()
    results = check_equivalence(0)
    elapsed = time.perf_counter() - t0
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and elapsed < 5.0
    detail = (f"worst deviation {worst:.2e} over 100 states x 10 parameter "
              f"draws, {elapsed:.1f}s")
    assert acceptance.record(3, ok, detail), detail


def test_criterion_04_dissipation_identity(acceptance):
    results = check_dissipation(0)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name} = {r.value:.2e}" for r in results)
    assert acceptance.record(4, ok, detail), detail


def test_criterion_05_field_specializations(acceptance):
    results = check_specialization(0)
    ok = all(r.passed for r in results)
    worst = max(r.value for r in results)
    detail = f"{len(results)} specializations, worst residual {worst:.2e}"
    assert acceptance.record(5, ok, detail), detail


def test_criterion_06_rate_estimator_recovers_planted_exponents(acceptance):
    worst_rel = 0.0
    for p in (0.5, 3.0, 18.22, 116.19):
        trace = [1.0] + [2.3 * k ** (-p) for k in range(1, 301)]
        est = estimate_rate(trace, (150, 300))
        worst_rel = max(worst_rel, abs(est - p) / p)
    ok = worst_rel <= 1e-3
    detail = (f"worst relative error {worst_rel:.2e} for exponents "
              f"0.5, 3, 18.22, 116.19")
    assert acceptance.record(6, ok, detail), detail


# Criterion 7 gates the order of the tuned methods at a fixed seed set: the
# pinned seed and the next two.  How far RGD/CRGD lead, and whether CRGD
# beats RGD, move with the best-of-300 random-search draw (the NAG legs span
# 14x to 206x over 15 master seeds), so those are reported, not gated.
QUARTIC_SEEDS = (42, 43, 44)
_RELATIVISTIC = ("rgd", "crgd")
_CLASSICAL = ("cm", "nag")


def test_criterion_07_quartic_benchmark_margins(acceptance, desk_bench):
    ceiling = {e.kind: e.ranges.epsilon[1]
               for e in experiment_preset("quartic", scale="desk").optimizers
               if e.kind in _RELATIVISTIC}
    legs = {(r, c): [] for c in _CLASSICAL for r in _RELATIVISTIC}
    problems, per_seed = [], []
    n_ordered = 0
    for seed in QUARTIC_SEEDS:
        outcomes, elapsed = desk_bench("quartic", seed)
        gaps = _gaps(outcomes)
        for r, c in legs:
            legs[r, c].append(gaps[c] / gaps[r])
            if not gaps[r] < gaps[c]:
                problems.append(
                    f"seed {seed}: {r} {gaps[r]:.2e} !< {c} {gaps[c]:.2e}")
        if not elapsed < 300.0:
            problems.append(f"seed {seed}: {elapsed:.0f}s (needs < 300s)")
        n_ordered += gaps["crgd"] <= gaps["rgd"]
        best = {oc.search.kind: oc.search.best_params for oc in outcomes}
        eps = ", ".join(f"{r} {best[r]['epsilon'] / ceiling[r]:.2f}"
                        for r in _RELATIVISTIC if best[r])
        per_seed.append(
            f"seed {seed}: "
            + ", ".join(f"{r}/{c} {v[-1]:.1f}x" for (r, c), v in legs.items())
            + f", eps/ceiling {eps}, {elapsed:.0f}s")
    ok = not problems
    seeds = ", ".join(map(str, QUARTIC_SEEDS))
    detail = (
        (f"rgd and crgd below cm and nag at seeds {seeds}" if ok
         else "; ".join(problems))
        + "; reported, not gated: " + "; ".join(per_seed)
        + "; medians "
        + ", ".join(f"{r}/{c} {statistics.median(v):.1f}x"
                    for (r, c), v in legs.items())
        + f"; crgd <= rgd at {n_ordered}/{len(QUARTIC_SEEDS)} seeds"
    )
    assert acceptance.record(7, ok, detail), detail


def test_criterion_08_camelback_basin_escape(acceptance, desk_bench):
    outcomes, elapsed = desk_bench("camelback", 42)
    gaps = _gaps(outcomes)
    ok = (gaps["rgd"] < 0.05 and gaps["crgd"] < 0.05
          and gaps["cm"] >= 0.25 and gaps["nag"] >= 0.25
          and elapsed < 180.0)
    detail = (f"rgd {gaps['rgd']:.2e}, crgd {gaps['crgd']:.2e} (need < 0.05); "
              f"cm {gaps['cm']:.3f}, nag {gaps['nag']:.3f} (need >= 0.25); "
              f"{elapsed:.0f}s")
    assert acceptance.record(8, ok, detail), detail


def test_criterion_09_quadratic_bands_trend_down(acceptance, desk_bench):
    outcomes, elapsed = desk_bench("quadratic", 42)
    problems = []
    for oc in outcomes:
        kind = oc.search.kind
        band = oc.band
        if band is None:
            problems.append(f"{kind}: no viable parameters")
            continue
        med = band.median
        if not all(a <= m <= b
                   for a, m, b in zip(band.q025, med, band.q975)):
            problems.append(f"{kind}: band ordering violated")
        ups = sum(1 for a, b in zip(med, med[1:]) if b > 1.1 * a)
        if ups > 0.05 * (len(med) - 1):
            problems.append(f"{kind}: {ups} median up-steps")
        if not med[-1] <= 1e-2 * med[0]:
            problems.append(
                f"{kind}: median ends at {med[-1]:.2e} from {med[0]:.2e}")
    ok = not problems and elapsed < 180.0
    detail = (("all four bands ordered, monotone-trending, and down >= 100x"
               if not problems else "; ".join(problems))
              + f"; {elapsed:.0f}s")
    assert acceptance.record(9, ok, detail), detail


def test_criterion_10_bench_cli_is_deterministic(acceptance, desk_bench,
                                                 tmp_path):
    # one CLI bench, compared with the CSVs of the separate seed-42 run that
    # criterion 7 already made, kept to viable optimizers as the CLI does
    paths = {name: str(tmp_path / f"{name}.csv")
             for name in ("cli_bands", "cli_traces", "lib_bands", "lib_traces")}
    rc = main([
        "bench", "--preset", "quartic", "--scale", "desk", "--seed", "42",
        "--out", paths["cli_bands"], "--traces", paths["cli_traces"],
    ])
    assert rc == 0
    outcomes, _ = desk_bench("quartic", 42)
    _export_viable(outcomes, paths["lib_bands"], paths["lib_traces"])
    blobs = {name: Path(path).read_bytes() for name, path in paths.items()}
    ok = (blobs["cli_bands"] == blobs["lib_bands"]
          and blobs["cli_traces"] == blobs["lib_traces"])
    detail = ("band and trace CSVs of `contactopt bench` byte-identical to "
              "a separate run_bench at seed 42" if ok
              else "outputs differ between the two runs")
    assert acceptance.record(10, ok, detail), detail


# Golden-output fence: sha256 of the desk band and trace CSVs at seed 42.
# A change that moves any output bit must re-pin these on purpose and say
# why in CHANGES.md.  Quartic, camelback and rosenbrock use elementwise
# IEEE arithmetic, row sums and libm's pow only, so their digests do not
# depend on the CPU.  The quadratic runs in its eigenbasis with the same
# arithmetic, and each start is rotated into it by applying the drawn
# Householder reflectors with elementwise products and row sums; but each
# of its draws goes through LAPACK's QR, whose reflectors may round
# differently with the LAPACK build and the CPU it dispatches for.
GOLDEN_DESK_SEED_42 = {
    "quadratic": (
        "bd46932ec17a3ee3ef98290343a3231ecaa1856e20f49bf628b06d4ab0174acd",
        "ec49a26167588a16d39f59816903d671dba47f6f38ddad0740a499314a9e6c95",
    ),
    "quartic": (
        "d206dc10eb6a3c68d6f754fac596b2c3959f94e9d5e148de24e2d518dc3a8f0d",
        "6f638c56c8116457fd7c335493228126e0adfcfc81049e4d6f1d8accdc1b9f70",
    ),
    "camelback": (
        "c71859daea303d696d35bcf435d30079d6f049b1ea310df5bebed3ac041b1880",
        "a2e404ac0f592f57e54ff850a1a849c9c10631601add320ba4fd2d030ad47c8e",
    ),
    "rosenbrock": (
        "9dbabd05710020fcda642afcde9e824a04c82482129ca155015138add15d04ce",
        "a73162a3da5de738eb794125cd209b8dca1e620bbc8e041a4a33f80579a10b9d",
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_DESK_SEED_42))
def test_golden_desk_outputs(preset, desk_bench, tmp_path):
    outcomes, _ = desk_bench(preset, 42)
    bands, traces = tmp_path / "bands.csv", tmp_path / "traces.csv"
    _export_viable(outcomes, str(bands), str(traces))
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (bands, traces))
    assert digests == GOLDEN_DESK_SEED_42[preset]
