import contextlib

import contactopt.checks as checks
from contactopt.checks import fit_order, order_errors


def test_order_check_integrates_one_reference_per_step_size(order_check):
    results, calls, _ = order_check
    assert all(r.passed for r in results)
    # the three plans share each reference: one per tau, not one per plan and tau
    assert calls == [tau / 100.0 for tau in (0.1, 0.05, 0.025, 0.0125)]


def test_order_errors_per_plan():
    taus = (0.1, 0.05)
    both = order_errors(["strang", "jump4"], taus)
    assert set(both) == {"strang", "jump4"}
    assert both["strang"] == order_errors(["strang"], taus)["strang"]
    assert abs(fit_order(taus, both["strang"]) - 2.0) <= 0.1


class _Stop(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stop


def test_no_two_families_or_seeds_share_an_objective(monkeypatch):
    # Every family builds its random quadratics before its first RK4
    # reference, so it stops there: the builds are all recorded and the
    # integrations, which take most of a check run, are skipped.
    built = {}  # (seed, dim, eigen_lo, eigen_hi) -> {(master seed, family)}
    real = checks.make_random_quadratic
    monkeypatch.setattr(checks, "reference_integrate", _stop)
    for seed in (0, 4, 21):
        for family in checks.CHECK_FAMILIES:
            def counting(*args, pair=(seed, family)):
                built.setdefault(args, set()).add(pair)
                return real(*args)

            monkeypatch.setattr(checks, "make_random_quadratic", counting)
            with contextlib.suppress(_Stop):
                checks.run_checks([family], seed=seed)
    shared = {args: sorted(pairs) for args, pairs in built.items() if len(pairs) > 1}
    assert shared == {}
