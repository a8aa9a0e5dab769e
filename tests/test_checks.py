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

