import importlib.util
import pathlib
import re

import pytest

from contactopt.checks import ORDER2_SLACK, ORDER4_SLACK
from contactopt.integrators import PLAN_NAMES

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIntegratorOrders:
    def test_strang_smoke(self, capsys):
        # the default plan list: every plan's observed order sits at the
        # design order printed beside it (jump6 reads 6.000)
        script = load_script("integrator_orders")
        assert script.main([]) == 0
        out = capsys.readouterr().out
        found = re.findall(r"(\S+)\s+observed order (\S+)  \(design order (\d+)\)", out)
        assert [name for name, _, _ in found] == list(PLAN_NAMES)
        for name, observed, design in found:
            slack = ORDER2_SLACK if design == "2" else ORDER4_SLACK
            assert abs(float(observed) - int(design)) <= slack, name

    def test_malformed_taus_are_a_usage_error(self, capsys):
        script = load_script("integrator_orders")
        with pytest.raises(SystemExit) as exc:
            script.main(["--plans", "strang", "--taus", "0.1,abc"])
        assert exc.value.code == 2
        assert "--taus" in capsys.readouterr().err

    def test_unknown_plan_is_a_usage_error(self, capsys):
        script = load_script("integrator_orders")
        with pytest.raises(SystemExit) as exc:
            script.main(["--plans", "nosuch"])
        assert exc.value.code == 2
        assert "valid names: strang, jump4, suzuki4, jump6" in capsys.readouterr().err
