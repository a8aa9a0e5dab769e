import importlib.util
import pathlib
import re

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIntegratorOrders:
    def test_strang_smoke(self, capsys):
        script = load_script("integrator_orders")
        assert script.main(["--plans", "strang", "--taus", "0.1,0.05"]) == 0
        out = capsys.readouterr().out
        order = float(re.search(r"strang\s+observed order (\S+)", out).group(1))
        assert abs(order - 2.0) <= 0.1

    def test_malformed_taus_are_a_usage_error(self, capsys):
        script = load_script("integrator_orders")
        with pytest.raises(SystemExit) as exc:
            script.main(["--plans", "strang", "--taus", "0.1,abc"])
        assert exc.value.code == 2
        assert "--taus" in capsys.readouterr().err
