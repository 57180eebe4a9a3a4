import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import oneside_levy
from test_symbol import tempered_custom

SRC = os.path.dirname(os.path.dirname(oneside_levy.__file__))

# quadrature for custom symbols, varphi_inverse's root finder and the scale
# series' FFT each load their scipy module on first use
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.fft")

PRELUDE = ("import math\n"
           "import numpy as np\n"
           "from oneside_levy.grunwald import compute_coeffs\n"
           "from oneside_levy.scale import frac_integral_grid\n"
           "from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec\n"
           + inspect.getsource(tempered_custom))


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal pulls in scipy.stats, which costs every CLI run, test
    # process and benchmark worker most of a second at import
    code = ("import sys, oneside_levy; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
            "if m in sys.modules))")
    assert _fresh(code).strip() == "[]"


def test_import_leaves_out_quadrature_roots_and_fft():
    # the Monte Carlo route and the stable/tempered generators use none of
    # them, so a CLI run or benchmark worker should not pay for them
    mods = LAZY + ("scipy.signal", "scipy.stats")
    code = ("import sys, oneside_levy, oneside_levy.cli, oneside_levy.mc, "
            "oneside_levy.paths, oneside_levy.scale; "
            f"print(sorted(m for m in {mods!r} if m in sys.modules))")
    assert _fresh(code).strip() == "[]"


@pytest.mark.parametrize("module, expr", [
    ("scipy.integrate",
     "LaplaceExponent(tempered_custom(1.5, 2.0)).psi(3.0)"),
    ("scipy.integrate", "compute_coeffs("
     "LaplaceExponent(tempered_custom(1.5, 2.0)), 0.5, 8).g"),
    ("scipy.optimize",
     "LaplaceExponent(LevyMeasureSpec.stable(1.5)).varphi_inverse(0.1, 3.0)"),
    ("scipy.fft",
     "frac_integral_grid(np.linspace(0.0, 1.0, 17) ** 0.5, 1 / 16, 0.5)"),
], ids=["psi", "compute_coeffs", "varphi_inverse", "frac_integral_grid"])
def test_first_use_loads_its_module_with_the_same_bits(module, expr):
    # a fresh interpreter, so a missing import fails here even when an
    # earlier test in this process has already loaded the module
    code = (PRELUDE + "import sys\n"
            f"assert {module!r} not in sys.modules\n"
            f"r = {expr}\n"
            f"assert {module!r} in sys.modules\n"
            "print(np.asarray(r, dtype=float).tobytes().hex())\n")
    ns = {}
    exec(PRELUDE, ns)
    here = eval(expr, ns)
    assert _fresh(code).strip() == np.asarray(here, dtype=float).tobytes().hex()
