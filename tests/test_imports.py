import os
import subprocess
import sys

import oneside_levy


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal pulls in scipy.stats, which costs every CLI run, test
    # process and benchmark worker most of a second at import
    src = os.path.dirname(os.path.dirname(oneside_levy.__file__))
    code = ("import sys, oneside_levy; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
