"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line (past the capture, so
the lines are visible in a plain pytest run) and then asserts.  The
bilinear kernel criterion is expected to fail as stated: a 40-term
partial sum of the product series carries a truncation tail above the
1e-9 tolerance at z = 0.6 for positive deformation; the printed line
reports the 80-term defect alongside so the closed form itself is seen
to be correct.  The analysis lives with the criterion's docstring.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from muhermite import verify
from muhermite.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(number, capsys):
    result = run_criterion(number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_frozen_points_are_the_seeded_draws():
    rng = np.random.default_rng(42)
    xs, ys = rng.uniform(-2.0, 2.0, 25), rng.uniform(-2.0, 2.0, 25)
    assert verify._KERNEL_POINTS == tuple(xs.tolist() + ys.tolist())
    rng = np.random.default_rng(42)
    assert verify._TRANSLATION_MAGS == tuple(rng.uniform(0.3, 2.2, (20, 2)).ravel().tolist())


def test_criteria_6_and_8_leave_numpy_random_unimported():
    # numpy.random costs a cold verify process about 16 ms of imports
    code = (
        "import sys\n"
        "from muhermite.verify import run_criterion\n"
        "run_criterion(6); run_criterion(8)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
