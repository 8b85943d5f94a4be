"""Named verification suites and the shared rate study."""

import numpy as np
import pytest

from iadmm.errors import ConfigError
from iadmm.suites import run_suite, tail_row

INNER_NAMES = ({"inner-estimate-%s-%d" % (rule, s)
                for rule in ("constant", "adaptive") for s in range(6)}
               | {"xi-coupling-constant", "xi-coupling-adaptive"})


@pytest.mark.parametrize("suite,names", [
    ("inner", INNER_NAMES),
    ("decay", {"energy-decay"}),
    ("ergodic", {"ergodic-gap", "ergodic-slope"}),
    ("strong", {"weighted-gap", "y-error", "gamma-growth-block1", "gamma-growth-block2",
                "weighted-gap-slope", "y-error-slope"}),
    ("linear", {"two-step-tail-max", "terminated"}),
])
def test_suite_rows_pass_on_defaults(suite, names):
    # the slope and tail rows come from the rate study that ``rates`` writes
    rows = run_suite(suite)
    assert {r.name for r in rows} == names
    assert [r.name for r in rows if not r.passed] == []


def test_tail_row_fails_a_flat_energy():
    # a ratio of exactly one is no contraction
    series, lo, hi, value, threshold, ok = tail_row(np.ones(80))
    assert (series, lo, hi, value, threshold) == ("two-step-tail-max", 28, 80, 1.0, 1.0)
    assert not ok
    assert tail_row(np.ones(2)) is None


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
def test_run_suite_refuses_a_seed_that_is_no_count(seed):
    # numpy's generator refused a fractional seed with a bare TypeError, a
    # string failed the sign test with another, and True ran as seed 1
    with pytest.raises(ConfigError, match="seed"):
        run_suite("inner", seed=seed)
