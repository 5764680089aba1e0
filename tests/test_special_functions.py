import math

import numpy as np
import pytest

from conftest import mp_hyp1f2_brute
from ris_outage import NoConvergence
from ris_outage.special import _hyp1f2_diag


def hyp1f2(a, b1, b2, z):
    """The value of the 1F2 sum behind the closed forms."""
    return _hyp1f2_diag(a, b1, b2, z)[0]


# 50-digit references, frozen from an extended-precision evaluation
HYP1F2_CASES = [
    # (a, b1, b2, z, 800-term extended-precision sum)
    (0.7, 1.3, 2.1, 2.5, 1.8674527633548660661055960139386525604287929901039),
    (1.5, 2.5, 0.5, -3.0, -0.70295851041234969694017756055052048372832248964182),
    (0.25, 1.75, 3.25, 10.0, 1.7945639547805116132224963781059765393757814163319),
]


class TestHyp1F2:
    def test_empty_series(self):
        assert hyp1f2(0.3, 1.2, 3.4, 0.0) == 1.0

    def test_bessel_i0_reduction(self):
        # 1F2(1; 1, 1; z) = sum z^n / (n!)^2 = I_0(2 sqrt(z))
        import scipy.special as sc

        for z in (0.1, 1.0, 4.0, 25.0):
            assert hyp1f2(1.0, 1.0, 1.0, z) == pytest.approx(
                float(sc.i0(2.0 * math.sqrt(z))), rel=1e-12
            )

    @pytest.mark.parametrize("a,b1,b2,z,expected", HYP1F2_CASES)
    def test_extended_precision_reference(self, a, b1, b2, z, expected):
        assert hyp1f2(a, b1, b2, z) == pytest.approx(expected, rel=1e-11)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.1, 5.0)
            b1 = rng.uniform(0.2, 6.0)
            b2 = rng.uniform(0.2, 6.0)
            z = rng.uniform(-8.0, 8.0)
            ref = float(mp_hyp1f2_brute(a, b1, b2, z))
            assert hyp1f2(a, b1, b2, z) == pytest.approx(ref, rel=1e-10)

    def test_continuity_in_z(self):
        delta = 1e-6
        for z in np.linspace(-4.0, 4.0, 17):
            f1 = hyp1f2(0.8, 1.4, 2.2, z)
            f2 = hyp1f2(0.8, 1.4, 2.2, z + delta)
            assert abs(f2 - f1) < 1e-4 * max(1.0, abs(f1))

    def test_no_convergence(self):
        # the terms overflow after a few dozen steps; the series stops
        # there instead of summing NaN up to its term cap
        with pytest.raises(NoConvergence, match="overflow"):
            hyp1f2(2.0, 1.0, 1.0, 1e30)

    def test_pure(self):
        args = (0.7, 1.3, 2.1, 2.5)
        assert hyp1f2(*args) == hyp1f2(*args)
