"""The spectrum against theory: the Pöschl-Teller limit alpha -> 0.

With U = aR/c and alpha^2 = 2bc/a^2, L+/c = -d^2/dx^2/c + 1 - 6U
+ 6 alpha^2 U^2 and L-/c = -d^2/dx^2/c + 1 - 3U + 2 alpha^2 U^2.  As
alpha -> 0, U -> sech^2(z)/2 with z = sqrt(c) x/2, so L+/c -> (1/4)(-d^2/dz^2
- 12 sech^2 z) + 1 and L-/c -> (1/4)(-d^2/dz^2 - 6 sech^2 z) + 1:
Pöschl-Teller wells with l = 3 and 2, whose bound states are -(l - n)^2
(Pöschl and Teller, Z. Phys. 83, 1933).  L+ has -5c/4, 0 and 3c/4, L- has 0
and 3c/4, and the continuum starts at c.

First order in alpha^2: U = U0 + (alpha^2/2) U0 (1 - U0), so with s =
sech^2 z the potentials move by alpha^2 (-3s/2 + 9s^2/4) (L+) and
alpha^2 (-3s/4 + 7s^2/8) (L-).  Their expectations in the limit's
eigenfunctions (sech^3 z, sech^2 z tanh z and sech z (5 tanh^2 z - 1) for
L+; sech^2 z and sech z tanh z for L-) give the shifts 3/7, 0 and -3/35 of
L+ and 0 and -1/10 of L-, in units of c alpha^2; both kernels stay at 0.
"""

import math

import pytest

from kgstab import ModelParams, spectral_report

# c = m^2 - omega^2 = 1, b = 1 and a = sqrt(2)/alpha, so alpha_of_omega
# gives alpha; h = 0.01 keeps a report near 25 ms
_M, _OMEGA, _STEP = 3.0, math.sqrt(8.0), 0.01
# the centred difference's O(h^2) error at h = 0.01, from reports at h and
# h/2: at most 8.4e-6 of c (L+'s 3c/4 state; its ground state 2.9e-6)
_H_ERROR = 1e-5
# the alpha^4 remainders: at most 0.21 measured (L+'s ground state)
_C4 = 0.5
# the alpha^2 terms of the 3c/4 states: 3/35 (L+) and 1/10 (L-)
_C2 = 0.15


def _report(alpha):
    p = ModelParams(math.sqrt(2.0) / alpha, 1.0, _M)
    return spectral_report(p, _OMEGA, _STEP)


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05])
def test_bound_states_approach_the_poschl_teller_wells(alpha):
    report = _report(alpha)
    assert report.negative_count_lplus == 1
    assert report.negative_count_lminus == 0
    plus, minus = report.lplus_eigenvalues, report.lminus_eigenvalues
    remainder = _H_ERROR + _C4 * alpha**4
    assert abs(plus[0] - (-5.0 / 4.0 + 3.0 / 7.0 * alpha**2)) <= remainder
    for value in (plus[2], minus[1]):
        assert abs(value - 3.0 / 4.0) <= _H_ERROR + _C2 * alpha**2
    assert abs(plus[2] - (3.0 / 4.0 - 3.0 / 35.0 * alpha**2)) <= remainder
    assert abs(minus[1] - (3.0 / 4.0 - alpha**2 / 10.0)) <= remainder
