"""Independent reference model used by the output checks.

Everything here is derived from the formulas documented in the README
(section "Model"), not from the package: decay rates, couplings and
drive amplitudes from the config, the steady state as a bracketed root
of the documented fixed-point relation, and c1+ by eliminating the
six-amplitude sideband system by hand.  The checks compare the CLI's
outputs against these numbers, so a fault shared by the package's
linear solve and its own closed form cannot hide.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

C = 299792458.0
HBAR = 1.054571817e-34


class Model:
    """Derived constants of one config document (canonical JSON keys)."""

    def __init__(self, cfg: dict):
        if "detuning2_bare_rad_s" in cfg:
            raise ValueError("the reference model covers effective detuning-2 configs only")
        L = cfg["cavity_length_m"]
        lam1 = cfg["drive1_wavelength_m"]
        lam2 = cfg.get("drive2_wavelength_m", lam1)
        self.omega_phi = cfg["rotation_frequency_rad_s"]
        self.k1 = math.pi * C / (2.0 * L * cfg["finesse_1"])
        self.k2 = math.pi * C / (2.0 * L * cfg["finesse_2"])
        self.g1 = C * cfg["charge_l1"] / L
        self.g2 = C * cfg["charge_l2"] / L
        self.inertia = cfg["mirror_mass_kg"] * cfg["mirror_radius_m"] ** 2 / 2.0
        self.gamma = self.omega_phi / cfg["quality_factor"]
        om1 = 2.0 * math.pi * C / lam1
        om2 = 2.0 * math.pi * C / lam2
        self.eps1 = math.sqrt(2.0 * self.k1 * cfg["drive1_power_w"] / (HBAR * om1))
        self.eps2 = math.sqrt(2.0 * self.k2 * cfg["drive2_power_w"] / (HBAR * om2))
        self.eps_p = math.sqrt(2.0 * self.k1 * cfg["probe_power_w"] / (HBAR * om1))
        self.dc1 = cfg["detuning1_rad_s"]
        self.d2 = cfg.get("detuning2_effective_rad_s", 0.0)
        self._steady()

    def _rhs(self, phi: float) -> float:
        d1 = self.dc1 + self.g1 * phi
        n1 = self.eps1**2 / (self.k1**2 + d1 * d1)
        n2 = self.eps2**2 / (self.k2**2 + self.d2 * self.d2)
        return HBAR * (-self.g1 * n1 + self.g2 * n2) / (self.inertia * self.omega_phi**2)

    def _steady(self) -> None:
        """phi = hbar*(-g1*N1 + g2*N2)/(I*omega_phi^2), by bracketed root search.

        |rhs| never exceeds `amp`, so phi - rhs(phi) changes sign on
        [-2*amp, 2*amp]; the workloads are monostable, so the root is unique.
        """
        amp = HBAR * (
            abs(self.g1) * self.eps1**2 / self.k1**2 + abs(self.g2) * self.eps2**2 / self.k2**2
        ) / (self.inertia * self.omega_phi**2)
        if amp == 0.0:
            phi = 0.0
        else:
            phi = brentq(lambda p: p - self._rhs(p), -2.0 * amp, 2.0 * amp,
                         xtol=1e-300, rtol=8.9e-16, maxiter=500)
        self.phi = phi
        self.delta1 = self.dc1 + self.g1 * phi
        self.c1s = self.eps1 / complex(self.k1, self.delta1)
        self.c2s = self.eps2 / complex(self.k2, self.d2)
        self.n1 = abs(self.c1s) ** 2
        self.n2 = abs(self.c2s) ** 2

    def c1_plus(self, omega):
        """c1+ at probe detuning(s) Omega, eliminated from the linearized equations.

        The two mechanical rows coincide apart from their phi column, so
        phi+ = phi-*; the cavity rows give each cavity sideband in terms of
        phi+, and the mechanical row then closes on phi+ alone.
        """
        om = np.asarray(omega, dtype=float)
        a1 = self.k1 + 1j * (self.delta1 - om)
        b1 = self.k1 - 1j * (self.delta1 + om)
        a2 = self.k2 + 1j * (self.d2 - om)
        b2 = self.k2 - 1j * (self.d2 + om)
        hg1 = HBAR * self.g1 / self.inertia
        hg2 = HBAR * self.g2 / self.inertia
        mech = self.omega_phi**2 - om**2 - 1j * self.gamma * om
        den = (mech + 1j * hg1 * self.g1 * self.n1 * (1.0 / b1 - 1.0 / a1)
               + 1j * hg2 * self.g2 * self.n2 * (1.0 / b2 - 1.0 / a2))
        phi_p = -hg1 * np.conj(self.c1s) * self.eps_p / (a1 * den)
        return (self.eps_p - 1j * self.g1 * self.c1s * phi_p) / a1

    def transmission(self, x):
        """T = |1 - 2*kappa1*c1+/eps_p|^2 at x = (Omega - omega_phi)/omega_phi."""
        c1p = self.c1_plus(self.omega_phi * (1.0 + np.asarray(x, dtype=float)))
        return np.abs(1.0 - 2.0 * self.k1 * c1p / self.eps_p) ** 2
