"""Lab-style configuration and derived physical parameters.

Converts mirror geometry, finesse, powers and wavelengths into the decay
rates, optorotational couplings and drive amplitudes the rest of the
package consumes.  All quantities are SI; angular frequencies in rad/s.

Conventions (fixed):
    kappa_i   = pi*c / (2*L*F_i)          amplitude half-linewidth, one-sided cavity
    g_i       = c*l_i / L                 optorotational coupling
    I         = M*R^2 / 2                 thin-disk moment of inertia
    gamma_phi = omega_phi / Q_phi
    eps_x     = sqrt(2*kappa*P_x / (hbar*omega_x))   photon-flux amplitude

The probe amplitude is evaluated at the drive frequency omega_1 rather than
omega_p; the relative error is Omega/omega_1 <~ 1e-7.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
HBAR = 1.054571817e-34  # J*s, 2019 SI

#: One row per plain configuration key: (config-file key, SystemConfig
#: attribute, check), the check being "positive", "non-negative", "finite"
#: or "integer".  Rows are in the order `validate` reports violations.
#: `drive2_wavelength` may also be None (same as drive 1).  The two
#: detuning-2 keys are a tagged choice, in DETUNING2_KEYS.
FIELDS = (
    ("mirror_radius_m", "mirror_radius", "positive"),
    ("mirror_mass_kg", "mirror_mass", "positive"),
    ("rotation_frequency_rad_s", "rotation_frequency", "positive"),
    ("quality_factor", "quality_factor", "positive"),
    ("cavity_length_m", "cavity_length", "positive"),
    ("finesse_1", "finesse1", "positive"),
    ("finesse_2", "finesse2", "positive"),
    ("drive1_wavelength_m", "drive1_wavelength", "positive"),
    ("drive2_wavelength_m", "drive2_wavelength", "positive"),
    ("drive1_power_w", "drive1_power", "non-negative"),
    ("drive2_power_w", "drive2_power", "non-negative"),
    ("probe_power_w", "probe_power", "non-negative"),
    ("charge_l1", "charge_l1", "integer"),
    ("charge_l2", "charge_l2", "integer"),
    ("detuning1_rad_s", "detuning1", "finite"),
)
#: config-file key -> Detuning2Spec mode; a config gives at most one
DETUNING2_KEYS = {"detuning2_effective_rad_s": "effective", "detuning2_bare_rad_s": "bare"}


def _check(check: str, val) -> str | None:
    """The violation message for `val` under `check`, or None if it passes."""
    if check == "integer":
        if isinstance(val, bool) or not isinstance(val, int):
            return f"topological charge must be an integer, got {val!r}"
    elif not isinstance(val, (int, float)) or isinstance(val, bool):
        return f"must be a finite number, got {val!r}"
    try:
        finite = math.isfinite(val)
    except OverflowError:  # an int beyond the float range, such as a JSON 10**400
        finite = False
    if not finite:
        return f"must be a finite number, got {val!r}"
    if check == "positive" and val <= 0:
        return f"must be strictly positive, got {val!r}"
    elif check == "non-negative" and val < 0:
        return f"must be non-negative, got {val!r}"
    return None


@dataclass(frozen=True)
class Detuning2Spec:
    """Tagged choice for how cavity 2's detuning is specified.

    mode "effective": value is the effective detuning Delta_2 (default 0,
    resonantly driven).  mode "bare": value is the bare detuning Delta_c2
    and the full two-variable self-consistency applies.
    """

    mode: str = "effective"
    value: float = 0.0

    def __post_init__(self):
        if self.mode not in ("effective", "bare"):
            raise ValueError(f"detuning2 mode must be 'effective' or 'bare', got {self.mode!r}")


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.message}"


@dataclass(frozen=True)
class SystemConfig:
    """Lab-style inputs for the double rotational-cavity system."""

    mirror_radius: float = 10e-6  # R [m]
    mirror_mass: float = 100e-12  # M [kg]
    rotation_frequency: float = 2 * math.pi * 10e6  # omega_phi [rad/s]
    quality_factor: float = 2e6  # Q_phi
    cavity_length: float = 5e-3  # L [m]
    finesse1: float = 5e4
    finesse2: float = 5e4
    drive1_power: float = 0.1e-6  # P1 [W]
    drive2_power: float = 0.1  # P2 [W]
    probe_power: float = 1e-13  # Pp [W]
    drive1_wavelength: float = 1064e-9  # lambda1 [m]
    drive2_wavelength: float | None = None  # defaults to lambda1
    detuning1: float = 2 * math.pi * 10e6  # bare Delta_c1 [rad/s], red-detuned
    detuning2: Detuning2Spec = field(default_factory=Detuning2Spec)
    charge_l1: int = 50
    charge_l2: int = 100

    @property
    def wavelength2(self) -> float:
        return self.drive1_wavelength if self.drive2_wavelength is None else self.drive2_wavelength


@dataclass(frozen=True)
class SystemParams:
    """Derived physical constants plus a copy of the originating config.

    Amplitudes eps1/eps2/eps_p are photon-flux amplitudes, sqrt(photons)/s.
    """

    kappa1: float
    kappa2: float
    g1: float
    g2: float
    inertia: float
    gamma_phi: float
    eps1: float
    eps2: float
    eps_p: float
    omega1: float
    omega2: float
    hbar: float
    light_speed: float
    config: SystemConfig

    @property
    def omega_phi(self) -> float:
        return self.config.rotation_frequency

    @property
    def detuning1(self) -> float:
        return self.config.detuning1

    @property
    def detuning2(self) -> Detuning2Spec:
        return self.config.detuning2


def validate(config: SystemConfig) -> list[Violation]:
    """Check every type invariant; returns an empty list iff the config is usable.

    Total function: never raises, names the offending field in each violation.
    """
    v = []
    for _, attr, check in FIELDS:
        val = getattr(config, attr)
        msg = None if val is None and attr == "drive2_wavelength" else _check(check, val)
        if msg:
            v.append(Violation(attr, msg))
    msg = _check("finite", config.detuning2.value)
    if msg:
        v.append(Violation("detuning2", msg))
    return v


def derive_params(config: SystemConfig) -> SystemParams:
    """Derive decay rates, couplings and drive amplitudes from a valid config.

    Deterministic and pure: identical configs give bit-identical SystemParams.

    Raises
    ------
    ConfigError
        if `validate(config)` reports any violation, or if valid inputs
        give a derived quantity that overflows, or underflows to 0 where it
        must not; the violation names the config keys it comes from.
    """
    violations = validate(config)
    if violations:
        raise ConfigError(violations)

    c = SPEED_OF_LIGHT
    L = config.cavity_length
    kappa1 = math.pi * c / (2.0 * L * config.finesse1)
    kappa2 = math.pi * c / (2.0 * L * config.finesse2)
    g1 = c * config.charge_l1 / L
    g2 = c * config.charge_l2 / L
    inertia = config.mirror_mass * config.mirror_radius**2 / 2.0
    gamma_phi = config.rotation_frequency / config.quality_factor
    omega1 = 2.0 * math.pi * c / config.drive1_wavelength
    omega2 = 2.0 * math.pi * c / config.wavelength2

    def flux_amplitude(kappa, power, omega):  # inf, not ZeroDivisionError, if h*omega underflows
        return math.sqrt(2.0 * kappa * power / (HBAR * omega)) if HBAR * omega > 0.0 else math.inf

    eps1 = flux_amplitude(kappa1, config.drive1_power, omega1)
    eps2 = flux_amplitude(kappa2, config.drive2_power, omega2)
    # probe frequency approximated by omega_1 (relative error Omega/omega_1)
    eps_p = flux_amplitude(kappa1, config.probe_power, omega1)
    # The model forms these squares and products: a valid config whose
    # extreme values make one overflow to inf, or a coupling vanish although
    # its charge does not, is refused here, naming the keys it comes from.
    w = config.rotation_frequency
    cavity1, cavity2 = ("cavity_length_m", "finesse_1"), ("cavity_length_m", "finesse_2")
    derived = (  # (name, value, config keys, must be positive)
        ("kappa1^2", kappa1 * kappa1, cavity1, False),
        ("kappa2^2", kappa2 * kappa2, cavity2, False),
        ("g1^2", g1 * g1, ("cavity_length_m", "charge_l1"), config.charge_l1 != 0),
        ("g2^2", g2 * g2, ("cavity_length_m", "charge_l2"), config.charge_l2 != 0),
        ("I*omega_phi^2", inertia * w * w,
         ("mirror_mass_kg", "mirror_radius_m", "rotation_frequency_rad_s"), True),
        ("gamma_phi", gamma_phi, ("rotation_frequency_rad_s", "quality_factor"), True),
        ("eps1^2", eps1 * eps1, ("drive1_power_w", *cavity1, "drive1_wavelength_m"), False),
        ("eps2^2", eps2 * eps2, ("drive2_power_w", *cavity2, "drive2_wavelength_m"), False),
        ("eps_p^2", eps_p * eps_p, ("probe_power_w", *cavity1, "drive1_wavelength_m"), False),
    )
    violations = [
        Violation(", ".join(keys),
                  f"gives {name} = {value!r}, not a finite{' positive' if positive else ''} number")
        for name, value, keys, positive in derived
        if not (math.isfinite(value) and (value > 0.0 or not positive))
    ]
    if violations:
        raise ConfigError(violations)
    return SystemParams(
        kappa1=kappa1,
        kappa2=kappa2,
        g1=g1,
        g2=g2,
        inertia=inertia,
        gamma_phi=gamma_phi,
        eps1=eps1,
        eps2=eps2,
        eps_p=eps_p,
        omega1=omega1,
        omega2=omega2,
        hbar=HBAR,
        light_speed=c,
        config=config,
    )


def canonical_dict(config: SystemConfig) -> dict:
    """Canonical key/value form of all physical inputs, SI units."""
    d = {}
    for key, attr, check in FIELDS:
        val = config.wavelength2 if attr == "drive2_wavelength" else getattr(config, attr)
        d[key] = int(val) if check == "integer" else float(val)
    d[f"detuning2_{config.detuning2.mode}_rad_s"] = float(config.detuning2.value)
    return d


def fingerprint(config: SystemConfig, *, mask_charge_l1: bool = False) -> str:
    """Stable hash of all physical inputs in canonical unit form.

    With `mask_charge_l1` the first topological charge is zeroed before
    hashing; calibration curves use this so that one fingerprint covers
    every charge on the curve.
    """
    d = canonical_dict(config)
    if mask_charge_l1:
        d["charge_l1"] = 0
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def config_from_dict(raw: dict) -> SystemConfig:
    """Build a SystemConfig from a canonical key/value mapping.

    Unknown keys are a hard error.  Integrality of the charges, the
    exclusivity of the two detuning-2 specifications and the finiteness of
    the one given are enforced here; everything else is left to `validate`.
    """
    keys = {key for key, _, _ in FIELDS} | set(DETUNING2_KEYS)
    violations = [Violation(key, "unknown configuration key") for key in sorted(set(raw) - keys)]
    if DETUNING2_KEYS.keys() <= raw.keys():
        violations.append(
            Violation("detuning2", "give either detuning2_effective_rad_s or detuning2_bare_rad_s, not both")
        )
    if violations:
        raise ConfigError(violations)

    kwargs = {}
    for key, attr, check in FIELDS:
        if key not in raw:
            continue
        val = raw[key]
        if check == "integer":
            if isinstance(val, float) and val.is_integer():
                val = int(val)
            msg = _check(check, val)
            if msg:
                violations.append(Violation(key, msg))
                continue
        kwargs[attr] = val
    for key, mode in DETUNING2_KEYS.items():
        if key in raw:
            msg = _check("finite", raw[key])
            if msg:
                violations.append(Violation(key, msg))
            else:
                kwargs["detuning2"] = Detuning2Spec(mode, float(raw[key]))
    if violations:
        raise ConfigError(violations)
    return SystemConfig(**kwargs)


def load_config(path) -> SystemConfig:
    """Read one JSON config document from `path`; unreadable JSON raises ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as err:  # malformed, not UTF-8, or an integer past 4300 digits
            raise ConfigError([Violation(f"config {path}", str(err))]) from None
    if not isinstance(raw, dict):
        raise ConfigError([Violation("<document>", "config file must contain a single JSON object")])
    return config_from_dict(raw)


def default_config(**overrides) -> SystemConfig:
    """Default lab configuration (weak-probe measurement regime)."""
    cfg = SystemConfig()
    return replace(cfg, **overrides) if overrides else cfg
