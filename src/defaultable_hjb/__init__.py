"""Optimal investment with a defaultable asset.

Numerical engine for the paper's named quantities; the exports are
grouped by the quantity they serve.

* The product-log theta, the nonlinearity of the certainty-equivalent
  equation: ``theta``, ``theta_of_log``.
* The model (factor, asset coefficients, claims, preferences, the
  localization E_n and chi_n): ``make_cir_model``, ``make_ou_model``,
  ``make_custom_model``, ``paper_cir_params``, ``bond_claim``, ...
* The certainty equivalent G, solved in full, local and protected
  modes: ``solve_full``, ``solve_local``, ``solve_protected``, and for
  several claims at once ``solve_claims``, with
  ``Surface``, ``GridSpec``, ``default_grid`` and the stepping
  ``residual``.
* Indifference prices of defaultable bonds, the optimal position, and
  the dynamic insurance rate with its upper bound and sign indicator:
  ``indifference_price``, ``optimal_policy``, ``insurance_rate``,
  ``insurance_bounds``, ``protected_policy``, ``short_horizon_curve``.
* The standing assumptions, certified in closed form: ``check_model``
  and the checks it runs.
* The Monte Carlo verification of G through the primal certainty
  equivalent and the dual density Z: ``draw_noise`` and
  ``simulate_policies`` (factor, default and wealth in one time loop),
  ``dual_density_terminal`` and the estimators.

The last two groups are resolved on first access: their modules
(``assumptions``, ``montecarlo``) are loaded, and without a bytecode
cache compiled, only by the first use of one of their names, so that
``solve``, ``price-bond`` and ``price-insurance`` never load them.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .lambertw import ThetaDomainError, theta, theta_of_log
from .model import (CIRParams, ClaimSpec, Domain1D, LocalizationSpec,
                    ModelError, ModelSpec, OUParams, Preferences, bond_claim,
                    build_localization, default_truncation, invariant_band,
                    make_cir_model, make_custom_model, make_ou_model,
                    market_price_of_risk, nested_subdomain, paper_cir_params,
                    zero_claim)
from .solver import (GridSpec, NewtonDivergence, SolverOptions, Surface,
                     default_grid, residual, solve_claims, solve_full,
                     solve_local, solve_protected)
from .pricing import (RadicandNegative, indifference_price, insurance_bounds,
                      insurance_rate, insurance_rate_h_form, optimal_policy,
                      protected_policy, short_horizon_curve,
                      zero_rate_position)

# module -> its public names, imported on the first access to one of them
# or to the module itself (PEP 562)
_LAZY = {
    "assumptions": ("AssumptionEntry", "AssumptionReport", "CIRMomentBound",
                    "DriftChangedCIR", "WindowViolation",
                    "check_cir_integrability", "check_model",
                    "check_ou_integrability", "check_static_assumptions",
                    "cir_moment_bound", "drift_changed_cir"),
    "montecarlo": ("MCEstimate", "Noise", "PathBundle", "SimConfig",
                   "draw_noise", "dual_density_terminal",
                   "estimate_certainty_equivalent", "estimate_dual_value",
                   "estimate_martingale_mass", "simulate_policies"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + list(_HOME))


def __getattr__(name):
    if name in _LAZY:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))
