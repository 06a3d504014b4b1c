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
"""

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
from .pricing import (Policy, RadicandNegative, indifference_price,
                      insurance_bounds, insurance_rate, insurance_rate_h_form,
                      optimal_policy, protected_policy, short_horizon_curve,
                      zero_rate_position)
from .assumptions import (AssumptionEntry, AssumptionReport, CIRMomentBound,
                          DriftChangedCIR, WindowViolation,
                          check_cir_integrability, check_model,
                          check_ou_integrability, check_static_assumptions,
                          cir_moment_bound, drift_changed_cir)
from .montecarlo import (MCEstimate, Noise, PathBundle, SimConfig,
                         draw_noise, dual_density_terminal,
                         estimate_certainty_equivalent, estimate_dual_value,
                         estimate_martingale_mass, simulate_policies)

__version__ = "0.1.0"
