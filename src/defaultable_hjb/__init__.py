"""Optimal investment with a defaultable asset.

Numerical engine for the certainty-equivalent HJB equation, defaultable
bond indifference prices, dynamic default-insurance rates, assumption
certification, and an independent Monte Carlo verification oracle.
"""

from .backends import backend_name
from .lambertw import (ThetaCompositeArgs, ThetaDomainError, theta,
                       theta_composite, theta_composite_args,
                       theta_derivative, theta_of_log)
from .model import (CIRParams, ClaimSpec, Domain1D, LocalizationSpec,
                    ModelError, ModelSpec, OUParams, Preferences, bond_claim,
                    build_localization, default_truncation, invariant_band,
                    make_cir_model, make_custom_model, make_ou_model,
                    make_tabulated_model, market_price_of_risk,
                    nested_subdomain, paper_cir_params, table_claim,
                    zero_claim)
from .solver import (GridSpec, NewtonDivergence, SolverOptions, Surface,
                     bilinear_interp, central_gradient, default_grid,
                     hjb_rhs, residual, solve_full, solve_local,
                     solve_local_chi, solve_protected)
from .pricing import (Policy, PricingResult, RadicandNegative,
                      indifference_price, insurance_bounds, insurance_rate,
                      insurance_rate_h_form, insurance_rate_short_horizon,
                      insurance_rate_upper_branch, optimal_policy,
                      pricing_result, protected_policy, short_horizon_curve,
                      zero_rate_position)
from .assumptions import (AssumptionEntry, AssumptionReport, CIRMomentBound,
                          DriftChangedCIR, WindowViolation,
                          check_cir_integrability, check_model,
                          check_ou_integrability, check_static_assumptions,
                          cir_moment_bound, drift_changed_cir,
                          mc_cir_weight_probe, mc_integrability_probe)
from .montecarlo import (MCEstimate, PathBundle, SimConfig,
                         dual_density_terminal,
                         estimate_certainty_equivalent, estimate_dual_value,
                         estimate_martingale_mass, mc_exponential_functional,
                         pool_estimates, replay_policies, replay_policy,
                         simulate_default, simulate_dual_density,
                         simulate_factor)

__version__ = "0.1.0"
