import numpy as np
import pytest

import defaultable_hjb as dh


@pytest.fixture(scope="session")
def paper_model():
    return dh.make_cir_model(dh.paper_cir_params())


@pytest.fixture(scope="session")
def paper_pref():
    return dh.Preferences(alpha=3.0, horizon_T=1.0)


@pytest.fixture(scope="session")
def paper_grid(paper_model, paper_pref):
    return dh.default_grid(paper_model, paper_pref, n_space=400, n_time=400)


@pytest.fixture(scope="session")
def G_zero(paper_model, paper_pref, paper_grid):
    """Paper CIR solve with no claim."""
    return dh.solve_full(paper_model, dh.zero_claim(), paper_pref, paper_grid)


@pytest.fixture(scope="session")
def bond_surfaces(paper_model, paper_pref, paper_grid):
    """Paper CIR solves holding q defaultable bonds, q in {1, 3, 5, 10}."""
    qs = (1.0, 3.0, 5.0, 10.0)
    return dict(zip(qs, dh.solve_claims(paper_model,
                                        [dh.bond_claim(q) for q in qs],
                                        paper_pref, paper_grid)))


@pytest.fixture(scope="session")
def constant_model():
    """mu=2, sigma=1, gamma=1, rho=0, b=0, A=1 on (-5, 5)."""
    def const(c):
        return lambda x: c * np.ones_like(np.asarray(x, dtype=float))

    return dh.make_custom_model(dh.Domain1D(-5.0, 5.0), b=const(0.0),
                                A=const(1.0), mu=const(2.0), sigma=const(1.0),
                                rho=const(0.0), gamma=const(1.0))
