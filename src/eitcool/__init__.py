"""Lindblad simulation and closed-form analytics for optical EIT cooling of a
nanomechanical cantilever coupled to an NV center by a magnetic field gradient."""

__version__ = "0.1.0"

from .analytics import (RateReport, SpectrumSeries, absorption_spectrum,
                        analytic_trajectory, correlation_transform_closed_form,
                        fluctuation_spectrum, rate_in_khz, rates,
                        rates_at_optimum, steady_phonon_terms, thermal_occupation)
from .effective import (EffectiveRates, effective_pump_rates,
                        renormalized_decays, stark_shift)
from .nvmodel import (DressedStateReport, build_four_level_model,
                      build_seven_level_model, build_three_level_model,
                      dark_state_vector, dressed_states, lamb_dicke_from_physical,
                      optimal_detuning, rotating_hamiltonian)
from .operators import (DensityMatrix, DimensionError, HilbertSpace,
                        LindbladModel, Operator, annihilation, basis_state,
                        compose_space, expectation, hermitian_coordinates,
                        liouvillian, lindblad_rhs, liouvillian_matrix,
                        number_operator, product_state, real_liouvillian,
                        transition)
from .params import ModelParams
from .scenarios import ConfigError, ScenarioConfig, load_config, run

# The solver's names resolve on first use (PEP 562): eitcool.dynamics loads
# scipy, which the closed forms and the config tools do not need.  Any other
# name, such as the submodule `from eitcool import cli` looks up, loads nothing.
_SOLVER_NAMES = {"CoolingFit", "LeakageError", "MonteCarloResult", "SolverError",
                 "TimeSeries", "evolve", "extract_cooling_rate",
                 "monte_carlo_detuning", "steady_state"}


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .dynamics import (CoolingFit, LeakageError, MonteCarloResult, SolverError,
                           TimeSeries, evolve, extract_cooling_rate,
                           monte_carlo_detuning, steady_state)
    return locals()[name]
