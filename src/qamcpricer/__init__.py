"""Market-implied NIG marginals, Gaussian copulas, and multi-asset option
pricing by classical Monte Carlo and simulated quantum amplitude estimation."""

from .black_scholes import BSInputs, bs_price, implied_vol
from .calibration import CalibrationConfig, CalibrationResult, bs_prior, calibrate
from .copula import CopulaSpec, load_correlation
from .cosine_density import (
    CosineSeries,
    Interval,
    coeffs_classical,
    eval_cdf,
    eval_pdf,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DomainError,
    QamcError,
    StageError,
    ValidationError,
)
from .market_data import (
    MarketSlice,
    OptionQuote,
    check_butterfly_arbitrage,
    check_digital_arbitrage,
    generate_synthetic_quotes,
    load_quotes,
    strip_curves,
)
from .nig import (
    ExpNIGModel,
    NIGParams,
    martingale_adjustment,
    nig_cdf,
    nig_cumulants,
    nig_pdf,
    price_european_batch,
)
from .pricing import (
    AssetMarginal,
    GridMeasure,
    Payoff,
    PriceEstimate,
    PricingGrid,
    cmc_price,
    riemann_reference,
)
from .qamc import (
    AEConfig,
    AEResult,
    iqae_estimate,
    qamc_price,
    signed_ae_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "AEConfig",
    "AEResult",
    "AssetMarginal",
    "BSInputs",
    "CalibrationConfig",
    "CalibrationError",
    "CalibrationResult",
    "ConvergenceError",
    "CopulaSpec",
    "CosineSeries",
    "DomainError",
    "ExpNIGModel",
    "GridMeasure",
    "Interval",
    "MarketSlice",
    "NIGParams",
    "OptionQuote",
    "Payoff",
    "PriceEstimate",
    "PricingGrid",
    "QamcError",
    "StageError",
    "ValidationError",
    "bs_price",
    "bs_prior",
    "calibrate",
    "check_butterfly_arbitrage",
    "check_digital_arbitrage",
    "cmc_price",
    "coeffs_classical",
    "eval_cdf",
    "eval_pdf",
    "generate_synthetic_quotes",
    "implied_vol",
    "iqae_estimate",
    "load_correlation",
    "load_quotes",
    "martingale_adjustment",
    "nig_cdf",
    "nig_cumulants",
    "nig_pdf",
    "price_european_batch",
    "qamc_price",
    "riemann_reference",
    "signed_ae_estimate",
    "strip_curves",
    "__version__",
]
