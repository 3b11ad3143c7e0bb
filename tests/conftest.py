"""Shared fixtures: reference NIG parameter sets for three Euronext names."""

import pytest

from qamcpricer.market_data import MarketSlice
from qamcpricer.nig import NIGParams


@pytest.fixture(scope="session")
def axa_params():
    return NIGParams(alpha=5.24, beta=-3.26, delta=0.18, mu=0.0)


@pytest.fixture(scope="session")
def ca_params():
    return NIGParams(alpha=4.69, beta=-3.06, delta=0.18, mu=0.0)


@pytest.fixture(scope="session")
def michelin_params():
    return NIGParams(alpha=6.2, beta=-3.31, delta=0.26, mu=0.0)


@pytest.fixture(scope="session")
def axa_slice():
    return MarketSlice("AXA", spot=33.8, expiry=1.0, rate=0.02, dividend_yield=0.0)


@pytest.fixture(scope="session")
def ca_slice():
    return MarketSlice("CREDIT_AGRICOLE", spot=12.91, expiry=1.0, rate=0.02, dividend_yield=0.0)


@pytest.fixture(scope="session")
def michelin_slice():
    return MarketSlice("MICHELIN", spot=31.76, expiry=1.0, rate=0.02, dividend_yield=0.0)
