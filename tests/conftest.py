import pytest

from circulant4 import manifolds

try:
    from hypothesis import HealthCheck, settings
except ImportError:
    pass
else:
    settings.register_profile(
        "circulant4",
        deadline=None,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    settings.load_profile("circulant4")


@pytest.fixture(scope="session")
def report_line(pytestconfig):
    """Write a line to the terminal even under output capture."""
    reporter = pytestconfig.pluginmanager.getplugin("terminalreporter")

    def write(text):
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    return write


@pytest.fixture(autouse=True)
def _cold_config_cache():
    """Every test starts with no parsed config kept, whatever ran before it."""
    manifolds._parsed_config.cache_clear()
