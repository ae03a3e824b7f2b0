"""Session-wide test setup."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Build every on-disk catalog afresh in a per-session directory, so the
    suite never trusts artifacts written by another checkout into the user's
    cache.  A test's own ``monkeypatch.setenv`` still takes precedence."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FTOP_CACHE_DIR", str(tmp_path_factory.mktemp("ftop_cache")))
        yield
