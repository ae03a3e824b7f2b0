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


@pytest.fixture
def forked_steps(monkeypatch):
    """Every ``_step`` with two or more blocks forks at ``jobs >= 2``, also the
    small ones that would otherwise run in the calling process, so a test
    comparing ``jobs=1`` with a pool at n <= 3 still compares two paths."""
    import ftop.lifting as lifting

    monkeypatch.setattr(lifting, "POOL_MIN_WORK", 0)
