import pytest

from mrdcodes import fields, verify


@pytest.fixture
def no_tables(monkeypatch):
    """Towers built inside the test have no Zech tables."""
    caches = (fields.make_tower, verify._orbit_sweep, verify._support_block)
    monkeypatch.setattr(fields, "TABLE_CAP", 0)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
