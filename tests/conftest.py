import pytest
from hypothesis import HealthCheck, settings

from plab import Instance, element_cap, integer_group, make_abelian_group
from plab.groups import CAP_ENV_VAR

settings.register_profile(
    "plab", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("plab")


# the instances of fixtures/z5.json and fixtures/z9.json, whose files read
# them at levels 1 and 2

@pytest.fixture
def z5():
    g = make_abelian_group([5])
    return Instance(g, g.set_of([0, 1]), (g.set_of([0, 1]), g.set_of([0, 2])))


@pytest.fixture
def z9():
    g = integer_group([0, 1], [[0, 1], [0, 2], [0, 4]])
    return Instance(g, g.set_of([0, 1]), (g.set_of([0, 1]), g.set_of([0, 2]), g.set_of([0, 4])))


# element_cap reads PLAB_MEM_CAP once per process and caches the cap, so an
# in-process test sets or deletes the variable only through set_cap, which
# clears the cache, and no cap outlives the test that set it

@pytest.fixture(autouse=True)
def fresh_element_cap():
    yield
    element_cap.cache_clear()


@pytest.fixture
def set_cap(monkeypatch):
    """set_cap(value) sets PLAB_MEM_CAP to value, or deletes it for None,
    and clears element_cap's cache, so that the next call reads it."""
    def set_cap(value: str | None) -> None:
        if value is None:
            monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(CAP_ENV_VAR, value)
        element_cap.cache_clear()
    return set_cap
