import pytest
from hypothesis import HealthCheck, settings

from plab import Instance, embed_integer_sets, make_abelian_group

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
    group, a, bs = embed_integer_sets([0, 1], [[0, 1], [0, 2], [0, 4]])
    return Instance(group, a, bs)
