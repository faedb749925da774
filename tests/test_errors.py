import pickle

import pytest

from timechange_sv import errors
from timechange_sv.errors import ExplosionError, NumericsError, ValidationError

EXCEPTIONS = [
    ValidationError("bad config"),
    NumericsError("non-finite drift"),
    ExplosionError(1.5),
]


def test_every_exception_is_listed():
    defined = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception)}
    assert defined == {type(exc) for exc in EXCEPTIONS}


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(exc):
    # a forked fit worker's error reaches the parent by pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)


def test_explosion_keeps_its_time():
    back = pickle.loads(pickle.dumps(ExplosionError(1.5)))
    assert back.time == 1.5
    assert str(back) == "diffusion state became non-finite at t=1.5"
