import inspect
import pickle

import pytest

from ufnd import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_type_and_message(cls):
    """A worker process sends a cell's error back pickled."""
    exc = cls("loss")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)


def test_non_finite_error_keeps_its_name():
    back = pickle.loads(pickle.dumps(errors.NonFiniteError("loss")))
    assert str(back) == "non-finite value detected in 'loss'"
    assert back.name == "loss"
