import importlib

import pytest

import mtdirac


def test_every_exported_name_resolves():
    namespace = {}
    exec("from mtdirac import *", namespace)
    assert all(name in namespace for name in mtdirac.__all__)
    assert len(set(mtdirac.__all__)) == len(mtdirac.__all__)


def test_exported_names_are_their_home_modules_objects():
    # each name resolves on first use to the object its module defines
    for name in mtdirac.__all__:
        value = getattr(mtdirac, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("mtdirac."), name
        assert getattr(home, name) is value, name


def test_dir_lists_the_exported_names():
    assert set(mtdirac.__all__) <= set(dir(mtdirac))
    assert "__version__" in dir(mtdirac)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mtdirac.no_such_name
    assert not hasattr(mtdirac, "no_such_name")
    assert not hasattr(mtdirac, "gauss_panels")  # defined in a submodule, not exported
