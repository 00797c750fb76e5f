import mtdirac


def test_every_exported_name_resolves():
    namespace = {}
    exec("from mtdirac import *", namespace)
    assert all(name in namespace for name in mtdirac.__all__)
    assert len(set(mtdirac.__all__)) == len(mtdirac.__all__)
