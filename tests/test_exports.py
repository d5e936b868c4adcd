import chordfield


def test_every_export_resolves_once_and_star_import_runs():
    names = chordfield.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(chordfield, name)] == []
    namespace = {}
    exec("from chordfield import *", namespace)
    assert set(names) <= set(namespace)
