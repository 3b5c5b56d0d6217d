import sidlattice


def test_every_exported_name_resolves_once():
    names = sidlattice.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sidlattice, name)] == []
