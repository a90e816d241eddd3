import afk


def test_every_exported_name_resolves():
    assert len(afk.__all__) == len(set(afk.__all__))
    for name in afk.__all__:
        assert getattr(afk, name, None) is not None, name
