import qwtrain


def test_every_export_resolves_once():
    assert len(qwtrain.__all__) == len(set(qwtrain.__all__))
    missing = [name for name in qwtrain.__all__ if not hasattr(qwtrain, name)]
    assert missing == []
