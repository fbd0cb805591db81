import radokit


def test_public_names():
    assert radokit.__all__ == sorted(radokit.__all__)
    for name in radokit.__all__:
        getattr(radokit, name)
    assert "rref" not in radokit.__all__ and "rank" not in radokit.__all__
