import pytest

from matchpoly import ResourceLimitError, caps


@pytest.mark.parametrize("op", sorted(caps.CAPS))
@pytest.mark.parametrize("allow_large", [False, True])
def test_allows_agrees_with_require(op, allow_large):
    for n in range(-1, 8):
        try:
            caps.require(op, n, allow_large)
            accepted = True
        except (ValueError, ResourceLimitError):
            accepted = False
        assert caps.allows(op, n, allow_large) == accepted, n


def test_require_errors():
    with pytest.raises(ValueError, match="at least 1"):
        caps.require("poly-primal", 0)
    with pytest.raises(ResourceLimitError, match="allow-large"):
        caps.require("poly-primal", 5)
    with pytest.raises(ResourceLimitError, match="hard cap"):
        caps.require("poly-primal", 6, allow_large=True)
    caps.require_hard("poly-primal", 5)
