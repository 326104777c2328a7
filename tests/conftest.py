import socket
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def profiles_dir() -> Path:
    return REPO_ROOT / "profiles"


@pytest.fixture(scope="session")
def ipv6_loopback() -> str:
    """``"::1"``, or a skip where the IPv6 loopback cannot be bound."""
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        pytest.skip("the IPv6 loopback ::1 cannot be bound")
    return "::1"
