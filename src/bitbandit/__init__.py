"""Distributed contextual linear bandit simulation under uplink bit constraints."""

# The package exports what each module declares public in its __all__.
from .quantizer import *  # noqa: F403
from .codec import *  # noqa: F403
from .env import *  # noqa: F403
from .known import *  # noqa: F403
from .unknown import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"
