"""hetnetsim: slotted system-level simulator for two-tier cellular networks
with threshold-driven pico-cell sleep control."""

__version__ = "0.1.0"

from .config import Scenario, parse_scenario  # noqa: F401
from .engine import run_scenario, build_geometry, compute_ee  # noqa: F401
from .topology import Topology, build_monet, build_coe, build_udc  # noqa: F401
