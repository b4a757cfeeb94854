"""Message-level protocol implementations for the synchronous engine."""

from .aggregate import ConvergecastSum
from .bfs import BFSTree
from .flooding import KHopGather
from .leader import LeaderElection
from .luby import LubyMIS

__all__ = [
    "KHopGather",
    "LubyMIS",
    "ConvergecastSum",
    "BFSTree",
    "LeaderElection",
]
