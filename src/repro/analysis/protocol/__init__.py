"""Protocol model extraction and trace conformance.

One extractor feeds two checks over the deep-analysis project index:

* :mod:`.extract` lifts per-role send sites, receive loops (with their
  handled kinds and epoch guards) and blocking waits out of the code;
  the protocol rules CHX019-021/023 judge that model statically;
* :mod:`.conform` replays recorded causal-trace DAGs against the
  extracted model, flagging unmodeled transitions and naming stuck
  transitions in deadlocked traces (``trace conform``).
"""

from .conform import ConformanceReport, conform
from .extract import extract_model
from .model import ProtocolModel, ReceiveLoop, RoleModel, SendOp, WaitOp

__all__ = [
    "ConformanceReport",
    "ProtocolModel",
    "ReceiveLoop",
    "RoleModel",
    "SendOp",
    "WaitOp",
    "conform",
    "extract_model",
]
