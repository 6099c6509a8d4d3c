"""Protocol facts and trace conformance.

The message vocabulary is declared once, in
:data:`repro.net.transport.MESSAGE_KINDS`, and every receive loop
rejects an undeclared kind at run time.  Two checks stand beside it:

* :mod:`.extract` lifts each receive loop's epoch fence and each bare
  blocking wait out of the deep-analysis project index; the protocol
  rules CHX020 and CHX021 judge them statically;
* :mod:`.conform` replays recorded causal-trace DAGs against the
  declared vocabulary, flagging undeclared kinds and naming stuck
  transitions in deadlocked traces (``trace conform``).
"""

from .conform import ConformanceReport, conform
from .extract import extract_model
from .model import ProtocolModel, ReceiveLoop, RoleModel, WaitOp

__all__ = [
    "ConformanceReport",
    "ProtocolModel",
    "ReceiveLoop",
    "RoleModel",
    "WaitOp",
    "conform",
    "extract_model",
]
