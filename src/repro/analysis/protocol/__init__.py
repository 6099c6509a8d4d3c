"""Protocol facts and trace conformance.

The message vocabulary is declared once, in
:data:`repro.net.transport.MESSAGE_KINDS`, and delivery rejects an
undeclared kind at run time.  Two checks stand beside it:

* :mod:`.extract` finds each service registration's missing epoch
  fence and each bare blocking wait in an indexed function; the
  protocol rules CHX020 and CHX021 report them;
* :mod:`.conform` replays recorded causal-trace DAGs against the
  declared vocabulary, flagging undeclared kinds and naming stuck
  transitions in deadlocked traces (``trace conform``).
"""

from .conform import ConformanceReport, conform
from .extract import remote_waits, unfenced_receives

__all__ = [
    "ConformanceReport",
    "conform",
    "remote_waits",
    "unfenced_receives",
]
