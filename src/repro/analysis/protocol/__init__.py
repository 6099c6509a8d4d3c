"""Protocol facts and trace conformance.

The message vocabulary is declared once, in
:data:`repro.net.transport.MESSAGE_KINDS`, and delivery rejects an
undeclared kind at run time.  Two checks stand beside it:

* :mod:`.extract` finds each service registration's missing epoch
  fence in an indexed function; the protocol rule CHX020 reports it;
* :mod:`.conform` replays recorded causal-trace DAGs against the
  declared vocabulary, flagging undeclared kinds and naming stuck
  transitions in deadlocked traces (``trace conform``).
"""

from .conform import ConformanceReport, conform
from .extract import unfenced_receives

__all__ = [
    "ConformanceReport",
    "conform",
    "unfenced_receives",
]
