"""Finding baselines: the grandfathering ratchet for ``check``.

New rules land against a codebase with *known* findings — the two
untimed remote waits CHX021 flags in ``core/compute.py`` are work
ROADMAP item 4 names, not regressions.  The ratchet lets a rule ship
strict from day one:

1. ``check --deep --baseline FILE --write-baseline`` records every
   current finding as a ``(file, rule, fingerprint)`` entry;
2. later runs with ``--baseline FILE`` suppress exactly those entries
   and exit non-zero only on *new* findings;
3. fixing a grandfathered finding and rewriting the baseline shrinks
   the file — the ratchet only ever tightens.

Fingerprints hash the finding's file, rule and message with line
numbers normalized out (both the finding's own line and any ``line N``
references inside the message), so unrelated edits that shift code
don't resurrect grandfathered findings.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.findings import Finding

#: Version of the baseline JSON document.
BASELINE_VERSION = 1

_LINE_REF = re.compile(r"\bline \d+\b")


def fingerprint(finding: Finding) -> str:
    """Line-stable identity of one finding."""
    message = _LINE_REF.sub("line N", finding.message)
    digest = hashlib.sha256()
    digest.update(finding.file.encode())
    digest.update(b"\0")
    digest.update(finding.rule_id.encode())
    digest.update(b"\0")
    digest.update(message.encode())
    return digest.hexdigest()[:16]


def write_baseline(findings: Iterable[Finding], path: str) -> int:
    """Write the baseline document; returns the entry count."""
    entries = sorted(
        {
            (f.file, f.rule_id, fingerprint(f))
            for f in findings
        }
    )
    document = {
        "baseline_version": BASELINE_VERSION,
        "tool": "chaos-repro check --write-baseline",
        "entries": [
            {"file": file, "rule": rule, "fingerprint": print_}
            for file, rule, print_ in entries
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(entries)


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """The ``(file, rule, fingerprint)`` entry set of a baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("baseline_version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path}: version {version!r} != {BASELINE_VERSION}"
        )
    entries = set()
    for entry in document.get("entries", ()):
        entries.add((entry["file"], entry["rule"], entry["fingerprint"]))
    return entries


def split_new(
    findings: Iterable[Finding], baseline: Set[Tuple[str, str, str]]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into (new, grandfathered) against a baseline."""
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in findings:
        key = (finding.file, finding.rule_id, fingerprint(finding))
        if key in baseline:
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered


def baseline_stats(
    findings: Iterable[Finding], baseline: Set[Tuple[str, str, str]]
) -> Dict[str, int]:
    """Summary counts for reporting: entries, matched, new, stale."""
    new, grandfathered = split_new(list(findings), baseline)
    matched_keys = {
        (f.file, f.rule_id, fingerprint(f)) for f in grandfathered
    }
    return {
        "entries": len(baseline),
        "matched": len(matched_keys),
        "new": len(new),
        "stale": len(baseline) - len(matched_keys),
    }


__all__ = [
    "BASELINE_VERSION",
    "baseline_stats",
    "fingerprint",
    "load_baseline",
    "split_new",
    "write_baseline",
]
