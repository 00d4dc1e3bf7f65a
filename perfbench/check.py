"""Output check: re-verify a finished run's store against the DRC oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence


@dataclass
class StoreCheck:
    """Result of checking one server's store after it stopped."""

    patterns: int = 0
    problems: List[str] = field(default_factory=list)


def check_store(store_dir: Path, outcomes: Sequence) -> StoreCheck:
    """Re-check every stored pattern with the reference DRC engine and
    reconcile the store with what the requests reported.

    ``outcomes`` are all requests served by this server (warm-up
    included).  Every succeeded request's delivered legal patterns must
    equal its ``store_added + store_deduplicated``, the store must hold one
    pattern per reported add, and its duplicate counters must sum to the
    reported deduplications.
    """
    from repro.drc.checker import check_pattern
    from repro.drc.rules import rules_for_style
    from repro.serve.store import LibraryStore

    result = StoreCheck()
    for o in outcomes:
        if o.ok and o.produced != o.store_added + o.store_deduplicated:
            result.problems.append(
                f"request {o.index}: delivered {o.produced} legal patterns but "
                f"stored {o.store_added} + deduplicated {o.store_deduplicated}"
            )
    store = LibraryStore(store_dir)
    try:
        records = store.records()
        for record in records:
            pattern = store.get(record.content_hash)
            report = check_pattern(
                pattern, rules_for_style(record.style), engine="reference"
            )
            if not report.is_clean:
                result.problems.append(
                    f"stored pattern {record.content_hash[:12]} fails reference "
                    f"DRC with {len(report.violations)} violation(s)"
                )
    finally:
        store.close()
    added = sum(o.store_added for o in outcomes if o.ok)
    deduplicated = sum(o.store_deduplicated for o in outcomes if o.ok)
    if len(records) != added:
        result.problems.append(
            f"store holds {len(records)} patterns, requests reported {added} adds"
        )
    duplicates = sum(r.duplicates for r in records)
    if duplicates != deduplicated:
        result.problems.append(
            f"store counts {duplicates} duplicates, requests reported "
            f"{deduplicated}"
        )
    result.patterns = len(records)
    return result
