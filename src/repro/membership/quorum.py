"""Per-partition terms, the quorum rule, and the split-brain registry.

Leadership of a partition carries a monotonically increasing **term**
number (Raft-style).  A fence that promotes a new leader bumps the term
of every partition that changes hands; anything a stale leader does
under an old term is fenced out by construction, because the takeover
only executes after a *majority* of the membership acked the fence —
and no two disjoint majorities of the same member set exist.

Terms live on the deployment's shared
:class:`~repro.state.partition.PartitionDirectory`, bumped only by its
``reassign``.  The :class:`TermRegistry` books commits against them:
every fresh delta merge records ``(partition, term) -> committer``.
The registry is the machine-checkable form of the no-split-brain
invariant — at no point may two executors commit deltas for the same
partition under the same term.  Tests assert
:meth:`TermRegistry.split_brain_commits` is empty.
"""

from __future__ import annotations

from typing import Optional

from repro.state.partition import PartitionDirectory


def quorum_size(members: int) -> int:
    """Votes needed to fence a member out of a group of ``members``.

    Strict majority for three or more members, so two disjoint groups
    can never both promote.  A two-member group degenerates to 1 — a
    witness-less HA pair cannot distinguish a dead peer from a cut link,
    and like any two-node cluster it trades split-brain safety for
    availability (documented in docs/fault_tolerance.md).
    """
    if members <= 2:
        return 1
    return members // 2 + 1


class TermRegistry:
    """The (partition, term) commit registry, read against the directory."""

    def __init__(self, directory: Optional[PartitionDirectory] = None):
        # Partitioned engines have no directory: every term stays 0.
        self.directory = directory or PartitionDirectory(1)
        #: (partition, term) -> executor ids that committed a delta merge.
        self._commits: dict[tuple[int, int], set[int]] = {}

    def term_of(self, partition: int) -> int:
        """Current term of ``partition`` (0 before any promotion)."""
        return self.directory.term_of(partition)

    def note_commit(self, partition: int, executor: int) -> None:
        """Record that ``executor`` committed a delta merge for ``partition``
        under the partition's current term."""
        key = (partition, self.term_of(partition))
        self._commits.setdefault(key, set()).add(executor)

    def committers(self, partition: int) -> dict[int, list[int]]:
        """term -> sorted committer ids, for one partition."""
        return {
            term: sorted(execs)
            for (p, term), execs in sorted(self._commits.items())
            if p == partition
        }

    def split_brain_commits(self) -> list[tuple[int, int, list[int]]]:
        """Every (partition, term) with more than one committer.

        Must be empty: two committers under one term would mean two
        executors simultaneously believed they led the partition — the
        double-commit the quorum fence exists to prevent.
        """
        return [
            (partition, term, sorted(execs))
            for (partition, term), execs in sorted(self._commits.items())
            if len(execs) > 1
        ]

    def summary(self) -> dict:
        """JSON-able view for the chaos report."""
        return {
            "terms": {str(p): t for p, t in sorted(self.directory.terms.items())},
            "fences": list(self.directory.fences),
            "commits": {
                f"{partition}:{term}": sorted(execs)
                for (partition, term), execs in sorted(self._commits.items())
            },
            "split_brain": [
                {"partition": p, "term": t, "committers": execs}
                for p, t, execs in self.split_brain_commits()
            ],
        }
