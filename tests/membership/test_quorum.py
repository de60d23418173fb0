"""Unit tests for the quorum rule and the term/commit registry."""

from repro.membership.quorum import TermRegistry, quorum_size
from repro.state.partition import PartitionDirectory


class TestQuorumSize:
    def test_strict_majority_for_three_plus(self):
        assert quorum_size(3) == 2
        assert quorum_size(4) == 3
        assert quorum_size(5) == 3
        assert quorum_size(7) == 4

    def test_two_member_group_degenerates_to_one(self):
        # A witness-less HA pair cannot tell a dead peer from a cut
        # link; like any two-node cluster it trades split-brain safety
        # for availability.
        assert quorum_size(2) == 1
        assert quorum_size(1) == 1

    def test_no_two_disjoint_quorums(self):
        # The invariant the fence is built on: for any group of 3+,
        # two disjoint subsets cannot both reach quorum.
        for members in range(3, 12):
            assert 2 * quorum_size(members) > members


class TestTermRegistry:
    """Terms live on the directory; the registry books commits against them."""

    @staticmethod
    def registry():
        directory = PartitionDirectory(3)
        return directory, TermRegistry(directory)

    def test_terms_start_at_zero(self):
        _directory, terms = self.registry()
        assert terms.term_of(0) == 0
        assert TermRegistry().term_of(0) == 0

    def test_bump_advances_and_records_fence(self):
        directory, terms = self.registry()
        assert directory.reassign(2, 0, at_s=0.5) == 1
        assert directory.reassign(2, 1, at_s=0.9) == 2
        assert terms.term_of(2) == 2
        assert [f["new_term"] for f in directory.fences] == [1, 2]
        # The fence names the leader the reassignment replaced.
        assert [f["victim"] for f in directory.fences] == [2, 0]

    def test_commits_recorded_under_current_term(self):
        directory, terms = self.registry()
        terms.note_commit(partition=0, executor=1)
        directory.reassign(0, 2, at_s=1.0)
        terms.note_commit(partition=0, executor=2)
        assert terms.committers(0) == {0: [1], 1: [2]}

    def test_single_committer_per_term_is_not_split_brain(self):
        directory, terms = self.registry()
        terms.note_commit(0, 1)
        directory.reassign(0, 2, at_s=1.0)
        terms.note_commit(0, 2)
        assert terms.split_brain_commits() == []

    def test_two_committers_same_term_is_split_brain(self):
        _directory, terms = self.registry()
        terms.note_commit(0, 1)
        terms.note_commit(0, 2)
        assert terms.split_brain_commits() == [(0, 0, [1, 2])]

    def test_summary_round_trips_to_report(self):
        directory, terms = self.registry()
        directory.reassign(1, 0, at_s=0.25)
        terms.note_commit(1, 0)
        summary = terms.summary()
        assert summary["terms"] == {"1": 1}
        assert summary["split_brain"] == []
        assert summary["fences"][0]["partition"] == 1
