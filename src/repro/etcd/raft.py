"""Simulated Raft quorum layer for the data store.

The paper notes (§V-C1) that running a replicated control plane does not
protect against Mutiny's injections: the fault is introduced *before* the
consensus algorithm runs, so every replica agrees on the corrupted value.
The :class:`RaftGroup` models exactly enough of Raft to reproduce that
observation — leader election, quorum acceptance of proposals, loss of
availability when a majority of members is down — without re-implementing
log replication byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class QuorumLost(RuntimeError):
    """Raised when a proposal cannot be committed because quorum is unavailable."""


@dataclass
class RaftMember:
    """A member of the Raft group."""

    name: str
    healthy: bool = True
    #: Number of proposals this member has acknowledged.
    acked_proposals: int = 0


class RaftGroup:
    """A quorum of data-store replicas.

    The group tracks member health, elects the lowest-named healthy member as
    leader, and accepts proposals only when a majority of members is healthy.
    Committed proposals are applied to every healthy member, so all replicas
    converge on the same (possibly corrupted) value — the behaviour the paper
    verifies with the three-control-plane-node rerun.
    """

    def __init__(self, member_names: list[str]):
        if not member_names:
            raise ValueError("a Raft group needs at least one member")
        self._members = {name: RaftMember(name=name) for name in member_names}
        #: Incrementally-maintained count of healthy members; health changes
        #: only through fail_member/recover_member, and has_quorum is checked
        #: on every apiserver read and write.
        self._healthy_count = len(self._members)
        self._term = 1
        self._leader: Optional[str] = None
        self._elect()
        self.committed_proposals = 0
        self.rejected_proposals = 0

    # ------------------------------------------------------------------ state

    @property
    def term(self) -> int:
        """Current election term."""
        return self._term

    @property
    def leader(self) -> Optional[str]:
        """Name of the current leader, or None if no quorum."""
        return self._leader

    @property
    def members(self) -> list[RaftMember]:
        """All members of the group."""
        return list(self._members.values())

    def healthy_members(self) -> list[RaftMember]:
        """Members currently healthy."""
        return [member for member in self._members.values() if member.healthy]

    def has_quorum(self) -> bool:
        """True if a majority of members is healthy."""
        return self._healthy_count >= len(self._members) // 2 + 1

    # ------------------------------------------------------------ membership

    def fail_member(self, name: str) -> None:
        """Mark a member as failed; trigger re-election if it was the leader."""
        member = self._members.get(name)
        if member is None:
            raise KeyError(f"unknown raft member {name!r}")
        if member.healthy:
            self._healthy_count -= 1
        member.healthy = False
        if self._leader == name:
            self._term += 1
            self._elect()

    def recover_member(self, name: str) -> None:
        """Mark a member as healthy again."""
        member = self._members.get(name)
        if member is None:
            raise KeyError(f"unknown raft member {name!r}")
        if not member.healthy:
            self._healthy_count += 1
        member.healthy = True
        if self._leader is None:
            self._term += 1
            self._elect()

    def _elect(self) -> None:
        if not self.has_quorum():
            self._leader = None
            return
        healthy = sorted(member.name for member in self.healthy_members())
        self._leader = healthy[0] if healthy else None

    # -------------------------------------------------------------- proposals

    def propose(self, payload_size: int = 0) -> int:
        """Commit a proposal through the quorum; return the commit index.

        Raises :class:`QuorumLost` when a majority of members is unavailable.
        ``payload_size`` is accepted for interface symmetry with a real log
        (and for tests asserting that corrupted payloads still commit).
        """
        if not self.has_quorum() or self._leader is None:
            self.rejected_proposals += 1
            raise QuorumLost(
                f"no quorum: {len(self.healthy_members())}/{len(self._members)} healthy"
            )
        del payload_size  # the simulated log does not persist payload bytes
        self.committed_proposals += 1
        for member in self.healthy_members():
            member.acked_proposals += 1
        return self.committed_proposals

    def stats(self) -> dict:
        """Return election and commit statistics."""
        return {
            "term": self._term,
            "leader": self._leader,
            "members": len(self._members),
            "healthy": len(self.healthy_members()),
            "committed": self.committed_proposals,
            "rejected": self.rejected_proposals,
        }
