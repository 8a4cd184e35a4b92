//! Two-sided control messages.
//!
//! Hamband's data path is purely one-sided; messages are used only for
//! the *rare* slow paths, exactly as in Mu: leader change ("it requests
//! others to accept it as the leader and waits for a majority of them
//! to acknowledge", §4) and its announcement.

/// A control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// A candidate asks to become leader of a synchronization group at
    /// the given epoch.
    LeaderRequest {
        /// Synchronization group index.
        group: u32,
        /// Proposed epoch (must exceed the receiver's promise).
        epoch: u64,
    },
    /// Acknowledgement of a [`ControlMsg::LeaderRequest`]: the voter has
    /// revoked the old leader's write permission and granted the
    /// candidate.
    LeaderAck {
        /// Synchronization group index.
        group: u32,
        /// Echoed epoch.
        epoch: u64,
        /// Highest fully-landed entry sequence in the voter's `L` ring.
        tail: u64,
        /// The voter's commit index for the group.
        commit: u64,
    },
    /// The elected leader announces itself.
    LeaderAnnounce {
        /// Synchronization group index.
        group: u32,
        /// Winning epoch.
        epoch: u64,
        /// The new leader.
        leader: u32,
    },
    /// The sender has permanently stopped serving the workload (its
    /// process resumed from a pause it treats as crash-stop) even
    /// though its heartbeat may keep beating. Receivers treat it like
    /// a crashed node: sticky suspicion, quota adoption, and a leader
    /// change for any group it still leads.
    Retired,
    /// A crash-restarted node asks every peer which leader it currently
    /// recognizes, per mapped group (the rejoin handshake; see
    /// [`crate::rejoin`]). Receivers reply with one
    /// [`ControlMsg::JoinAck`] per group.
    JoinRequest,
    /// Reply to a [`ControlMsg::JoinRequest`]: the sender's current
    /// promise and leader view for one mapped group. The joiner adopts
    /// the freshest ack per group (it re-seeds its permission grants
    /// from it) and ignores staler ones.
    JoinAck {
        /// Mapped group index.
        group: u32,
        /// The sender's promised epoch for the group.
        epoch: u64,
        /// The leader the sender currently recognizes.
        leader: u32,
    },
}

// `group` and `leader` are `u32`: a wire value that does not fit the
// field is a malformed message, not a silent truncation to some other
// group or leader index.
hamband_core::calls! {
    wire ControlMsg {
        LeaderRequest { group, epoch },
        LeaderAck { group, epoch, tail, commit },
        LeaderAnnounce { group, epoch, leader },
        Retired,
        JoinRequest,
        JoinAck { group, epoch, leader },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::wire::{DecodeError, Wire, Writer};

    #[test]
    fn roundtrip_all_variants() {
        let msgs = [
            ControlMsg::LeaderRequest { group: 1, epoch: 7 },
            ControlMsg::LeaderAck { group: 0, epoch: 7, tail: 123, commit: 120 },
            ControlMsg::LeaderAnnounce { group: 2, epoch: 8, leader: 3 },
            ControlMsg::Retired,
            ControlMsg::JoinRequest,
            ControlMsg::JoinAck { group: 3, epoch: 9, leader: 1 },
        ];
        for m in msgs {
            assert_eq!(ControlMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(ControlMsg::from_bytes(&[9, 9, 9]).is_err());
        assert!(ControlMsg::from_bytes(&[]).is_err());
    }

    #[test]
    fn oversize_narrow_fields_are_rejected_not_truncated() {
        // A `group`/`leader` varint above u32::MAX used to truncate via
        // `as u32` (e.g. 2^32 decoded as group 0). It must now fail.
        let mut w = Writer::new();
        w.u8(0); // LeaderRequest
        w.varint(1u64 << 32);
        w.varint(7);
        assert_eq!(ControlMsg::from_bytes(&w.into_vec()), Err(DecodeError));

        let mut w = Writer::new();
        w.u8(2); // LeaderAnnounce with oversize leader
        w.varint(1);
        w.varint(8);
        w.varint(u64::from(u32::MAX) + 1);
        assert_eq!(ControlMsg::from_bytes(&w.into_vec()), Err(DecodeError));

        // Boundary: exactly u32::MAX still decodes.
        let mut w = Writer::new();
        w.u8(0);
        w.varint(u64::from(u32::MAX));
        w.varint(7);
        assert_eq!(
            ControlMsg::from_bytes(&w.into_vec()),
            Ok(ControlMsg::LeaderRequest { group: u32::MAX, epoch: 7 })
        );
    }
}
