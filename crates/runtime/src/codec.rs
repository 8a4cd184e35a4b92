//! On-wire formats of ring entries and summary slots.
//!
//! §4: "Before propagation, a call is assigned a unique id, paired with
//! its dependency arrays and is serialized into a byte stream. ... Each
//! call in the buffer contains a canary bit as the last bit."
//!
//! Ring entry slot (fixed size, [`RuntimeConfig::entry_size`]):
//!
//! ```text
//! [0..8)       entry sequence number (1-based; 0 = never written)
//! [8..10)      payload length (u16 LE)
//! [10..)       payload: issuer, rid seq, dependency array, encoded call
//! [size-16..)  `L` rings only: the group's commit index as the leader
//!              knew it when it appended the entry (u64 LE); padding,
//!              zero, on `F` rings
//! [size-8..)   canary trailer: the sequence number again (u64 LE),
//!              written last on torn fabrics
//! ```
//!
//! The carried commit index is how a follower learns what it may apply
//! (Mu's discipline: a commit rides the next entry): it sits below the
//! canary, so it is visible exactly when the entry that carries it is —
//! [`carried_commit`] reads it only from a slot [`slot_ready`] accepts.
//! It takes its eight bytes from the payload's room, not from the slot:
//! a conflicting call's payload may use `size - 26` bytes.
//!
//! The canary trailer is the paper's canary *bit* grown into a
//! sequence echo. A constant marker only proves "some complete entry
//! once landed here"; on a ring that property survives slot reuse, so
//! a reader observing the slot word-by-word (the threaded backend's
//! shared-memory reality) could pair the *new* entry's sequence word
//! with the *old* entry's still-valid marker around a half-rewritten
//! payload. Echoing the sequence makes the trailer epoch-distinguishing:
//! the trailer only matches once the rewrite for exactly that sequence
//! has finished, and slot writers store words in ascending address
//! order, so a reader that checks the trailer first (descending reads)
//! accepts no torn slot.
//!
//! Summary slot (per summarization group × source process,
//! [`RuntimeConfig::summary_slot_size`]): an append-only log of
//! records, written by the source alone. One record:
//!
//! ```text
//! [0..8)        version (number of calls folded in, the record's
//!               own and every earlier record's)
//! [8..8+8g)     applied-call count per method of the group, as of
//!               that version (they sum to it)
//! [..+2)        payload length (u16 LE)
//! [..]          payload: the encoded summary of the record's calls
//! [..+8)        trailing version, directly after the payload (seqlock
//!               check; placed there so a write covers only the bytes
//!               it adds, not the slot's worst-case capacity)
//! ```
//!
//! A log is records back to back from offset 0. Record 0 summarizes
//! every call up to its version; a later record only the calls folded
//! in since the record before it, so a reader applies the records past
//! the last one it read (the join of a grow-only summary's deltas is
//! the summary, Almeida et al.). When the next record would not fit,
//! the source *compacts*: it writes one record summarizing everything
//! at offset 0, and what lay beyond it goes stale. A non-monotone
//! summary (a replacement, not a join) compacts at every record, so
//! its log is a single image. [`summary_records`] accepts a record
//! only if its trailer validates and its version is above the
//! previous record's (and its counts sum to it), so it stops at a torn
//! last record and at the stale bytes behind a compaction, whose
//! versions are all older.
//!
//! [`RuntimeConfig::entry_size`]: crate::config::RuntimeConfig::entry_size
//! [`RuntimeConfig::summary_slot_size`]: crate::config::RuntimeConfig::summary_slot_size

use hamband_core::counts::DepMap;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::wire::{DecodeError, Reader, Wire, Writer};

/// Size of the canary trailer: the entry's sequence number echoed as
/// the slot's final 8 bytes.
pub const CANARY_TRAILER: usize = 8;

/// Whether a ring-entry slot completely holds entry `expect_seq`: the
/// leading sequence number matches and the trailing sequence echo has
/// landed. This is the poll fast path — a prefix-plus-trailer check
/// with no payload decode, so an empty or in-flight slot costs almost
/// nothing.
pub fn slot_ready(slot: &[u8], expect_seq: u64) -> bool {
    let seq = expect_seq.to_le_bytes();
    slot.len() >= 10 + CANARY_TRAILER
        && slot[slot.len() - CANARY_TRAILER..] == seq
        && slot[0..8] == seq
}

/// The ring sequence number a slot claims (its first eight bytes);
/// `None` for a slot too short to carry one.
pub(crate) fn slot_seq(slot: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(slot.get(0..8)?.try_into().ok()?))
}

/// Size of the commit index an `L`-ring entry carries, directly below
/// the canary trailer.
pub const CARRIED_COMMIT: usize = 8;

/// Stamp `commit` into a rendered ring-entry slot, below its canary
/// trailer: the leader's commit index as of the append.
///
/// # Panics
///
/// Panics if the slot's payload reaches into those bytes (raise
/// `config::PAYLOAD_CAP`).
pub fn stamp_commit(slot: &mut [u8], commit: u64) {
    let at = slot.len() - CANARY_TRAILER - CARRIED_COMMIT;
    let payload_len = u16::from_le_bytes(slot[8..10].try_into().expect("2 bytes")) as usize;
    assert!(
        10 + payload_len <= at,
        "payload of {payload_len} bytes leaves no room for the carried commit index"
    );
    slot[at..at + CARRIED_COMMIT].copy_from_slice(&commit.to_le_bytes());
}

/// The commit index carried by the slot holding entry `expect_seq`;
/// `None` unless the entry has completely landed ([`slot_ready`]) — a
/// slot whose canary is missing or stale says nothing.
pub fn carried_commit(slot: &[u8], expect_seq: u64) -> Option<u64> {
    if slot.len() < 10 + CARRIED_COMMIT + CANARY_TRAILER || !slot_ready(slot, expect_seq) {
        return None;
    }
    let at = slot.len() - CANARY_TRAILER - CARRIED_COMMIT;
    Some(u64::from_le_bytes(slot[at..at + CARRIED_COMMIT].try_into().expect("8 bytes")))
}

/// The leading version word of a summary slot (0 when never written or
/// too short). A reader compares it against the version it already
/// applied before paying for a full seqlock parse — stale re-reads of
/// an unchanged slot are the common case in the summary poll loop.
pub fn summary_version(slot: &[u8]) -> u64 {
    match slot.get(0..8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        None => 0,
    }
}

/// A decoded ring entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<U> {
    /// The call's unique request id.
    pub rid: Rid,
    /// The call.
    pub update: U,
    /// The dependency map shipped with the call.
    pub deps: DepMap,
}

impl<U: Wire> Entry<U> {
    fn write_payload(&self, w: &mut Writer) {
        w.varint(self.rid.issuer.index() as u64);
        w.varint(self.rid.seq);
        w.varint(self.deps.len() as u64);
        for (p, m, c) in self.deps.iter() {
            w.varint(p.index() as u64);
            w.varint(m.index() as u64);
            w.varint(c);
        }
        self.update.encode(w);
    }

    /// Encode the payload portion of a ring entry.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.into_vec()
    }

    /// Decode the payload portion of a ring entry.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed bytes.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let issuer = Pid(r.varint()? as usize);
        let seq = r.varint()?;
        let ndeps = r.varint()? as usize;
        if ndeps > bytes.len() {
            return Err(DecodeError);
        }
        let mut deps = Vec::with_capacity(ndeps);
        for _ in 0..ndeps {
            deps.push((Pid(r.varint()? as usize), MethodId(r.varint()? as usize), r.varint()?));
        }
        let update = U::decode(&mut r)?;
        Ok(Entry { rid: Rid::new(issuer, seq), update, deps: DepMap::from_entries(deps) })
    }

    /// Render a full ring-entry slot of `slot_size` bytes carrying
    /// sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot (raise
    /// `config::PAYLOAD_CAP`).
    pub fn to_slot(&self, seq: u64, slot_size: usize) -> Vec<u8> {
        let mut slot = Vec::new();
        self.to_slot_into(seq, slot_size, &mut slot);
        slot
    }

    /// Render a full ring-entry slot into `out`, reusing its
    /// allocation: the header is laid down, the payload is encoded in
    /// place behind it (no intermediate payload `Vec`), and the slot is
    /// padded to `slot_size` with the canary trailer last.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot (raise
    /// `config::PAYLOAD_CAP`).
    pub fn to_slot_into(&self, seq: u64, slot_size: usize, out: &mut Vec<u8>) {
        out.clear();
        self.append_slot(seq, slot_size, out);
    }

    /// [`to_slot_into`](Self::to_slot_into) behind what `out` already
    /// holds: a ring writer queues its pending slots back to back.
    pub(crate) fn append_slot(&self, seq: u64, slot_size: usize, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = Writer::appending(std::mem::take(out));
        w.bytes(&[0u8; 10]);
        self.write_payload(&mut w);
        let mut log = w.into_vec();
        let slot = &mut log[start..];
        let payload_len = slot.len() - 10;
        // The length field is a u16: a longer payload would silently
        // truncate its recorded length and corrupt the decoded entry
        // even when the slot itself is large enough.
        assert!(
            payload_len <= u16::MAX as usize,
            "entry payload of {payload_len} bytes overflows the u16 length field"
        );
        let cap = slot_size.saturating_sub(10 + CANARY_TRAILER);
        assert!(payload_len <= cap, "payload of {payload_len} bytes exceeds slot capacity {cap}");
        slot[0..8].copy_from_slice(&seq.to_le_bytes());
        slot[8..10].copy_from_slice(&(payload_len as u16).to_le_bytes());
        log.resize(start + slot_size, 0);
        log[start + slot_size - CANARY_TRAILER..].copy_from_slice(&seq.to_le_bytes());
        *out = log;
    }

    /// Parse a ring-entry slot if it completely holds entry `expect_seq`
    /// (sequence matches and the canary trailer has landed; the cheap
    /// [`slot_ready`] prefix check runs before any payload decode).
    pub fn from_slot(slot: &[u8], expect_seq: u64) -> Option<Self> {
        if !slot_ready(slot, expect_seq) {
            return None;
        }
        let len = u16::from_le_bytes(slot[8..10].try_into().ok()?) as usize;
        if 10 + len > slot.len() - CANARY_TRAILER {
            return None;
        }
        Self::decode_payload(&slot[10..10 + len]).ok()
    }
}

/// A decoded summary slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummarySlot<U> {
    /// Version: how many calls were folded into this summary.
    pub version: u64,
    /// Applied-call counts for each method of the summarization group,
    /// in group order (advances `A(source, u)` at readers).
    pub counts: Vec<u64>,
    /// The summarized call (`None` only for the never-written slot).
    pub summary: Option<U>,
}

impl<U: Wire> SummarySlot<U> {
    /// Render this summary as a one-record log for a slot of capacity
    /// `slot_size` (`RuntimeConfig::summary_slot_size(counts.len())`):
    /// the bytes a compaction writes at offset 0.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot capacity.
    pub fn to_slot(&self, slot_size: usize) -> Vec<u8> {
        let mut slot = Vec::new();
        self.to_slot_into(slot_size, &mut slot);
        slot
    }

    /// [`to_slot`](Self::to_slot) into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot capacity.
    pub fn to_slot_into(&self, slot_size: usize, out: &mut Vec<u8>) {
        out.clear();
        Self::append_parts(self.version, &self.counts, self.summary.as_ref(), slot_size, out);
    }

    /// Append one record, from borrowed parts, to the log `log` of a
    /// slot of capacity `slot_size` — the summarized call is encoded in
    /// place, no intermediate `Vec`. Only the record itself is checked
    /// against the capacity: whether it fits behind the records already
    /// in `log` is the caller's question (`log.len() > slot_size`
    /// afterwards means compact).
    ///
    /// # Panics
    ///
    /// Panics if the payload overflows the u16 length field or the
    /// record alone exceeds the slot capacity.
    pub fn append_parts(
        version: u64,
        counts: &[u64],
        summary: Option<&U>,
        slot_size: usize,
        log: &mut Vec<u8>,
    ) {
        let start = log.len();
        let head = 8 + 8 * counts.len() + 2;
        let mut w = Writer::appending(std::mem::take(log));
        w.bytes(&version.to_le_bytes());
        for c in counts {
            w.bytes(&c.to_le_bytes());
        }
        w.bytes(&[0u8; 2]);
        if let Some(u) = summary {
            u.encode(&mut w);
        }
        *log = w.into_vec();
        let payload_len = log.len() - start - head;
        // The summary slot capacity scales with the workload
        // (`RuntimeConfig::summary_payload_cap`), so unlike ring
        // entries a record can legitimately exceed 64 KiB — the u16
        // length field is the binding limit and must be checked
        // explicitly or `payload_len as u16` truncates silently.
        assert!(
            payload_len <= u16::MAX as usize,
            "summary payload of {payload_len} bytes overflows the u16 length field"
        );
        assert!(
            head + payload_len + 8 <= slot_size,
            "summary payload of {} bytes exceeds slot capacity {}",
            payload_len,
            slot_size.saturating_sub(head + 8)
        );
        log[start + head - 2..start + head].copy_from_slice(&(payload_len as u16).to_le_bytes());
        log.extend_from_slice(&version.to_le_bytes());
    }

    /// Parse the first record of a summary log with `group_len`
    /// methods; `None` if the seqlock check fails (a write is in
    /// flight) or the slot is empty.
    pub fn from_slot(slot: &[u8], group_len: usize) -> Option<Self> {
        let used = summary_prefix(slot, group_len)?;
        let word =
            |i: usize| u64::from_le_bytes(used[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let counts = (1..=group_len).map(word).collect();
        let payload = &used[8 + 8 * group_len + 2..used.len() - 8];
        let summary = if payload.is_empty() { None } else { Some(U::from_bytes(payload).ok()?) };
        Some(SummarySlot { version: word(0), counts, summary })
    }
}

/// The first record of a summary log for a group of `group_len`
/// methods — exactly the bytes its writer wrote — or `None` if the log
/// is empty or the seqlock check fails (a write is in flight).
pub fn summary_prefix(log: &[u8], group_len: usize) -> Option<&[u8]> {
    let version = summary_version(log);
    if version == 0 {
        return None;
    }
    let head = 8 + 8 * group_len + 2;
    let len = u16::from_le_bytes(log.get(head - 2..head)?.try_into().ok()?) as usize;
    let used = log.get(..head + len + 8)?;
    (summary_version(&used[head + len..]) == version).then_some(used)
}

/// The records of the summary log `log` (a group of `group_len`
/// methods) from its start, each as its bytes, while they are
/// complete and newer than `after` and than the record before: a
/// record whose trailer has not landed, or whose version does not
/// rise (the stale bytes behind a compaction, or never-written
/// zeroes), ends the walk. A record whose counts do not sum to its
/// version is not one the runtime wrote, and ends it too.
pub fn summary_records(
    log: &[u8],
    group_len: usize,
    after: u64,
) -> impl Iterator<Item = &[u8]> + '_ {
    let (mut rest, mut prev) = (log, after);
    std::iter::from_fn(move || {
        let record = summary_prefix(rest, group_len)?;
        let version = summary_version(record);
        let word =
            |i: usize| u64::from_le_bytes(record[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let counted = (1..=group_len).try_fold(0u64, |sum, i| sum.checked_add(word(i)));
        if version <= prev || counted != Some(version) {
            return None;
        }
        prev = version;
        rest = &rest[record.len()..];
        Some(record)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::demo::{Account, AccountUpdate};
    use hamband_core::object::ObjectSpec;

    fn entry() -> Entry<AccountUpdate> {
        Entry {
            rid: Rid::new(Pid(2), 17),
            update: Account::withdraw(40),
            deps: DepMap::from_entries([(Pid(0), MethodId(0), 3), (Pid(1), MethodId(0), 5)]),
        }
    }

    #[test]
    fn payload_roundtrip() {
        let e = entry();
        let bytes = e.encode_payload();
        let back = Entry::<AccountUpdate>::decode_payload(&bytes).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn slot_roundtrip() {
        let e = entry();
        let slot = e.to_slot(9, 107);
        assert_eq!(slot.len(), 107);
        let back = Entry::<AccountUpdate>::from_slot(&slot, 9).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn to_slot_into_reuses_dirty_buffers_bit_for_bit() {
        let e = entry();
        let fresh = e.to_slot(9, 107);
        // A recycled buffer full of stale garbage must not leak into
        // the encoded slot (the padding bytes are remote-written).
        let mut recycled = vec![0xffu8; 300];
        e.to_slot_into(9, 107, &mut recycled);
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn slot_ready_matches_from_slot_visibility() {
        let e = entry();
        let slot = e.to_slot(9, 107);
        assert!(slot_ready(&slot, 9));
        assert!(!slot_ready(&slot, 10), "wrong seq");
        let mut torn = slot.clone();
        let tail = torn.len() - CANARY_TRAILER;
        torn[tail..].fill(0);
        assert!(!slot_ready(&torn, 9), "missing canary trailer");
        // A trailer echoing a *different* sequence (stale epoch after
        // ring wraparound) is just as invisible as a missing one.
        let mut stale = slot.clone();
        stale[tail..].copy_from_slice(&4u64.to_le_bytes());
        assert!(!slot_ready(&stale, 9), "stale-epoch trailer");
        assert!(!slot_ready(&[0u8; 107], 1), "never written");
        assert!(!slot_ready(&[], 1), "too short");
    }

    #[test]
    fn carried_commit_is_readable_iff_the_slot_is_ready() {
        let e = entry();
        let plain = e.to_slot(9, 104);
        let mut slot = plain.clone();
        stamp_commit(&mut slot, 7);
        assert_eq!(carried_commit(&slot, 9), Some(7));
        assert_eq!(carried_commit(&slot, 10), None, "wrong seq");
        // The stamp is the eight bytes below the trailer and nothing
        // else: an `F`-ring slot, never stamped, is what it always was
        // (its bytes there are padding), and the entry reads the same.
        let at = slot.len() - CANARY_TRAILER - CARRIED_COMMIT;
        assert_eq!(plain[at..at + CARRIED_COMMIT], [0u8; 8]);
        assert_eq!(slot[..at], plain[..at]);
        assert_eq!(slot[at + CARRIED_COMMIT..], plain[at + CARRIED_COMMIT..]);
        assert_eq!(carried_commit(&plain, 9), Some(0));
        assert_eq!(Entry::<AccountUpdate>::from_slot(&slot, 9), Some(e));
        // Index landed, canary not: every way `slot_ready` says no.
        let tail = slot.len() - CANARY_TRAILER;
        let mut torn = slot.clone();
        torn[tail..].fill(0);
        let mut stale = slot.clone();
        stale[tail..].copy_from_slice(&4u64.to_le_bytes());
        let mut half = slot.clone();
        half[slot.len() - 1] = 0xff;
        for (bad, why) in [(&torn, "no canary"), (&stale, "stale epoch"), (&half, "half a canary")]
        {
            assert!(!slot_ready(bad, 9), "{why}");
            assert_eq!(carried_commit(bad, 9), None, "{why}");
        }
        assert_eq!(carried_commit(&[0u8; 24], 0), None, "too short to carry one");
    }

    #[test]
    #[should_panic(expected = "no room for the carried commit index")]
    fn stamping_over_a_payload_panics() {
        // The payload fits the slot, but not beside the index.
        let mut slot = entry().to_slot(9, 32);
        stamp_commit(&mut slot, 1);
    }

    #[test]
    fn summary_version_peeks_without_parsing() {
        let s = SummarySlot { version: 7, counts: vec![7], summary: Some(Account::deposit(1)) };
        let slot = s.to_slot(4096);
        assert_eq!(summary_version(&slot), 7);
        assert_eq!(summary_version(&[0u8; 26]), 0, "never written");
        assert_eq!(summary_version(&[1, 2]), 0, "too short");
    }

    #[test]
    fn summary_to_slot_into_reuses_dirty_buffers_bit_for_bit() {
        let s = SummarySlot { version: 4, counts: vec![4], summary: Some(Account::deposit(12)) };
        let fresh = s.to_slot(4096);
        let mut recycled = vec![0xddu8; 512];
        s.to_slot_into(4096, &mut recycled);
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn slot_with_wrong_seq_is_invisible() {
        let e = entry();
        let slot = e.to_slot(9, 107);
        assert!(Entry::<AccountUpdate>::from_slot(&slot, 10).is_none());
        assert!(Entry::<AccountUpdate>::from_slot(&slot, 8).is_none());
    }

    #[test]
    fn slot_without_canary_is_invisible() {
        let e = entry();
        let mut slot = e.to_slot(9, 107);
        let tail = slot.len() - CANARY_TRAILER;
        slot[tail..].fill(0);
        assert!(
            Entry::<AccountUpdate>::from_slot(&slot, 9).is_none(),
            "a torn write must not be readable"
        );
    }

    #[test]
    fn empty_slot_is_invisible() {
        let slot = vec![0u8; 107];
        assert!(Entry::<AccountUpdate>::from_slot(&slot, 1).is_none());
    }

    #[test]
    fn summary_roundtrip() {
        let acc = Account::default();
        let s = SummarySlot {
            version: 4,
            counts: vec![4],
            summary: Some(acc.apply(&0, &Account::deposit(0))).map(|_| Account::deposit(12)),
        };
        let size = 8 + 8 + 2 + 96 + 8;
        let slot = s.to_slot(size);
        let back = SummarySlot::<AccountUpdate>::from_slot(&slot, 1).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn summary_seqlock_rejects_mismatch() {
        let s = SummarySlot { version: 4, counts: vec![4], summary: Some(Account::deposit(12)) };
        let size = 8 + 8 + 2 + 96 + 8;
        let mut slot = s.to_slot(size);
        // Simulate a torn overwrite: trailing version not yet landed.
        let end = slot.len();
        slot[end - 8..].copy_from_slice(&3u64.to_le_bytes());
        assert!(SummarySlot::<AccountUpdate>::from_slot(&slot, 1).is_none());
    }

    #[test]
    fn summary_write_covers_only_used_bytes() {
        let s = SummarySlot { version: 1, counts: vec![1], summary: Some(Account::deposit(3)) };
        let slot = s.to_slot(4096);
        assert!(slot.len() < 40, "write size tracks content, got {}", slot.len());
    }

    #[test]
    fn never_written_summary_is_none() {
        let size = 8 + 8 + 2 + 96 + 8;
        let slot = vec![0u8; size];
        assert!(SummarySlot::<AccountUpdate>::from_slot(&slot, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_payload_panics() {
        let e = Entry {
            rid: Rid::new(Pid(0), 0),
            update: Account::deposit(u64::MAX),
            deps: DepMap::empty(),
        };
        let _ = e.to_slot(1, 12);
    }

    /// Test-only update whose encoding is an arbitrary-length blob, to
    /// drive payloads past the u16 length field.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob(Vec<u8>);

    impl Wire for Blob {
        fn encode(&self, w: &mut Writer) {
            w.lp_bytes(&self.0);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(Blob(r.lp_bytes()?.to_vec()))
        }
    }

    #[test]
    #[should_panic(expected = "overflows the u16 length field")]
    fn entry_payload_past_u16_panics_instead_of_truncating() {
        // Regression: with a slot large enough to hold it, a >64 KiB
        // payload used to have its length silently truncated by
        // `as u16`, producing a decodable-but-corrupt entry.
        let e = Entry {
            rid: Rid::new(Pid(0), 1),
            update: Blob(vec![0x5a; (u16::MAX as usize) + 10]),
            deps: DepMap::empty(),
        };
        let _ = e.to_slot(1, 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "overflows the u16 length field")]
    fn summary_payload_past_u16_panics_instead_of_truncating() {
        // Regression: the summary payload cap scales with the workload
        // (`total_ops * 16`) and can legitimately exceed u16::MAX, at
        // which point `as u16` used to truncate the recorded length.
        let s = SummarySlot {
            version: 1,
            counts: vec![1],
            summary: Some(Blob(vec![0xa5; (u16::MAX as usize) + 1])),
        };
        let _ = s.to_slot(2 * 1024 * 1024);
    }

    /// The u16 field bounds a record, not the log: a log of records
    /// each well under it passes 64 KiB in total and walks back whole.
    #[test]
    fn a_log_grows_past_64_kib_while_every_record_stays_under_u16_max() {
        let size = 256 * 1024;
        let records: Vec<SummarySlot<Blob>> = (1..=3u64)
            .map(|v| SummarySlot {
                version: v,
                counts: vec![v],
                summary: Some(Blob(vec![v as u8; 40_000])),
            })
            .collect();
        let mut log = Vec::new();
        for r in &records {
            SummarySlot::append_parts(r.version, &r.counts, r.summary.as_ref(), size, &mut log);
        }
        assert!(log.len() > u16::MAX as usize, "{} bytes", log.len());
        let back: Vec<SummarySlot<Blob>> = summary_records(&log, 1, 0)
            .map(|record| SummarySlot::from_slot(record, 1).expect("a whole record"))
            .collect();
        assert_eq!(back, records);
        assert_eq!(summary_records(&log, 1, 2).count(), 0, "nothing is newer than version 2 at 0");
    }

    #[test]
    fn biggest_legal_payload_roundtrips() {
        // The u16 boundary itself is fine in both directions.
        let e = Entry {
            rid: Rid::new(Pid(1), 2),
            // lp_bytes spends 3 varint bytes on the length, and the
            // rid/deps header a few more; stay just under the field max.
            update: Blob(vec![7u8; (u16::MAX as usize) - 8]),
            deps: DepMap::empty(),
        };
        let slot = e.to_slot(3, 128 * 1024);
        let back = Entry::<Blob>::from_slot(&slot, 3).unwrap();
        assert_eq!(back, e);
    }

    /// A compaction writes one record at offset 0, so a short image can
    /// sit over the tail of a longer, older one: the first record is the
    /// short image, byte for byte.
    #[test]
    fn summary_prefix_is_the_last_image_written() {
        let image = |version: u64, amount: u64| {
            SummarySlot {
                version,
                counts: vec![version, 0],
                summary: Some(Account::deposit(amount)),
            }
            .to_slot(128)
        };
        let (long, short) = (image(1, u64::MAX), image(2, 1));
        assert!(short.len() < long.len());
        let mut slot = vec![0u8; 128];
        assert_eq!(summary_prefix(&slot, 2), None, "never written");
        slot[..long.len()].copy_from_slice(&long);
        slot[..short.len()].copy_from_slice(&short);
        assert_eq!(summary_prefix(&slot, 2), Some(&short[..]));
        slot[short.len() - 1] ^= 1;
        assert_eq!(summary_prefix(&slot, 2), None, "torn trailer");
    }
}
