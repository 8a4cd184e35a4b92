//! The durability seam: what a replica must be able to read back after
//! a crash-restart, and in which format.
//!
//! The paper's failure model is crash-stop, but a production replica
//! restarts. The seam this module introduces separates every layer's
//! *hard* state (what must survive a power cycle) from its *soft* state
//! (reconstructible from hard state plus the fabric):
//!
//! * **Region durability** is declared at allocation time
//!   ([`Layout::plan`](crate::layout::Layout::plan) passes a `durable`
//!   flag per region): remote one-sided WRITEs become durable as they
//!   land (battery-backed NIC placement), while *local* CPU stores are
//!   volatile until an explicit [`Transport::fence_region`] — an RDMA
//!   WRITE completion does not imply remote durability, so fence points
//!   are explicit in the code, never implied by completions.
//! * **The per-node persist log** (this module) is the replica's own
//!   write-ahead record of applied state: every applied ring entry and
//!   every consensus hard-state transition (epoch, vote, committed
//!   prefix of a [`GroupEngine`](crate::conf::GroupEngine)) is appended
//!   as a [`LogRecord`] and fenced *before* the side effect it covers
//!   becomes observable (ring-reader head publication, leader ack).
//!
//! The on-disk(-simulated) format is versioned and self-delimiting:
//! an 8-byte header (magic + format version) followed by records of
//! `[len: u32 LE][body][canary: u8]`, where the canary is a fold over
//! the body. Replay stops cleanly at the first zero length or canary
//! mismatch — that is the torn frontier, everything past the last fence
//! is discarded — while a header from a *newer* format version fails
//! loudly instead of misreading ([`FormatError::NewerVersion`]).

use rdma_sim::RegionId;

use crate::transport::Transport;

/// Magic word leading every persist log ("HMBD" big-endian).
pub const MAGIC: u32 = 0x484D_4244;

/// The current persist-log format version. Decoders reject anything
/// newer; anything older would be migrated (no older versions exist
/// yet).
pub const FORMAT_VERSION: u16 = 1;

/// Bytes of the log header: magic (4) + version (2) + reserved (2).
pub const HEADER_BYTES: usize = 8;

/// Whether replicas maintain durable state for crash-restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Crash-stop only (the paper's model): no persist log, no fences,
    /// no durable-region shadowing. Byte-identical traces to the
    /// pre-seam runtime.
    Off,
    /// Maintain the persist log with explicit fence points; a node hit
    /// by [`Fault::Restart`](rdma_sim::Fault) replays it and rejoins.
    Fenced,
}

/// Why a persist log could not be decoded at all (per-record damage is
/// not an error: it marks the torn frontier and replay stops there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// The header magic is wrong — this is not a persist log.
    BadMagic(u32),
    /// The log was written by a newer format version than this decoder
    /// understands. Reading it anyway could misparse hard state, so
    /// this fails loudly instead.
    NewerVersion(u16),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic(m) => write!(f, "persist log magic {m:#010x} != {MAGIC:#010x}"),
            FormatError::NewerVersion(v) => write!(
                f,
                "persist log format v{v} is newer than this decoder (v{FORMAT_VERSION}); refusing to guess"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

/// One durable record: a unit of hard state some layer declared against
/// the seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An applied conflict-free ring entry: the raw slot bytes of
    /// source `src`'s ring at the sequence the slot itself carries.
    /// Logged by the issuer at issue time and by every consumer before
    /// it publishes its reader head past the entry.
    FreeSlot {
        /// The ring's owning source node.
        src: u32,
        /// The raw encoded slot (seq prefix + entry + canary trailer).
        slot: Vec<u8>,
    },
    /// An applied conflicting ring entry of mapped group `group`
    /// (same raw-slot encoding as [`LogRecord::FreeSlot`]).
    ConfSlot {
        /// Mapped group index (sync group × shard).
        group: u32,
        /// The raw encoded slot.
        slot: Vec<u8>,
    },
    /// A [`GroupEngine`](crate::conf::GroupEngine) hard-state
    /// transition: the consensus state that must never roll back.
    GroupHard {
        /// Mapped group index.
        group: u32,
        /// Highest epoch this node has adopted a leader for.
        epoch: u64,
        /// Highest epoch this node has promised (voted for).
        promised: u64,
        /// Committed prefix of the group's `L` ring as last persisted.
        commit: u64,
    },
}

const REC_FREE: u8 = 1;
const REC_CONF: u8 = 2;
const REC_HARD: u8 = 3;

/// The canary closing each record: a multiplicative fold over the body,
/// with a computed value of zero remapped to `0xA5`. The remap makes
/// the *stored* canary never zero — and a torn record's canary position
/// reads back zero (the region tail was never written), so a record cut
/// anywhere before its canary byte can never validate, no matter what
/// the fold of its zero-filled body happens to be.
fn canary(body: &[u8]) -> u8 {
    let c = body.iter().fold(0x5Au8, |a, &b| a.wrapping_mul(31).wrapping_add(b));
    if c == 0 {
        0xA5
    } else {
        c
    }
}

/// Encode the log header (magic + current format version) into `out`.
pub fn encode_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
}

/// Append the framed encoding of `rec` to `out`:
/// `[len u32 LE][body][canary u8]` with `len = body.len()`.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // len placeholder
    match rec {
        LogRecord::FreeSlot { src, slot } => {
            out.push(REC_FREE);
            out.extend_from_slice(&src.to_le_bytes());
            out.extend_from_slice(slot);
        }
        LogRecord::ConfSlot { group, slot } => {
            out.push(REC_CONF);
            out.extend_from_slice(&group.to_le_bytes());
            out.extend_from_slice(slot);
        }
        LogRecord::GroupHard { group, epoch, promised, commit } => {
            out.push(REC_HARD);
            out.extend_from_slice(&group.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&promised.to_le_bytes());
            out.extend_from_slice(&commit.to_le_bytes());
        }
    }
    let body_len = out.len() - start - 4;
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    let c = canary(&out[start + 4..]);
    out.push(c);
}

fn decode_body(body: &[u8]) -> Option<LogRecord> {
    let (&tag, rest) = body.split_first()?;
    let u32_at = |b: &[u8], o: usize| Some(u32::from_le_bytes(b.get(o..o + 4)?.try_into().ok()?));
    let u64_at = |b: &[u8], o: usize| Some(u64::from_le_bytes(b.get(o..o + 8)?.try_into().ok()?));
    match tag {
        REC_FREE => {
            Some(LogRecord::FreeSlot { src: u32_at(rest, 0)?, slot: rest.get(4..)?.to_vec() })
        }
        REC_CONF => {
            Some(LogRecord::ConfSlot { group: u32_at(rest, 0)?, slot: rest.get(4..)?.to_vec() })
        }
        REC_HARD => {
            if rest.len() != 4 + 24 {
                return None;
            }
            Some(LogRecord::GroupHard {
                group: u32_at(rest, 0)?,
                epoch: u64_at(rest, 4)?,
                promised: u64_at(rest, 12)?,
                commit: u64_at(rest, 20)?,
            })
        }
        _ => None,
    }
}

/// Decode a whole persist log image. Returns the valid records and the
/// byte offset one past the last valid record (the append cursor for a
/// restarted writer).
///
/// Per-record damage — a zero length, a length overrunning the region,
/// a canary mismatch, an unknown record tag — is the *torn frontier*:
/// decoding stops cleanly there (everything before it was fenced and is
/// trusted; everything at or past it is discarded). Only a damaged or
/// too-new *header* is an error.
pub fn decode_log(bytes: &[u8]) -> Result<(Vec<LogRecord>, usize), FormatError> {
    assert!(bytes.len() >= HEADER_BYTES, "persist region smaller than its header");
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version > FORMAT_VERSION {
        return Err(FormatError::NewerVersion(version));
    }
    let mut records = Vec::new();
    let mut at = HEADER_BYTES;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len == 0 {
            break;
        }
        let Some(body) = bytes.get(at + 4..at + 4 + len) else { break };
        let Some(&c) = bytes.get(at + 4 + len) else { break };
        if c != canary(body) {
            break;
        }
        let Some(rec) = decode_body(body) else { break };
        records.push(rec);
        at += 4 + len + 1;
    }
    Ok((records, at))
}

/// A replica's persist log over one durable region: framed appends at a
/// cursor, explicit fences, and whole-log replay after a restart.
///
/// Appends are local CPU stores ([`Transport::local_write`]) — volatile
/// until [`NodeLog::fence`]. The protocol modules append records and
/// fence at their own seam points (before a reader-head publication,
/// before a vote leaves the node); the log itself never decides when.
#[derive(Debug)]
pub struct NodeLog {
    region: RegionId,
    cap: usize,
    cursor: usize,
    buf: Vec<u8>,
}

impl NodeLog {
    /// A log over `region` of `cap` bytes. Call [`NodeLog::init`] once
    /// at node start (it writes and fences the header).
    pub fn new(region: RegionId, cap: usize) -> Self {
        assert!(cap > HEADER_BYTES, "persist region must hold at least its header");
        NodeLog { region, cap, cursor: HEADER_BYTES, buf: Vec::new() }
    }

    /// Write and fence the header. The log is unreplayable until this
    /// is durable, so it fences immediately.
    pub fn init<T: Transport>(&mut self, ctx: &mut T) {
        self.buf.clear();
        encode_header(&mut self.buf);
        let buf = std::mem::take(&mut self.buf);
        ctx.local_write(self.region, 0, &buf);
        ctx.fence_region(self.region);
        self.buf = buf;
    }

    /// Append one record at the cursor (volatile until the next
    /// [`NodeLog::fence`]). Panics if the region is full: the log is
    /// sized by [`PERSIST_LOG_BYTES`](crate::config::PERSIST_LOG_BYTES)
    /// and overflowing it silently would forfeit the durability claim.
    pub fn append<T: Transport>(&mut self, ctx: &mut T, rec: &LogRecord) {
        self.buf.clear();
        encode_record(rec, &mut self.buf);
        assert!(
            self.cursor + self.buf.len() <= self.cap,
            "persist log overflow at {} + {} > {} bytes",
            self.cursor,
            self.buf.len(),
            self.cap
        );
        let buf = std::mem::take(&mut self.buf);
        ctx.local_write(self.region, self.cursor, &buf);
        self.cursor += buf.len();
        self.buf = buf;
    }

    /// Fence the log region: everything appended so far survives a
    /// restart even when the restart loses unfenced writes.
    pub fn fence<T: Transport>(&mut self, ctx: &mut T) {
        ctx.fence_region(self.region);
    }

    /// Replay after a restart: decode the durable image, position the
    /// append cursor at the torn frontier, and return the trusted
    /// records in append order.
    pub fn replay<T: Transport>(&mut self, ctx: &mut T) -> Vec<LogRecord> {
        let image = ctx.local(self.region, 0, self.cap).to_vec();
        let (records, cursor) =
            decode_log(&image).expect("own persist log decodes (header is fenced at init)");
        self.cursor = cursor;
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::FreeSlot { src: 2, slot: vec![1, 0, 0, 0, 0, 0, 0, 0, 9, 9] },
            LogRecord::ConfSlot { group: 1, slot: vec![7; 24] },
            LogRecord::GroupHard { group: 3, epoch: 4, promised: 5, commit: 600 },
        ]
    }

    fn encode_all(recs: &[LogRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(&mut out);
        for r in recs {
            encode_record(r, &mut out);
        }
        out
    }

    /// Golden snapshot of the versioned encoding: any change to the
    /// framing, tags, field order, or canary is a format change and
    /// must bump `FORMAT_VERSION` (and update this test deliberately).
    #[test]
    fn golden_encoding_snapshot() {
        let image = encode_all(&sample_records());
        let expect: Vec<u8> = vec![
            // header: magic "HMBD" LE + version 1 + reserved
            0x44, 0x42, 0x4D, 0x48, 0x01, 0x00, 0x00, 0x00, //
            // FreeSlot src=2, 10-byte slot: len=15
            15, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 9, 0x24, //
            // ConfSlot group=1, 24 bytes of 7: len=29
            29, 0, 0, 0, 2, 1, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
            7, 7, 7, 7, 0xC7, //
            // GroupHard group=3 epoch=4 promised=5 commit=600: len=29
            29, 0, 0, 0, 3, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0x58, 0x02,
            0, 0, 0, 0, 0, 0, 0x87,
        ];
        assert_eq!(image, expect, "persist format drifted without a FORMAT_VERSION bump");
    }

    #[test]
    fn roundtrip_decodes_to_cursor() {
        let recs = sample_records();
        let image = encode_all(&recs);
        let (got, cursor) = decode_log(&image).expect("decodes");
        assert_eq!(got, recs);
        assert_eq!(cursor, image.len());
    }

    /// Property test: random record sequences round-trip, and any
    /// truncation of the image decodes to a prefix of the records
    /// (replay never invents state past the torn frontier).
    #[test]
    fn random_roundtrip_and_truncation_prefix() {
        let mut rng = StdRng::seed_from_u64(0xD06_F00D);
        for _ in 0..200 {
            let recs: Vec<LogRecord> = (0..rng.gen_range(0..20))
                .map(|_| match rng.gen_range(0..3) {
                    0 => LogRecord::FreeSlot {
                        src: rng.gen_range(0..8),
                        slot: (0..rng.gen_range(1..64))
                            .map(|_| rng.gen_range(0..=u8::MAX))
                            .collect(),
                    },
                    1 => LogRecord::ConfSlot {
                        group: rng.gen_range(0..8),
                        slot: (0..rng.gen_range(1..64))
                            .map(|_| rng.gen_range(0..=u8::MAX))
                            .collect(),
                    },
                    _ => LogRecord::GroupHard {
                        group: rng.gen_range(0..8),
                        epoch: rng.gen_range(0..=u64::MAX),
                        promised: rng.gen_range(0..=u64::MAX),
                        commit: rng.gen_range(0..=u64::MAX),
                    },
                })
                .collect();
            let image = encode_all(&recs);
            let (got, cursor) = decode_log(&image).expect("well-formed image decodes");
            assert_eq!(got, recs);
            assert_eq!(cursor, image.len());
            // Truncate anywhere: the decode is a prefix, never garbage.
            let cut = rng.gen_range(HEADER_BYTES..=image.len());
            let mut torn = image[..cut].to_vec();
            torn.resize(image.len() + 64, 0); // zero tail, like a fresh region
            let (prefix, at) = decode_log(&torn).expect("torn image still decodes a prefix");
            assert!(prefix.len() <= recs.len());
            assert_eq!(prefix[..], recs[..prefix.len()], "prefix property violated");
            assert!(at <= cut.max(HEADER_BYTES));
        }
    }

    #[test]
    fn corrupt_canary_is_the_frontier() {
        let recs = sample_records();
        let mut image = encode_all(&recs);
        let last = image.len() - 1;
        image[last] ^= 0xFF; // smash the final record's canary
        image.resize(image.len() + 32, 0);
        let (got, _) = decode_log(&image).expect("header intact");
        assert_eq!(got.len(), recs.len() - 1, "damaged record discarded, prefix kept");
    }

    #[test]
    fn newer_format_version_fails_loudly() {
        let mut image = encode_all(&sample_records());
        let newer = FORMAT_VERSION + 1;
        image[4..6].copy_from_slice(&newer.to_le_bytes());
        let err = decode_log(&image).expect_err("newer version must not decode");
        assert_eq!(err, FormatError::NewerVersion(newer));
        assert!(err.to_string().contains("newer"), "error message names the cause");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut image = encode_all(&[]);
        image[0] = 0;
        assert!(matches!(decode_log(&image), Err(FormatError::BadMagic(_))));
    }
}
