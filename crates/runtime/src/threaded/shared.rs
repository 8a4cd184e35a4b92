//! Process-shared region memory for the threaded backend: every
//! registered region of every node as `AtomicU64` words behind one
//! `Arc`, with per-source write-permission bits.
//!
//! ## Memory-ordering discipline
//!
//! * **Writers store words in ascending address order, each with
//!   `Release`.** A store that covers only part of a boundary word
//!   loads the word (`Relaxed`), merges the covered bytes, and stores
//!   the result back (`Release`) — sound because slot strides are
//!   8-aligned ([`RuntimeConfig::entry_size`] et al.), so at any
//!   moment every word has a single writer and the relaxed load cannot
//!   observe a concurrent store to the same word.
//! * **Readers load words in descending address order, each with
//!   `Acquire`.** Both slot formats place their validation trailer
//!   *after* the payload (the ring slot's seq-echo canary trailer, the
//!   summary slot's trailing version), so a descending reader loads
//!   the trailer first; when its `Acquire` observes the writer's
//!   `Release` of that word, every earlier (lower-address) store of
//!   the same slot write happens-before the reader's subsequent loads.
//!   A reader that instead catches a *newer* write in its lower words
//!   necessarily sees that write's leading validation word too (the
//!   writer stored it first), and the trailer/leader mismatch rejects
//!   the snapshot. See `DESIGN.md` § "Threading and memory-ordering
//!   model" for the full argument.
//!
//! Words hold region bytes little-endian. There is no atomic
//! read-modify-write: the protocol avoids CAS by design (§2), so the
//! loads and stores above are the whole interface.
//!
//! [`RuntimeConfig::entry_size`]: crate::config::RuntimeConfig::entry_size

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rdma_sim::{CompletionStatus, NodeId, RegionId};

/// One registered region: its bytes as atomic words plus the
/// per-source write-permission bits (the owner is always allowed).
#[derive(Debug)]
struct Region {
    words: Box<[AtomicU64]>,
    /// Byte length (the words cover `len.div_ceil(8)` slots; a tail
    /// word's spare bytes are unused padding).
    len: usize,
    /// `perms[source]`: may `source` one-sided-WRITE into this region?
    perms: Box<[AtomicBool]>,
}

/// All nodes' region memory, shared across the replica threads.
#[derive(Debug)]
pub(crate) struct SharedMem {
    n: usize,
    /// `regions[node][region]`.
    regions: Vec<Vec<Region>>,
}

impl SharedMem {
    pub(crate) fn new(n: usize) -> SharedMem {
        SharedMem { n, regions: (0..n).map(|_| Vec::new()).collect() }
    }

    /// Register a region of `size` bytes on every node (the threaded
    /// analogue of `Simulator::add_region_all`). Setup-time only: runs
    /// before the `SharedMem` is shared with any thread.
    pub(crate) fn add_region_all(&mut self, size: usize) -> RegionId {
        let id = RegionId(self.regions[0].len());
        let n = self.n;
        for node in &mut self.regions {
            node.push(Region {
                words: (0..size.div_ceil(8)).map(|_| AtomicU64::new(0)).collect(),
                len: size,
                perms: (0..n).map(|_| AtomicBool::new(true)).collect(),
            });
        }
        id
    }

    /// Access check mirroring the simulator's: reads ignore write
    /// permission, the owner's own writes ignore it too.
    pub(crate) fn check(
        &self,
        issuer: NodeId,
        target: NodeId,
        region: RegionId,
        offset: usize,
        len: usize,
        is_write: bool,
    ) -> CompletionStatus {
        let Some(r) = self.regions[target.index()].get(region.index()) else {
            return CompletionStatus::OutOfBounds;
        };
        if offset + len > r.len {
            return CompletionStatus::OutOfBounds;
        }
        if is_write && issuer != target && !r.perms[issuer.index()].load(Ordering::Acquire) {
            return CompletionStatus::AccessDenied;
        }
        CompletionStatus::Success
    }

    /// Copy `[offset, offset+len)` of a region into `out`, loading the
    /// covering words in **descending** address order with `Acquire`.
    /// Bounds must have been checked.
    pub(crate) fn read_into(
        &self,
        node: NodeId,
        region: RegionId,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        out.resize(len, 0);
        if len == 0 {
            return;
        }
        let r = &self.regions[node.index()][region.index()];
        let first = offset / 8;
        let last = (offset + len - 1) / 8;
        for w in (first..=last).rev() {
            let bytes = r.words[w].load(Ordering::Acquire).to_le_bytes();
            // Intersect word `w`'s byte span with the requested range.
            let word_base = w * 8;
            let from = offset.max(word_base);
            let to = (offset + len).min(word_base + 8);
            out[from - offset..to - offset]
                .copy_from_slice(&bytes[from - word_base..to - word_base]);
        }
    }

    /// Store `data` at `[offset, ...)` of a region, storing the
    /// covering words in **ascending** address order with `Release`.
    /// Partially covered boundary words are read-merge-written — sound
    /// under the single-writer-per-word alignment invariant. Bounds
    /// and permission must have been checked.
    pub(crate) fn write(&self, node: NodeId, region: RegionId, offset: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let r = &self.regions[node.index()][region.index()];
        let first = offset / 8;
        let last = (offset + data.len() - 1) / 8;
        for w in first..=last {
            let word_base = w * 8;
            let from = offset.max(word_base);
            let to = (offset + data.len()).min(word_base + 8);
            let mut bytes = if to - from == 8 {
                [0u8; 8]
            } else {
                r.words[w].load(Ordering::Relaxed).to_le_bytes()
            };
            bytes[from - word_base..to - word_base]
                .copy_from_slice(&data[from - offset..to - offset]);
            r.words[w].store(u64::from_le_bytes(bytes), Ordering::Release);
        }
    }

    /// Grant or revoke `source`'s write permission on `(node, region)`.
    pub(crate) fn set_perm(&self, node: NodeId, region: RegionId, source: NodeId, allowed: bool) {
        self.regions[node.index()][region.index()].perms[source.index()]
            .store(allowed, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> (SharedMem, RegionId) {
        let mut m = SharedMem::new(2);
        let r = m.add_region_all(64);
        (m, r)
    }

    #[test]
    fn unaligned_spans_roundtrip() {
        let (m, r) = mem();
        let data: Vec<u8> = (0..23).collect();
        m.write(NodeId(0), r, 5, &data);
        let mut out = Vec::new();
        m.read_into(NodeId(0), r, 5, 23, &mut out);
        assert_eq!(out, data);
        // Neighbouring bytes stay zero (boundary-word merge).
        m.read_into(NodeId(0), r, 0, 64, &mut out);
        assert_eq!(&out[0..5], &[0; 5]);
        assert_eq!(&out[28..], &[0; 36]);
    }

    #[test]
    fn checks_mirror_simulator_semantics() {
        let (m, r) = mem();
        assert_eq!(m.check(NodeId(0), NodeId(1), r, 60, 8, false), CompletionStatus::OutOfBounds);
        assert_eq!(
            m.check(NodeId(0), NodeId(1), RegionId(9), 0, 1, false),
            CompletionStatus::OutOfBounds
        );
        m.set_perm(NodeId(1), r, NodeId(0), false);
        assert_eq!(m.check(NodeId(0), NodeId(1), r, 0, 8, true), CompletionStatus::AccessDenied);
        assert_eq!(
            m.check(NodeId(0), NodeId(1), r, 0, 8, false),
            CompletionStatus::Success,
            "reads ignore write permission"
        );
        assert_eq!(
            m.check(NodeId(1), NodeId(1), r, 0, 8, true),
            CompletionStatus::Success,
            "the owner's own writes ignore it too"
        );
    }
}
