//! Registered memory: a node's region, its per-source write
//! permissions and its durability model.

/// A registered memory region.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    pub(crate) bytes: Vec<u8>,
    /// Per-source write permission (the owner itself is always allowed).
    pub(crate) write_allowed: Vec<bool>,
    /// Durable shadow copy (`Some` iff the region was registered
    /// durable). Remote one-sided writes and CAS swaps write through to
    /// it on landing — an RDMA WRITE into persistent memory is durable
    /// once placed — while *local* CPU stores reach it only at an
    /// explicit [`Ctx::fence_region`](crate::Ctx::fence_region). A
    /// crash-restart that loses unfenced writes reverts `bytes` to this
    /// copy.
    pub(crate) shadow: Option<Vec<u8>>,
    /// Local-store span not yet fenced to the shadow (durable regions
    /// only): `(lo, hi)` byte offsets, half-open.
    pub(crate) dirty: Option<(usize, usize)>,
}

impl Region {
    pub(crate) fn new(size: usize, sources: usize, durable: bool) -> Region {
        Region {
            bytes: vec![0; size],
            write_allowed: vec![true; sources],
            shadow: durable.then(|| vec![0; size]),
            dirty: None,
        }
    }

    /// Write-through for a remotely landed range (durable-on-landing).
    pub(crate) fn land_through(&mut self, offset: usize, len: usize) {
        if let Some(shadow) = &mut self.shadow {
            shadow[offset..offset + len].copy_from_slice(&self.bytes[offset..offset + len]);
        }
    }

    /// Note an unfenced local store over `[offset, offset + len)`.
    pub(crate) fn mark_dirty(&mut self, offset: usize, len: usize) {
        if self.shadow.is_some() {
            let (lo, hi) = self.dirty.unwrap_or((offset, offset + len));
            self.dirty = Some((lo.min(offset), hi.max(offset + len)));
        }
    }

    /// Make every local store so far durable (copy the dirty span to
    /// the shadow). No-op for volatile regions or when nothing is
    /// dirty.
    pub(crate) fn fence(&mut self) {
        if let (Some(shadow), Some((lo, hi))) = (&mut self.shadow, self.dirty.take()) {
            shadow[lo..hi].copy_from_slice(&self.bytes[lo..hi]);
        }
    }

    /// Apply crash-restart semantics: a volatile region loses all
    /// content; a durable one either keeps everything (`!lose_unfenced`
    /// — the shadow is resynchronized) or reverts to its last durable
    /// image.
    pub(crate) fn restart(&mut self, lose_unfenced: bool) {
        match &mut self.shadow {
            None => self.bytes.iter_mut().for_each(|b| *b = 0),
            Some(shadow) => {
                if lose_unfenced {
                    self.bytes.copy_from_slice(shadow);
                } else {
                    shadow.copy_from_slice(&self.bytes);
                }
            }
        }
        self.dirty = None;
    }
}
