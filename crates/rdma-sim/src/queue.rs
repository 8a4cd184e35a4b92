//! The global event queue: a binary heap of 16-byte keys over a slab
//! that holds the actions.
//!
//! An [`Action`] is 56 bytes (a landing write carries its payload's
//! buffer handle, a delivery its event) and is written once, into a
//! slab slot reused through a free list, and read once when its key
//! pops. A key is one `u128`: `time` in bits 64–127, `seq` in bits
//! 24–63 and the slot in bits 0–23, so one integer comparison orders
//! entries as the `(time, seq, slot)` tuple does. `push` panics rather
//! than misorder once a `seq` reaches 2^40 or a slot 2^24.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fabric::Action;
use crate::time::SimTime;

/// `(time, seq, slot)` packed so that `u128` order is tuple order.
fn key(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(seq < 1 << 40, "fewer than 2^40 queued entries over a run");
    assert!(slot < 1 << 24, "fewer than 2^24 pending events");
    u128::from(time.0) << 64 | u128::from(seq << 24 | u64::from(slot))
}

/// Pending actions ordered by `(time, seq)`: `seq` is the order entries
/// were first queued in, so equal-time entries pop in that order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<Option<Action>>,
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, action: Action) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(action);
                slot
            }
            None => {
                self.slab.push(Some(action));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(key(time, seq, slot)));
    }

    /// When the earliest entry is due.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| SimTime((key >> 64) as u64))
    }

    /// Whether an entry pushed now under `(time, seq)` would be the next
    /// to pop: every queued entry orders after it.
    pub(crate) fn pops_first(&self, time: SimTime, seq: u64) -> bool {
        self.heap
            .peek()
            .is_none_or(|&Reverse(key)| key >> 24 > (u128::from(time.0) << 40 | u128::from(seq)))
    }

    /// Remove the earliest entry: `(time, seq, action)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Action)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = key as u32 & 0xff_ffff;
        let action = self.slab[slot as usize].take().expect("a queued key owns its slot");
        self.free.push(slot);
        Some((SimTime((key >> 64) as u64), (key as u64) >> 24, action))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::verbs::NodeId;

    #[test]
    fn pops_by_time_then_seq_and_reuses_slots() {
        let mut q = EventQueue::default();
        let fault = |f| Action::InjectFault(Box::new(f));
        q.push(SimTime(10), 0, fault(Fault::Crash(NodeId(0))));
        q.push(SimTime(5), 1, fault(Fault::Crash(NodeId(1))));
        q.push(SimTime(5), 2, fault(Fault::TornWrites(NodeId(2))));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_time(), Some(SimTime(5)));
        let (t1, s1, a1) = q.pop().unwrap();
        assert_eq!((t1, s1), (SimTime(5), 1));
        assert!(matches!(a1, Action::InjectFault(f) if matches!(*f, Fault::Crash(NodeId(1)))));
        // An entry queued under an older seq goes ahead of a younger one
        // at the same time, whatever slot it landed in.
        q.push(SimTime(5), 0, Action::Wake { node: NodeId(3) });
        let (_, s2, a2) = q.pop().unwrap();
        assert_eq!(s2, 0);
        assert!(matches!(a2, Action::Wake { node: NodeId(3) }));
        let (_, s3, a3) = q.pop().unwrap();
        assert_eq!(s3, 2);
        assert!(matches!(a3, Action::InjectFault(f) if matches!(*f, Fault::TornWrites(_))));
        let (t4, _, _) = q.pop().unwrap();
        assert_eq!(t4, SimTime(10));
        assert!(q.is_empty() && q.pop().is_none() && q.next_time().is_none());
        assert_eq!(q.slab.len(), 3, "four pushes, three slots");
    }

    /// Pops in exactly the order of a sorted set of `(time, seq, slot)`
    /// tuples, over a pseudo-random run of pushes and pops with equal
    /// times, reused slots, re-pushed `(time, seq)` pairs (the slot
    /// breaks the tie) and seqs below ones already popped (as `Heal`
    /// and `arm_wake` push).
    #[test]
    fn pops_in_tuple_order_over_a_random_run() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut q = EventQueue::default();
        let mut reference = BTreeSet::<(SimTime, u64, u32)>::new();
        // The tag of the action each occupied slot holds.
        let mut tag_at = BTreeMap::<u32, usize>::new();
        let (mut now, mut seq, mut tag) = (0u64, 0u64, 0usize);
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        let (mut reused, mut ties, mut old_seqs) = (0, 0, 0);
        for step in 0u64.. {
            let draining = step >= 18_000;
            if !draining && (reference.is_empty() || next(100) < 55) {
                let (time, s) = match next(10) {
                    // A re-push of a pair already queued: same time, same seq.
                    0 if !reference.is_empty() => {
                        ties += 1;
                        let &(t, s, _) =
                            reference.iter().nth(next(reference.len() as u64) as usize).unwrap();
                        (t, s)
                    }
                    // Under a seq below one already popped.
                    1 if !popped.is_empty() => {
                        old_seqs += 1;
                        let (_, s) = popped[next(popped.len() as u64) as usize];
                        (SimTime(now + next(4)), s.saturating_sub(next(3)))
                    }
                    // Near the end of time: the top bits of the clock count.
                    2 => (SimTime(u64::MAX - next(3)), seq),
                    _ => (SimTime(now + next(8)), seq),
                };
                seq += 1;
                let slot = q.free.last().copied().unwrap_or(q.slab.len() as u32);
                if (slot as usize) < q.slab.len() {
                    reused += 1;
                }
                q.push(time, s, Action::Wake { node: NodeId(tag) });
                assert!(reference.insert((time, s, slot)), "a slot holds one entry");
                tag_at.insert(slot, tag);
                tag += 1;
            } else {
                let expected = reference.pop_first();
                assert_eq!(q.next_time(), expected.map(|(t, _, _)| t));
                let got = q.pop();
                match (expected, got) {
                    (None, None) => break,
                    (Some((t, s, slot)), Some((gt, gs, Action::Wake { node }))) => {
                        assert_eq!((gt, gs), (t, s), "step {step}");
                        assert_eq!(
                            node.index(),
                            tag_at.remove(&slot).unwrap(),
                            "step {step}: tie broken by slot"
                        );
                        if t.0 < u64::MAX - 8 {
                            now = t.0;
                        }
                        popped.push((t, s));
                    }
                    (e, g) => panic!(
                        "step {step}: expected {e:?}, popped {:?}",
                        g.map(|(t, s, _)| (t, s))
                    ),
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(q.is_empty() && reference.is_empty());
        assert!(reused > 1000 && ties > 100 && old_seqs > 100, "{reused} {ties} {old_seqs}");
    }

    /// An entry handled in place instead of pushed must be one that
    /// would have popped next: earlier than every queued `(time, seq)`,
    /// a tie included, since the slot would break it.
    #[test]
    fn pops_first_orders_by_time_then_seq() {
        let mut q = EventQueue::default();
        assert!(q.pops_first(SimTime(0), 0), "an empty queue");
        q.push(SimTime(5), 3, Action::Wake { node: NodeId(0) });
        assert!(q.pops_first(SimTime(4), 9));
        assert!(q.pops_first(SimTime(5), 2));
        assert!(!q.pops_first(SimTime(5), 3), "a tie");
        assert!(!q.pops_first(SimTime(5), 4));
        assert!(!q.pops_first(SimTime(6), 0));
        q.push(SimTime(u64::MAX), (1 << 40) - 1, Action::Wake { node: NodeId(1) });
        q.pop();
        assert!(q.pops_first(SimTime(u64::MAX), (1 << 40) - 2));
        assert!(!q.pops_first(SimTime(u64::MAX), (1 << 40) - 1));
    }

    #[test]
    #[should_panic(expected = "2^40")]
    fn a_seq_past_forty_bits_panics() {
        let mut q = EventQueue::default();
        q.push(SimTime(1), 1 << 40, Action::Wake { node: NodeId(0) });
    }

    /// Filling 2^24 slots would take gigabytes; `push` packs every slot
    /// through `key`, so its assert is the bound.
    #[test]
    #[should_panic(expected = "2^24")]
    fn a_slot_past_twenty_four_bits_panics() {
        assert_eq!(key(SimTime(1), 2, (1 << 24) - 1), (1 << 64) | (2 << 24) | 0xff_ffff);
        key(SimTime(1), 2, 1 << 24);
    }
}
