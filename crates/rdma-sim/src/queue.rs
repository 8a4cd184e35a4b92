//! The global event queue: a binary heap of small `(time, seq, slot)`
//! keys over a slab that holds the actions.
//!
//! An [`Action`] is about a hundred bytes (a landing write carries its
//! payload handle, a delivery its event); sifting such entries up and
//! down the heap was a fifth of a simulator run. The heap now moves
//! 24-byte keys and an action is written once, into a slab slot reused
//! through a free list, and read once when its key pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fabric::Action;
use crate::time::SimTime;

/// Pending actions ordered by `(time, seq)`: `seq` is the order entries
/// were first queued in, so equal-time entries pop in that order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
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
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(action));
                slot
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
    }

    /// When the earliest entry is due.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((time, _, _))| time)
    }

    /// Remove the earliest entry: `(time, seq, action)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Action)> {
        let Reverse((time, seq, slot)) = self.heap.pop()?;
        let action = self.slab[slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(slot);
        Some((time, seq, action))
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
        q.push(SimTime(10), 0, Action::InjectFault(Fault::Crash(NodeId(0))));
        q.push(SimTime(5), 1, Action::InjectFault(Fault::Crash(NodeId(1))));
        q.push(
            SimTime(5),
            2,
            Action::InjectFault(Fault::TornWrites(NodeId(2))),
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_time(), Some(SimTime(5)));
        let (t1, s1, a1) = q.pop().unwrap();
        assert_eq!((t1, s1), (SimTime(5), 1));
        assert!(matches!(a1, Action::InjectFault(Fault::Crash(NodeId(1)))));
        // An entry queued under an older seq goes ahead of a younger one
        // at the same time, whatever slot it landed in.
        q.push(SimTime(5), 0, Action::Wake { node: NodeId(3) });
        let (_, s2, a2) = q.pop().unwrap();
        assert_eq!(s2, 0);
        assert!(matches!(a2, Action::Wake { node: NodeId(3) }));
        let (_, s3, a3) = q.pop().unwrap();
        assert_eq!(s3, 2);
        assert!(matches!(a3, Action::InjectFault(Fault::TornWrites(_))));
        let (t4, _, _) = q.pop().unwrap();
        assert_eq!(t4, SimTime(10));
        assert!(q.is_empty() && q.pop().is_none() && q.next_time().is_none());
        assert_eq!(q.slab.len(), 3, "four pushes, three slots");
    }
}
