//! A node's events waiting for its CPU.
//!
//! An event that finds the CPU busy waits for the `cpu_free` it found,
//! keeping the sequence number it was first queued with. Events due at
//! the same time wait together, lowest sequence number first, and move
//! together when they come due to a CPU that is busy again. The sets
//! are few (a node's CPU is busy until one time, rarely more), so they
//! live in a short deque in due order, and a set that empties keeps its
//! allocation for the next due time: parking allocates nothing once a
//! node has waited as deep as it will.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;
use crate::verbs::Event;

/// An event waiting for its node's CPU, ordered by the sequence number
/// it was first queued with.
#[derive(Debug)]
pub(crate) struct Waiting {
    pub(crate) seq: u64,
    pub(crate) event: Event,
}

impl PartialEq for Waiting {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Waiting {}
impl PartialOrd for Waiting {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Waiting {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

/// The events of one node that come due at the same time, lowest
/// sequence number first.
pub(crate) type WaitSet = BinaryHeap<Reverse<Waiting>>;

/// One node's waiting events: sets keyed by due time, earliest first,
/// none empty, plus the emptied sets kept for reuse.
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    sets: VecDeque<(SimTime, WaitSet)>,
    spare: Vec<WaitSet>,
}

impl WaitQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The earliest due time and the lowest sequence number due then.
    pub(crate) fn head(&self) -> Option<(SimTime, u64)> {
        self.sets.front().map(|(due, set)| {
            let Reverse(first) = set.peek().expect("wait sets are never empty");
            (*due, first.seq)
        })
    }

    /// `event`, first queued as `seq`, waits until `due`.
    pub(crate) fn push(&mut self, due: SimTime, seq: u64, event: Event) {
        self.set_at(due).push(Reverse(Waiting { seq, event }));
    }

    /// Remove the head: the lowest sequence number of the earliest set.
    pub(crate) fn pop_head(&mut self) -> Waiting {
        let (_, set) = self.sets.front_mut().expect("an armed wake has a wait set");
        let Reverse(first) = set.pop().expect("wait sets are never empty");
        if set.is_empty() {
            let (_, set) = self.sets.pop_front().expect("just read");
            self.spare.push(set);
        }
        first
    }

    /// Remove the earliest set whole, to [`put`](WaitQueue::put) it back
    /// under a later due time.
    pub(crate) fn take_first(&mut self) -> WaitSet {
        self.sets.pop_front().expect("an armed wake has a wait set").1
    }

    /// `set` waits until `due`, merged with any set due then.
    pub(crate) fn put(&mut self, due: SimTime, mut set: WaitSet) {
        if !set.is_empty() {
            // Appending to a smaller heap swaps the two first: no copy
            // when the set due then is a fresh one.
            self.set_at(due).append(&mut set);
        }
        self.spare.push(set);
    }

    /// The set due at `due`, made from a spare one if there is none.
    fn set_at(&mut self, due: SimTime) -> &mut WaitSet {
        let i = self.sets.partition_point(|(d, _)| *d < due);
        if self.sets.get(i).is_none_or(|(d, _)| *d != due) {
            self.sets.insert(i, (due, self.spare.pop().unwrap_or_default()));
        }
        &mut self.sets[i].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::TimerId;

    fn timer(id: u64) -> Event {
        Event::Timer { id: TimerId(id), tag: 0 }
    }

    /// Drain `q` in wake order: `(due, seq)` per event.
    fn drain(q: &mut WaitQueue) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(head) = q.head() {
            assert_eq!(q.pop_head().seq, head.1);
            out.push(head);
        }
        out
    }

    #[test]
    fn leaves_by_due_time_then_seq_and_merges_moved_sets() {
        let mut q = WaitQueue::default();
        q.push(SimTime(20), 4, timer(4));
        q.push(SimTime(10), 7, timer(7));
        q.push(SimTime(20), 1, timer(1));
        q.push(SimTime(10), 3, timer(3));
        q.push(SimTime(5), 9, timer(9)); // due before every other: a restart's cpu_free
        assert_eq!(q.head(), Some((SimTime(5), 9)));
        assert_eq!(q.pop_head().seq, 9);
        // The set due at 10 finds the CPU busy until 20 and joins that set.
        let set = q.take_first();
        assert_eq!(set.len(), 2);
        q.put(SimTime(20), set);
        q.put(SimTime(30), WaitSet::new());
        assert_eq!(drain(&mut q), [1, 3, 4, 7].map(|s| (SimTime(20), s)));
        assert!(q.is_empty());
    }

    #[test]
    fn emptied_sets_are_reused() {
        let mut q = WaitQueue::default();
        for round in 0..100u64 {
            let (due, later) = (SimTime(round * 10), SimTime(round * 10 + 5));
            for seq in 0..8 {
                q.push(due, round * 100 + seq, timer(seq));
            }
            q.push(later, round * 100 + 50, timer(50));
            let set = q.take_first();
            q.put(later, set);
            assert_eq!(drain(&mut q).len(), 9);
        }
        assert_eq!(q.spare.len(), 2, "two sets ever allocated");
    }
}
