//! Threaded backend: one OS thread per replica over process-shared
//! atomic memory, with real wall-clock timers.
//!
//! This is the second [`Transport`](crate::transport::Transport)
//! implementor, and the one where replicas race for real. The
//! simulator serializes everything behind a virtual clock; here each
//! replica runs its own event loop on its own thread, "RDMA" is plain
//! stores into another thread's registered memory, and latency is
//! whatever the machine gives you — which is exactly what a
//! wall-clock latency-under-load benchmark needs, and the closest
//! in-process rehearsal of an ibverbs backend the codebase can have.
//!
//! Structure:
//!
//! * [`shared`] — region memory as `AtomicU64` words behind one `Arc`,
//!   with the ascending-`Release`-write / descending-`Acquire`-read
//!   discipline that makes the canary-trailer and summary-seqlock
//!   validation sound word-by-word (the module header has the
//!   argument; `DESIGN.md` the full model);
//! * [`ctx`](self) — the per-thread [`Transport`] handle: synchronous
//!   one-sided verbs with FIFO local completions, `mpsc` messaging,
//!   a private timer heap, and `SimTime` read off a shared monotonic
//!   epoch;
//! * `ThreadedCluster` — spawn/drive/join, with a convergence
//!   poller on the calling thread and stretched failure-detection
//!   timers so OS scheduling jitter does not masquerade as a crash.
//!
//! Traces are per thread: each ctx records its replica's protocol
//! events into a vector of its own, and the cluster merges them by
//! wall time at join, so no buffer is shared while the threads race.
//! Verb events are the simulator fabric's and have no counterpart here.
//!
//! What this backend deliberately does **not** do: fault injection
//! (no virtual fabric to tear writes or silence heartbeats with) and
//! latency modelling (reality supplies it).
//! Deterministic parity lives with the simulator; this backend is for
//! conformance under genuine concurrency and for throughput/latency
//! measurement.
//!
//! [`Transport`]: crate::transport::Transport

mod cluster;
mod ctx;
mod shared;

pub(crate) use cluster::ThreadedCluster;
