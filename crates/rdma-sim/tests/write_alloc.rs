//! A WRITE allocates nothing once the fabric's buffers are warm: its
//! payload is copied into a buffer the fabric takes back when the WRITE
//! lands. A test binary of its own, because it counts allocations
//! through a `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdma_sim::{App, Ctx, Event, LatencyModel, NodeId, RegionId, SimDuration, Simulator};

thread_local! {
    /// Allocations made by this thread (a `const` cell: reading it
    /// allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations per
/// thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const PAYLOAD: [u8; 96] = [0xab; 96];

/// Node 0 keeps one WRITE in flight to each peer, and posts the next as
/// each completes, its length cycling through 1..=96 bytes.
struct Writer {
    region: RegionId,
    completions: u64,
}

impl Writer {
    fn post(&self, ctx: &mut Ctx<'_>, target: NodeId) {
        let len = 1 + (self.completions % PAYLOAD.len() as u64) as usize;
        ctx.post_write(target, self.region, 0, &PAYLOAD[..len]);
    }
}

impl App for Writer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() == NodeId(0) {
            self.post(ctx, NodeId(1));
            self.post(ctx, NodeId(2));
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Completion { .. } = event {
            self.completions += 1;
            let target = NodeId(1 + (self.completions % 2) as usize);
            self.post(ctx, target);
        }
    }
}

/// Run until node 0 has seen `n` more completions.
fn complete(sim: &mut Simulator<Writer>, n: u64) {
    let until = sim.app(NodeId(0)).completions + n;
    while sim.app(NodeId(0)).completions < until {
        sim.run_for(SimDuration::micros(10));
    }
}

#[test]
fn writes_allocate_nothing_once_the_buffers_are_warm() {
    let mut sim = Simulator::new(3, LatencyModel::default(), 5);
    let region = sim.add_region_all(128);
    sim.set_apps(|_| Writer { region, completions: 0 });
    complete(&mut sim, 1_000);
    let before = allocations();
    complete(&mut sim, 10_000);
    assert_eq!(allocations() - before, 0, "10 000 WRITEs posted and landed after warm-up");
    assert!(sim.stats().writes > 11_000);
}
