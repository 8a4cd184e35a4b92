//! Building your own replicated data type: a warehouse inventory with
//! a never-negative stock invariant.
//!
//! This walks the full downstream-user path — two impls and one
//! declaration: [`ObjectSpec`] (the executable definition: state,
//! invariant, update and query), [`WorkloadSupport`] (sampling and
//! workload generation), and `calls!` (the method list: constants,
//! the `Methods` impl `ObjectSpec` reads names and ids from, and the
//! wire codec, from one place). Then let the bounded analyzer *infer* the coordination
//! relations, check them, and run the type on a simulated RDMA cluster.
//!
//! ```sh
//! cargo run --example custom_type
//! ```

use std::collections::BTreeMap;

use hamband::core::analysis::{infer, validate, AnalysisConfig};
use hamband::core::ids::MethodId;
use hamband::core::object::{KeySkew, ObjectSpec, WorkloadSupport};
use hamband::runtime::{RunConfig, Runner, System};
use hamband::runtime::WorkloadSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// Stock per item; the invariant keeps every count non-negative.
type Stock = BTreeMap<u64, i64>;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum InventoryUpdate {
    /// Restock a batch of items — always safe, and two batches merge
    /// into one by adding counts, so `restock` will be *reducible*.
    Restock(Vec<(u64, u32)>),
    /// Ship units of one item — two concurrent shipments can oversell,
    /// so `ship` will be *conflicting*; and a shipment covered by a
    /// recent restock must not overtake it, so `ship` *depends on*
    /// `restock`.
    Ship(u64, u32),
}

// The one list of methods. `RESTOCK` and `SHIP` are the `MethodId`s,
// the strings name them in reports, and a call travels as its method
// index followed by its fields, each through its own `Wire`.
hamband::core::calls! {
    InventoryUpdate {
        RESTOCK = "restock" => Restock(batch),
        SHIP = "ship" => Ship(item, units),
    }
}

#[derive(Debug, Clone, Copy)]
enum InventoryQuery {
    OnHand(u64),
}

#[derive(Debug, Clone)]
struct Inventory {
    items: u64,
}

impl ObjectSpec for Inventory {
    type State = Stock;
    type Update = InventoryUpdate;
    type Query = InventoryQuery;
    type Reply = i64;

    fn name(&self) -> &str {
        "inventory"
    }

    fn initial(&self) -> Stock {
        Stock::new()
    }

    fn invariant(&self, s: &Stock) -> bool {
        s.values().all(|&v| v >= 0)
    }

    fn apply_mut(&self, s: &mut Stock, call: &InventoryUpdate) {
        match call {
            InventoryUpdate::Restock(batch) => {
                for &(item, n) in batch {
                    *s.entry(item).or_insert(0) += i64::from(n);
                }
            }
            InventoryUpdate::Ship(item, n) => {
                *s.entry(*item).or_insert(0) -= i64::from(*n);
            }
        }
    }

    fn query(&self, s: &Stock, q: &InventoryQuery) -> i64 {
        let InventoryQuery::OnHand(item) = q;
        s.get(item).copied().unwrap_or(0)
    }

    fn summarize(&self, a: &InventoryUpdate, b: &InventoryUpdate) -> Option<InventoryUpdate> {
        match (a, b) {
            (InventoryUpdate::Restock(x), InventoryUpdate::Restock(y)) => {
                let mut merged: BTreeMap<u64, u32> = BTreeMap::new();
                for &(item, n) in x.iter().chain(y) {
                    *merged.entry(item).or_insert(0) += n;
                }
                Some(InventoryUpdate::Restock(merged.into_iter().collect()))
            }
            _ => None,
        }
    }
}

impl WorkloadSupport for Inventory {
    fn sample_state(&self, rng: &mut StdRng) -> Stock {
        (0..rng.gen_range(0..6))
            .map(|_| (rng.gen_range(0..self.items), rng.gen_range(0..30)))
            .collect()
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> InventoryUpdate {
        let item = rng.gen_range(0..self.items);
        match method {
            RESTOCK => InventoryUpdate::Restock(vec![(item, rng.gen_range(1..5))]),
            SHIP => InventoryUpdate::Ship(item, rng.gen_range(1..5)),
            other => panic!("inventory has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> InventoryQuery {
        InventoryQuery::OnHand(rng.gen_range(0..self.items))
    }

    fn gen_update(
        &self,
        state: &Stock,
        _node: usize,
        _seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        _skew: KeySkew,
    ) -> Option<InventoryUpdate> {
        match method {
            RESTOCK => Some(self.sample_update_of(RESTOCK, rng)),
            SHIP => {
                // Ship only what the local view can cover.
                let stocked: Vec<(u64, i64)> =
                    state.iter().filter(|&(_, &v)| v >= 2).map(|(&i, &v)| (i, v)).collect();
                if stocked.is_empty() {
                    return None;
                }
                let (item, have) = stocked[rng.gen_range(0..stocked.len())];
                Some(InventoryUpdate::Ship(item, rng.gen_range(1..=(have / 2).min(4)) as u32))
            }
            other => panic!("inventory has no method {other}"),
        }
    }
}

fn main() {
    let inv = Inventory { items: 16 };

    // Infer the coordination relations from the executable definition.
    let cfg = AnalysisConfig::default();
    let coord = infer(&inv, &cfg);
    println!("== inferred coordination for `{}` ==", inv.name());
    for (m, name) in inv.method_names().iter().enumerate() {
        let mid = MethodId(m);
        println!(
            "  {name:<8} {} deps={:?}",
            coord.category(mid),
            coord
                .dependencies(mid)
                .iter()
                .map(|d| inv.method_names()[d.index()])
                .collect::<Vec<_>>()
        );
    }
    assert!(coord.category(RESTOCK).is_reducible(), "restock should be reducible");
    assert!(coord.category(SHIP).is_conflicting(), "ship should be conflicting");
    assert!(coord.dependencies(SHIP).contains(&RESTOCK), "ship depends on restock");

    // And it validates against the definition.
    let report = validate(&inv, &coord, &cfg);
    assert!(report.is_valid(), "{report}");
    println!("  {report}");

    // Run it on a 5-node cluster.
    let run = RunConfig::new(5, WorkloadSpec::ops(3_000).with_update_ratio(0.4));
    let rep = Runner::new(System::Hamband, run).run(&inv, &coord).report;
    println!("  {rep}");
    assert!(rep.converged, "inventory cluster must converge");
}
