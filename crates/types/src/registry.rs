//! The one table of every shipped type, in the coordination(s) it
//! ships with. Every generic suite — conformance, refinement, cluster
//! runs on each system and backend, the budget oracle, the chaos
//! campaigns — visits these rows, so a type added here is under all of
//! them with no other edit.

use hamband_core::coord::CoordSpec;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

use crate::{Account, Bank, Cart, Counter, Courseware, GSet, LwwRegister, Movie, OrSet, Project};

/// A spec every system and backend can run: what `Runner::run` asks of
/// its object, under one name.
pub trait Shipped: WorkloadSupport + ObjectSpec<Update: Send, State: Send> + Clone + Send {}
impl<O: WorkloadSupport + ObjectSpec<Update: Send, State: Send> + Clone + Send> Shipped for O {}

/// What a suite does with one row. Specs are generic, so the table is a
/// visitor with a generic method, not a `Vec<dyn …>`.
pub trait ShippedVisitor {
    /// Visit the row `name`: `spec` under the coordination `coord`.
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec);
}

macro_rules! rows {
    ($($name:literal: $spec:expr => $coord:ident;)+) => {
        /// The rows' names, in table order (one per shipped type, GSet twice).
        pub const SHIPPED_ROWS: [&str; [$($name),+].len()] = [$($name),+];

        /// Visit row `row` alone — seed-dealt campaigns pick
        /// `seed % SHIPPED_ROWS.len()`.
        pub fn visit_shipped<V: ShippedVisitor>(row: usize, visitor: &mut V) {
            let rows: [fn(&mut V); SHIPPED_ROWS.len()] = [$(|v| {
                let spec = $spec;
                v.visit($name, &spec, &spec.$coord())
            }),+];
            rows[row](visitor)
        }
    };
}

rows! {
    "account": Account::new(20) => coord_spec;
    "bank": Bank::default() => coord_spec;
    "cart": Cart::default() => coord_spec;
    "counter": Counter::default() => coord_spec;
    "courseware": Courseware::default() => coord_spec;
    "gset": GSet::default() => coord_spec;
    "gset-buffered": GSet::default() => coord_spec_buffered;
    "lww": LwwRegister::default() => coord_spec;
    "movie": Movie::default() => coord_spec;
    "orset": OrSet::default() => coord_spec;
    "project": Project::default() => coord_spec;
}

/// Visit every row, in table order.
pub fn for_each_shipped<V: ShippedVisitor>(visitor: &mut V) {
    (0..SHIPPED_ROWS.len()).for_each(|row| visit_shipped(row, visitor));
}
