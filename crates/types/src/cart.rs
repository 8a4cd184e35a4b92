//! The shopping cart CRDT (§5).
//!
//! Per-item signed quantities: `add(item, qty)` and `remove(item, qty)`
//! adjust a net count (clamped to zero at query time, the standard
//! op-based cart construction), so all updates commute and the type is
//! conflict-free with no invariant. Methods take a *single* item, so
//! calls on different items do not summarize into one call — both
//! methods are **irreducible conflict-free** and exercise the remote
//! buffering path of Fig. 9.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

/// The cart state: item → net signed quantity.
pub type CartState = BTreeMap<u64, i64>;

/// An update call on the cart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CartUpdate {
    /// `add(item, qty)`.
    Add {
        /// The item.
        item: u64,
        /// How many to add.
        qty: u32,
    },
    /// `remove(item, qty)`.
    Remove {
        /// The item.
        item: u64,
        /// How many to remove.
        qty: u32,
    },
}

hamband_core::calls! {
    CartUpdate {
        ADD = "add" => Add { item, qty },
        REMOVE = "remove" => Remove { item, qty },
    }
}

/// A query call on the cart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CartQuery {
    /// `quantity(item)`: the visible (non-negative) quantity.
    Quantity(u64),
    /// `total()`: sum of visible quantities.
    Total,
}

/// The shopping cart.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::cart::{Cart, CartUpdate, CartQuery};
///
/// let c = Cart::default();
/// let s = c.apply(&c.initial(), &CartUpdate::Add { item: 1, qty: 3 });
/// let s = c.apply(&s, &CartUpdate::Remove { item: 1, qty: 5 });
/// // Net is negative internally, clamped at query time.
/// assert_eq!(c.query(&s, &CartQuery::Quantity(1)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Cart {
    item_space: u64,
    max_qty: u32,
}

impl Cart {
    /// A cart whose sampler draws items from `0..item_space` and
    /// quantities from `1..=max_qty`.
    pub fn new(item_space: u64, max_qty: u32) -> Self {
        assert!(item_space > 0 && max_qty > 0);
        Cart { item_space, max_qty }
    }

    /// Coordination: both methods irreducible conflict-free.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(2).build()
    }
}

impl Default for Cart {
    fn default() -> Self {
        Cart::new(128, 5)
    }
}

impl ObjectSpec for Cart {
    type State = CartState;
    type Update = CartUpdate;
    type Query = CartQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "cart"
    }

    fn initial(&self) -> CartState {
        BTreeMap::new()
    }

    fn invariant(&self, _state: &CartState) -> bool {
        true
    }

    fn permissible(&self, _state: &CartState, _call: &CartUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn query(&self, state: &CartState, query: &CartQuery) -> u64 {
        match query {
            CartQuery::Quantity(item) => state.get(item).copied().unwrap_or(0).max(0) as u64,
            CartQuery::Total => state.values().map(|&q| q.max(0) as u64).sum(),
        }
    }

    fn apply_mut(&self, state: &mut CartState, call: &CartUpdate) {
        let (item, delta) = match *call {
            CartUpdate::Add { item, qty } => (item, i64::from(qty)),
            CartUpdate::Remove { item, qty } => (item, -i64::from(qty)),
        };
        let net = state.entry(item).or_insert(0);
        *net += delta;
        if *net == 0 {
            state.remove(&item);
        }
    }

    /// The line-item is the shard key: every call adjusts exactly one
    /// item's net count. The cart is conflict-free, so this only
    /// documents the partitioning (there is no sync group to shard).
    fn shard_key(&self, call: &CartUpdate) -> Option<u64> {
        match *call {
            CartUpdate::Add { item, .. } | CartUpdate::Remove { item, .. } => Some(item),
        }
    }
}

impl WorkloadSupport for Cart {
    fn sample_state(&self, rng: &mut StdRng) -> CartState {
        let n = rng.gen_range(0..10);
        (0..n)
            .map(|_| (rng.gen_range(0..self.item_space), rng.gen_range(-20..=20)))
            .filter(|&(_, q)| q != 0)
            .collect()
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> CartUpdate {
        let item = rng.gen_range(0..self.item_space);
        let qty = rng.gen_range(1..=self.max_qty);
        match method {
            ADD => CartUpdate::Add { item, qty },
            REMOVE => CartUpdate::Remove { item, qty },
            other => panic!("cart has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> CartQuery {
        if rng.gen_bool(0.5) {
            CartQuery::Quantity(rng.gen_range(0..self.item_space))
        } else {
            CartQuery::Total
        }
    }

    fn gen_update(
        &self,
        state: &CartState,
        _node: usize,
        _seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<CartUpdate> {
        match method {
            ADD => Some(self.sample_update_of(ADD, rng)),
            REMOVE => {
                // Prefer removing items actually in the cart.
                let present = || state.iter().filter(|&(_, &q)| q > 0);
                let count = present().count();
                if count == 0 {
                    return None;
                }
                let (&item, &have) =
                    present().nth(rng.gen_range(0..count)).expect("index in range");
                let have = have.max(1) as u32;
                Some(CartUpdate::Remove { item, qty: rng.gen_range(1..=have.min(self.max_qty)) })
            }
            other => panic!("cart has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn updates_commute() {
        let c = Cart::default();
        let r = BoundedRelations::new(&c, 2, 200);
        let a = CartUpdate::Add { item: 1, qty: 2 };
        let b = CartUpdate::Remove { item: 1, qty: 5 };
        assert!(r.s_commute(&a, &b));
        assert!(!r.conflict(&a, &b));
        assert!(r.independent(&b, &a));
    }

    #[test]
    fn both_methods_are_irreducible_free() {
        let c = Cart::default();
        assert!(c.coord_spec().category(ADD).is_irreducible_free());
        assert!(c.coord_spec().category(REMOVE).is_irreducible_free());
    }

    #[test]
    fn negative_net_clamps_at_query() {
        let c = Cart::default();
        let s = c.apply(&c.initial(), &CartUpdate::Remove { item: 9, qty: 4 });
        assert_eq!(c.query(&s, &CartQuery::Quantity(9)), 0);
        assert_eq!(c.query(&s, &CartQuery::Total), 0);
        // The debt persists: adding 3 still shows 0.
        let s2 = c.apply(&s, &CartUpdate::Add { item: 9, qty: 3 });
        assert_eq!(c.query(&s2, &CartQuery::Quantity(9)), 0);
        let s3 = c.apply(&s2, &CartUpdate::Add { item: 9, qty: 2 });
        assert_eq!(c.query(&s3, &CartQuery::Quantity(9)), 1);
    }

    #[test]
    fn zero_net_entries_are_dropped() {
        let c = Cart::default();
        let s = c.apply(&c.initial(), &CartUpdate::Add { item: 1, qty: 2 });
        let s = c.apply(&s, &CartUpdate::Remove { item: 1, qty: 2 });
        assert!(s.is_empty(), "state stays canonical for convergence checks");
    }

    #[test]
    fn workload_remove_prefers_present_items() {
        use rand::SeedableRng;
        let c = Cart::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(c.gen_update(&c.initial(), 0, 0, REMOVE, &mut rng), None);
        let s = c.apply(&c.initial(), &CartUpdate::Add { item: 4, qty: 3 });
        match c.gen_update(&s, 0, 0, REMOVE, &mut rng) {
            Some(CartUpdate::Remove { item: 4, qty }) => assert!((1..=3).contains(&qty)),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `gen_update` as it was while it copied the present items into a
    /// vector to index them.
    fn collecting_gen_update(
        cart: &Cart,
        state: &CartState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<CartUpdate> {
        if method != REMOVE {
            return cart.gen_update(state, node, seq, method, rng);
        }
        let present: Vec<u64> = state.iter().filter(|&(_, &q)| q > 0).map(|(&i, _)| i).collect();
        if present.is_empty() {
            return None;
        }
        let item = present[rng.gen_range(0..present.len())];
        let have = state[&item].max(1) as u32;
        Some(CartUpdate::Remove { item, qty: rng.gen_range(1..=have.min(cart.max_qty)) })
    }

    #[test]
    fn iterator_sampling_draws_what_collecting_drew() {
        let cart = Cart::default();
        crate::gen_parity::assert_same_draws(&cart, |state, node, seq, method, rng| {
            collecting_gen_update(&cart, state, node, seq, method, rng)
        });
    }
}
