//! The movie-rental relational schema (§5).
//!
//! "The movie class has four methods addCustomer, deleteCustomer,
//! addMovie, and deleteMovie operating on two separate relations;
//! therefore, forming two synchronization groups. There is no
//! dependency in this class."
//!
//! Add and delete of the *same* relation state-conflict (add/delete of
//! one element do not commute), so each relation's pair forms a
//! synchronization group — and because the relations are disjoint, the
//! two groups get **two independent leaders**, which is exactly what
//! Fig. 10 measures against single-leader Mu.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};

use crate::sets::pick;

/// The schema state: two independent relations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MovieState {
    /// Registered customers.
    pub customers: BTreeSet<u64>,
    /// Registered movies.
    pub movies: BTreeSet<u64>,
}

/// An update call on the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovieUpdate {
    /// `addCustomer(c)`.
    AddCustomer(u64),
    /// `deleteCustomer(c)`.
    DeleteCustomer(u64),
    /// `addMovie(m)`.
    AddMovie(u64),
    /// `deleteMovie(m)`.
    DeleteMovie(u64),
}

hamband_core::calls! {
    MovieUpdate {
        ADD_CUSTOMER = "add_customer" => AddCustomer(customer),
        DELETE_CUSTOMER = "delete_customer" => DeleteCustomer(customer),
        ADD_MOVIE = "add_movie" => AddMovie(movie),
        DELETE_MOVIE = "delete_movie" => DeleteMovie(movie),
    }
}

/// A query call on the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovieQuery {
    /// Number of customers.
    Customers,
    /// Number of movies.
    Movies,
}

/// The movie-rental schema.
#[derive(Debug, Clone)]
pub struct Movie {
    id_space: u64,
}

impl Movie {
    /// A schema whose sampler draws identifiers from `0..id_space`.
    pub fn new(id_space: u64) -> Self {
        assert!(id_space > 0);
        Movie { id_space }
    }

    /// Coordination: two synchronization groups, no dependencies.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(4)
            .conflict(ADD_CUSTOMER.index(), DELETE_CUSTOMER.index())
            .conflict(ADD_MOVIE.index(), DELETE_MOVIE.index())
            .build()
    }
}

impl Default for Movie {
    fn default() -> Self {
        Movie::new(48)
    }
}

impl ObjectSpec for Movie {
    type State = MovieState;
    type Update = MovieUpdate;
    type Query = MovieQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "movie"
    }

    fn initial(&self) -> MovieState {
        MovieState::default()
    }

    fn invariant(&self, _state: &MovieState) -> bool {
        true
    }

    fn permissible(&self, _state: &MovieState, _call: &MovieUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn query(&self, state: &MovieState, query: &MovieQuery) -> u64 {
        match query {
            MovieQuery::Customers => state.customers.len() as u64,
            MovieQuery::Movies => state.movies.len() as u64,
        }
    }

    fn apply_mut(&self, state: &mut MovieState, call: &MovieUpdate) {
        match *call {
            MovieUpdate::AddCustomer(c) => {
                state.customers.insert(c);
            }
            MovieUpdate::DeleteCustomer(c) => {
                state.customers.remove(&c);
            }
            MovieUpdate::AddMovie(m) => {
                state.movies.insert(m);
            }
            MovieUpdate::DeleteMovie(m) => {
                state.movies.remove(&m);
            }
        }
    }

    /// The row identifier is the shard key: add/delete of *different*
    /// customers (or different movies) commute, so each relation's
    /// synchronization group can be partitioned per row.
    fn shard_key(&self, call: &MovieUpdate) -> Option<u64> {
        match *call {
            MovieUpdate::AddCustomer(id)
            | MovieUpdate::DeleteCustomer(id)
            | MovieUpdate::AddMovie(id)
            | MovieUpdate::DeleteMovie(id) => Some(id),
        }
    }
}

impl WorkloadSupport for Movie {
    fn sample_state(&self, rng: &mut StdRng) -> MovieState {
        let mut s = MovieState::default();
        for _ in 0..rng.gen_range(0..8) {
            s.customers.insert(rng.gen_range(0..self.id_space));
        }
        for _ in 0..rng.gen_range(0..8) {
            s.movies.insert(rng.gen_range(0..self.id_space));
        }
        s
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> MovieUpdate {
        let id = rng.gen_range(0..self.id_space);
        match method {
            ADD_CUSTOMER => MovieUpdate::AddCustomer(id),
            DELETE_CUSTOMER => MovieUpdate::DeleteCustomer(id),
            ADD_MOVIE => MovieUpdate::AddMovie(id),
            DELETE_MOVIE => MovieUpdate::DeleteMovie(id),
            other => panic!("movie schema has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> MovieQuery {
        if rng.gen_bool(0.5) {
            MovieQuery::Customers
        } else {
            MovieQuery::Movies
        }
    }

    fn gen_update(
        &self,
        state: &MovieState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        _skew: KeySkew,
    ) -> Option<MovieUpdate> {
        let fresh = node as u64 * 1_000_000 + seq;
        match method {
            ADD_CUSTOMER => Some(MovieUpdate::AddCustomer(fresh)),
            ADD_MOVIE => Some(MovieUpdate::AddMovie(fresh)),
            DELETE_CUSTOMER => Some(MovieUpdate::DeleteCustomer(pick(&state.customers, rng)?)),
            DELETE_MOVIE => Some(MovieUpdate::DeleteMovie(pick(&state.movies, rng)?)),
            other => panic!("movie schema has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::ids::{GroupId, Pid};
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn add_delete_same_relation_conflict() {
        let m = Movie::default();
        let r = BoundedRelations::new(&m, 5, 200);
        assert!(r.s_conflict(&MovieUpdate::AddCustomer(1), &MovieUpdate::DeleteCustomer(1)));
        assert!(r.conflict(&MovieUpdate::AddMovie(2), &MovieUpdate::DeleteMovie(2)));
    }

    #[test]
    fn cross_relation_calls_commute() {
        let m = Movie::default();
        let r = BoundedRelations::new(&m, 5, 200);
        assert!(!r.conflict(&MovieUpdate::AddCustomer(1), &MovieUpdate::DeleteMovie(1)));
        assert!(!r.conflict(&MovieUpdate::AddCustomer(1), &MovieUpdate::AddMovie(1)));
    }

    #[test]
    fn coord_spec_has_two_groups() {
        let m = Movie::default();
        let c = m.coord_spec();
        assert_eq!(c.sync_groups().len(), 2);
        assert_eq!(c.sync_group(ADD_CUSTOMER), Some(GroupId(0)));
        assert_eq!(c.sync_group(DELETE_MOVIE), Some(GroupId(1)));
        // Two groups → two distinct leaders on ≥2 nodes.
        assert_eq!(c.default_leaders(4), vec![Pid(0), Pid(1)]);
    }

    #[test]
    fn apply_and_query() {
        let m = Movie::default();
        let mut s = m.initial();
        s = m.apply(&s, &MovieUpdate::AddCustomer(1));
        s = m.apply(&s, &MovieUpdate::AddMovie(2));
        s = m.apply(&s, &MovieUpdate::DeleteCustomer(1));
        assert_eq!(m.query(&s, &MovieQuery::Customers), 0);
        assert_eq!(m.query(&s, &MovieQuery::Movies), 1);
    }

    /// `gen_update` as it was while it copied the customer and movie
    /// sets into vectors to index them.
    fn collecting_gen_update(
        mv: &Movie,
        state: &MovieState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        skew: KeySkew,
    ) -> Option<MovieUpdate> {
        match method {
            DELETE_CUSTOMER => {
                let cs: Vec<u64> = state.customers.iter().copied().collect();
                if cs.is_empty() {
                    return None;
                }
                Some(MovieUpdate::DeleteCustomer(cs[rng.gen_range(0..cs.len())]))
            }
            DELETE_MOVIE => {
                let ms: Vec<u64> = state.movies.iter().copied().collect();
                if ms.is_empty() {
                    return None;
                }
                Some(MovieUpdate::DeleteMovie(ms[rng.gen_range(0..ms.len())]))
            }
            _ => mv.gen_update(state, node, seq, method, rng, skew),
        }
    }

    #[test]
    fn iterator_sampling_draws_what_collecting_drew() {
        let mv = Movie::default();
        crate::gen_parity::assert_same_draws(&mv, |state, node, seq, method, rng, skew| {
            collecting_gen_update(&mv, state, node, seq, method, rng, skew)
        });
    }
}
