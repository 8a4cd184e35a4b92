//! The replicated bank account — the paper's running example (Fig. 1).
//!
//! The executable class lives in [`hamband_core::demo`]; this module
//! re-exports it alongside the other evaluated types so the whole
//! benchmark suite imports from one place.
//!
//! Categories: `deposit` is **reducible** (invariant-sufficient,
//! conflict-free, summarizable by addition); `withdraw` is
//! **conflicting** (it 𝒫-conflicts with itself) and **dependent** on
//! `deposit`.

pub use hamband_core::demo::{Account, AccountQuery, AccountUpdate, DEPOSIT, WITHDRAW};

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::coord::MethodCategory;

    #[test]
    fn categories_match_fig1() {
        let acc = Account::default();
        let c = acc.coord_spec();
        assert!(matches!(c.category(DEPOSIT), MethodCategory::Reducible { .. }));
        assert!(c.category(WITHDRAW).is_conflicting());
        assert_eq!(c.dependencies(WITHDRAW), &[DEPOSIT]);
    }
}
