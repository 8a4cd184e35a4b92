//! Shared by the registry-driven suites. Each runs its check over every
//! row of `hamband_types::for_each_shipped`, split into one `#[test]`
//! per named shard of rows — the shards run in parallel and a failure
//! names its types — plus one for every row no shard names, so a type
//! added to the registry is run with no edit to any suite.

/// `row_tests! { Visitor { test_a: "row" | "row", …, _: test_rest } }`:
/// `Visitor(pick)` must be a `ShippedVisitor` that checks the rows
/// `pick: fn(&str) -> bool` selects. A shard naming no registry row is
/// an error, not an empty pass.
macro_rules! row_tests {
    ($visitor:ident { $($test:ident: $($row:literal)|+,)+ _: $rest:ident $(,)? }) => {
        $(#[test]
        fn $test() {
            for row in [$($row),+] {
                assert!(hamband_types::SHIPPED_ROWS.contains(&row), "no registry row {row:?}");
            }
            hamband_types::for_each_shipped(&mut $visitor(|row| matches!(row, $($row)|+)));
        })+

        #[test]
        fn $rest() {
            hamband_types::for_each_shipped(&mut $visitor(|row| !matches!(row, $($($row)|+)|+)));
        }
    };
}
pub(crate) use row_tests;
