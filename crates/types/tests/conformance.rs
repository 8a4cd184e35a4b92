//! What every shipped type owes the runtime, checked over the one
//! table (`hamband_types::for_each_shipped`): its declared coordination
//! validates against its executable definition, its method list is
//! dense and uniquely named, its initial state has integrity, every
//! call either generator produces belongs to the method asked for and
//! survives the wire, and a method's calls all carry a shard key or
//! none does.

use std::collections::BTreeSet;

use hamband_core::analysis::{validate, AnalysisConfig};
use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_types::{for_each_shipped, Shipped, ShippedVisitor, SHIPPED_ROWS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn conforms<O: WorkloadSupport>(spec: &O, coord: &CoordSpec) {
    let name = spec.name();
    let report = validate(spec, coord, &AnalysisConfig::default());
    assert!(report.is_valid(), "{name}: {report}");

    let names = spec.method_names();
    assert_eq!(names.len(), coord.method_count(), "{name}: coordination covers every method");
    let distinct: BTreeSet<_> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "{name}: method names are unique");
    assert!(spec.invariant(&spec.initial()), "{name}: I(σ₀)");

    let check = |call: &O::Update, method: MethodId| {
        // `method` indexes `names`, so this also bounds `method_of`.
        assert_eq!(spec.method_of(call), method, "{name}: {call:?}");
        assert_eq!(O::Update::from_bytes(&call.to_bytes()).as_ref(), Ok(call), "{name}");
    };

    let mut rng = StdRng::seed_from_u64(0xc0f);
    for m in (0..names.len()).map(MethodId) {
        // The ingress asks one sampled call per method whether the
        // method is keyed, and splits shard quotas on the answer.
        let keyed = spec.shard_key(&spec.sample_update_of(m, &mut rng)).is_some();
        for _ in 0..200 {
            let call = spec.sample_update_of(m, &mut rng);
            check(&call, m);
            assert_eq!(spec.shard_key(&call).is_some(), keyed, "{name}: {call:?}");
        }
    }

    // State-aware generation, over a state that evolves with the calls.
    let mut state = spec.initial();
    let mut generated = 0;
    for seq in 0..600u64 {
        let m = MethodId(rng.gen_range(0..names.len()));
        let node = (seq % 3) as usize;
        let Some(call) = spec.gen_update(&state, node, seq, m, &mut rng) else {
            continue;
        };
        generated += 1;
        check(&call, m);
        if spec.permissible(&state, &call) {
            spec.apply_mut(&mut state, &call);
            assert!(spec.invariant(&state), "{name}: {call:?} was permissible");
        }
    }
    assert!(generated > 300, "{name}: only {generated} calls generated");
}

struct Conforms;

impl ShippedVisitor for Conforms {
    fn visit<O: Shipped>(&mut self, _name: &'static str, spec: &O, coord: &CoordSpec) {
        conforms(spec, coord);
    }
}

#[test]
fn every_shipped_type_conforms() {
    for_each_shipped(&mut Conforms);
}

/// A type exported from the crate root and missing from the registry
/// would be shipped unchecked: the registry has one row per exported
/// type, and GSet's second coordination. The registry's own items and
/// the `sets` module's `RankSet` are helpers, not types.
#[test]
fn every_exported_type_has_a_registry_row() {
    let helpers = ["pub use registry::", "pub use sets::"];
    let exported = include_str!("../src/lib.rs")
        .lines()
        .filter(|l| l.starts_with("pub use ") && !helpers.iter().any(|h| l.starts_with(h)))
        .count();
    assert_eq!(SHIPPED_ROWS.len(), exported + 1);
}
