//! Test support: a rewritten `gen_update` must produce the calls its
//! predecessor produced, drawing from the RNG in the same order and
//! ranges — session RNG streams are what the golden traces pin.

use hamband_core::ids::MethodId;
use hamband_core::object::WorkloadSupport;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// 1 000 draws over a state that evolves with the generated calls:
/// `spec.gen_update` and `old` (the previous implementation, kept by
/// the calling test module) must return the same call and leave
/// identical RNG states every time.
pub(crate) fn assert_same_draws<O: WorkloadSupport>(
    spec: &O,
    old: impl Fn(&O::State, usize, u64, MethodId, &mut StdRng) -> Option<O::Update>,
) {
    let mut rng = StdRng::seed_from_u64(0x9e4);
    let mut state = spec.initial();
    let mut generated = 0;
    for seq in 0..1_000u64 {
        let method = MethodId(rng.gen_range(0..spec.method_count()));
        let node = (seq % 3) as usize;
        let mut old_rng = rng.clone();
        let call = spec.gen_update(&state, node, seq, method, &mut rng);
        let was = old(&state, node, seq, method, &mut old_rng);
        assert_eq!(call, was, "{}: draw {seq} on method {method}", spec.name());
        assert_eq!(
            rng.next_u64(),
            old_rng.next_u64(),
            "{}: RNG streams diverged at draw {seq}",
            spec.name()
        );
        if let Some(call) = call {
            generated += 1;
            if spec.permissible(&state, &call) {
                spec.apply_mut(&mut state, &call);
            }
        }
    }
    assert!(generated > 500, "{}: only {generated} calls generated", spec.name());
}
