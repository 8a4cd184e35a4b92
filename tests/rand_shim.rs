//! The vendored `rand` shim's integer draws, pinned: `gen_range` takes
//! one word `x` and returns `lo + x mod span`. Every workload and
//! fabric jitter draw goes through it, so the virtual fingerprints of
//! every run depend on this exact mapping, whatever arithmetic computes
//! it.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Draws `rounds` values with `draw` and checks each against the word
/// a clone of the generator produces, reduced by `span` and offset by
/// `lo`.
fn check<T: Into<i128>>(lo: i128, span: u128, mut draw: impl FnMut(&mut StdRng) -> T) {
    let mut rng = StdRng::seed_from_u64(0x5eed ^ span as u64);
    for _ in 0..2_000 {
        let x = rng.clone().next_u64();
        let v: i128 = draw(&mut rng).into();
        assert_eq!(v, lo + ((x as u128) % span) as i128, "span {span}, word {x:#x}");
    }
}

#[test]
fn gen_range_is_the_word_modulo_the_span() {
    check(0, 1, |r| r.gen_range(0..1u64));
    check(7, 1, |r| r.gen_range(7..=7i64));
    check(-5, 11, |r| r.gen_range(-5..=5i64));
    check(3, 11, |r| r.gen_range(3..14usize as u64));
    check(0, (1 << 63) + 1, |r| r.gen_range(0..=1u64 << 63));
    check(0, u64::MAX as u128, |r| r.gen_range(0..u64::MAX));
    check(0, 1 << 64, |r| r.gen_range(0..=u64::MAX));
    check(i64::MIN as i128, 1 << 64, |r| r.gen_range(i64::MIN..=i64::MAX));
    check(-3, 7, |r| r.gen_range(-3..4i32));
    check(0, 1 << 32, |r| r.gen_range(0..=u32::MAX));
}

#[test]
fn gen_range_draws_exactly_one_word() {
    let mut a = StdRng::seed_from_u64(1);
    let mut b = a.clone();
    for span in [1u64, 2, 11, u64::MAX] {
        let _: u64 = a.gen_range(0..span);
        b.next_u64();
    }
    let _: i64 = a.gen_range(i64::MIN..=i64::MAX);
    b.next_u64();
    assert_eq!(a.next_u64(), b.next_u64());
}
