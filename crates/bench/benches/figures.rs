//! Criterion wrappers around small end-to-end cluster runs — one per
//! evaluated system — so `cargo bench` exercises the full harness and
//! tracks regressions in the simulator's own (wall-clock) performance.
//! The *virtual-time* results the paper's figures report come from the
//! figure binaries (`cargo run -p hamband-bench --bin figures`).

use criterion::{criterion_group, criterion_main, Criterion};

use hamband_runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband_types::{Counter, OrSet};

fn bench_hamband_counter(c: &mut Criterion) {
    let counter = Counter::default();
    let coord = counter.coord_spec();
    c.bench_function("cluster/hamband_counter_400ops_4nodes", |b| {
        b.iter(|| {
            let run = RunConfig::new(4, WorkloadSpec::ops(400).with_update_ratio(0.25));
            let rep = Runner::new(System::Hamband, run).run(&counter, &coord).report;
            assert!(rep.converged);
            std::hint::black_box(rep.throughput_ops_per_us)
        });
    });
}

fn bench_smr_counter(c: &mut Criterion) {
    let counter = Counter::default();
    c.bench_function("cluster/mu_smr_counter_400ops_4nodes", |b| {
        b.iter(|| {
            let run = RunConfig::new(4, WorkloadSpec::ops(400).with_update_ratio(0.25));
            let rep = Runner::new(System::MuSmr, run).run(&counter, &counter.coord_spec()).report;
            assert!(rep.converged);
            std::hint::black_box(rep.throughput_ops_per_us)
        });
    });
}

fn bench_msg_orset(c: &mut Criterion) {
    let orset = OrSet::default();
    let coord = orset.coord_spec();
    c.bench_function("cluster/msg_orset_400ops_4nodes", |b| {
        b.iter(|| {
            let run = RunConfig::new(4, WorkloadSpec::ops(400).with_update_ratio(0.25));
            let rep = Runner::new(System::Msg, run).run(&orset, &coord).report;
            assert!(rep.converged);
            std::hint::black_box(rep.throughput_ops_per_us)
        });
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_hamband_counter, bench_smr_counter, bench_msg_orset
);
criterion_main!(figures);
