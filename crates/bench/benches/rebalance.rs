//! Rebalance bench: times the three canonical adaptive re-interleave
//! scenarios that `BENCH_rebalance.json` tracks across PRs.
//!
//! Set `BENCH_QUICK=1` (CI smoke mode) to run the reduced
//! background populations and fewer samples. The bench also refreshes
//! `BENCH_rebalance.json` in the workspace root so the printed
//! Criterion numbers and the committed report never drift apart.

use criterion::{criterion_group, criterion_main, Criterion};
use simcxl_bench::rebalance;

fn bench(c: &mut Criterion) {
    let q = simcxl_bench::report::bench_quick();
    match rebalance::SUITE.write(q) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("warning: could not write BENCH_rebalance.json: {e}"),
    }
    let mut g = c.benchmark_group("rebalance");
    g.sample_size(if q { 2 } else { 10 });
    // Criterion re-times the quick populations (the report above is the
    // full-size artifact; a sample re-runs both the adaptive run and
    // its static control).
    for (case, clients) in rebalance::populations(true) {
        g.bench_function(case.name(), |b| {
            b.iter(|| case.run(clients, rebalance::BENCH_SEED, 1))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
