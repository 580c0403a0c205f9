//! Fault bench: times the three canonical degradation scenarios that
//! `BENCH_faults.json` tracks across PRs.
//!
//! Set `BENCH_QUICK=1` (CI smoke mode) to run the reduced populations
//! and fewer samples. The bench also refreshes `BENCH_faults.json` in
//! the workspace root so the printed Criterion numbers and the
//! committed report never drift apart.

use criterion::{criterion_group, criterion_main, Criterion};
use simcxl_bench::faults;

fn bench(c: &mut Criterion) {
    let q = simcxl_bench::report::bench_quick();
    match faults::SUITE.write(q) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("warning: could not write BENCH_faults.json: {e}"),
    }
    let mut g = c.benchmark_group("faults");
    g.sample_size(if q { 2 } else { 10 });
    // Criterion re-times the quick populations (the report above is the
    // full-size artifact; iterating full-scale degraded runs ten times
    // would take minutes per sample).
    for (case, mut clients) in faults::populations(true) {
        if q {
            clients /= 4;
        }
        g.bench_function(case.name(), |b| {
            b.iter(|| case.run(clients, faults::BENCH_SEED, 1))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
