//! Scenario bench: times the three canonical client scenarios that
//! `BENCH_scenarios.json` tracks across PRs.
//!
//! Set `BENCH_QUICK=1` (CI smoke mode) to run the reduced populations
//! and fewer samples. The bench also refreshes `BENCH_scenarios.json` in
//! the workspace root so the printed Criterion numbers and the committed
//! report never drift apart.

use criterion::{criterion_group, criterion_main, Criterion};
use simcxl_bench::scenarios;

fn bench(c: &mut Criterion) {
    let q = simcxl_bench::report::bench_quick();
    match scenarios::SUITE.write(q) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("warning: could not write BENCH_scenarios.json: {e}"),
    }
    let mut g = c.benchmark_group("scenarios");
    g.sample_size(if q { 2 } else { 10 });
    // Criterion re-times scaled-down populations (the report above is
    // the full-size artifact; iterating million-client runs ten times
    // would take minutes per sample).
    for mut case in scenarios::cases(true) {
        if q {
            case.spec.clients /= 4;
        }
        let name = case.spec.name.clone();
        g.bench_function(&name, |b| b.iter(|| case.run()));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
