//! Event-loop hot-path bench: times the coherence-engine stress workload
//! that `BENCH_hotpath.json` tracks across PRs.
//!
//! Set `BENCH_QUICK=1` (CI smoke mode) to run the reduced workload and
//! fewer samples. The bench also refreshes `BENCH_hotpath.json` in the
//! workspace root so the printed Criterion numbers and the committed
//! perf trajectory never drift apart.

use criterion::{criterion_group, criterion_main, Criterion};
use simcxl_bench::hotpath::{self, StressConfig};

fn bench(c: &mut Criterion) {
    let q = simcxl_bench::report::bench_quick();
    match hotpath::SUITE.write(q) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("warning: could not write BENCH_hotpath.json: {e}"),
    }
    let mut g = c.benchmark_group("engine_hotpath");
    g.sample_size(if q { 2 } else { 10 });
    let stress_cfg = if q {
        StressConfig::quick()
    } else {
        StressConfig {
            requests: 30_000,
            ..StressConfig::full()
        }
    };
    g.bench_function("stress_mixed", |b| b.iter(|| hotpath::stress(&stress_cfg)));
    // The same workload with the directory interleaved across four
    // homes: measures the topology router + per-shard serialization.
    let multihome_cfg = StressConfig {
        homes: 4,
        ..stress_cfg.clone()
    };
    g.bench_function("stress_multihome", |b| {
        b.iter(|| hotpath::stress(&multihome_cfg))
    });
    // The skewed 4:2:1:1 weighted interleave: measures the weighted
    // stripe-pattern router against the uniform multihome variant.
    let weighted_cfg = StressConfig {
        requests: stress_cfg.requests,
        ..if q {
            StressConfig::multihome_weighted_quick()
        } else {
            StressConfig::multihome_weighted()
        }
    };
    g.bench_function("stress_weighted", |b| {
        b.iter(|| hotpath::stress(&weighted_cfg))
    });
    // The same multihome workload as one dense upfront batch: deep
    // pending lists and the far-future queue tier.
    g.bench_function("stress_upfront", |b| {
        b.iter(|| hotpath::stress_upfront(&multihome_cfg))
    });
    let queue_cfg = StressConfig {
        requests: if q { 5_000 } else { 20_000 },
        // One giant wave: maximum queue depth, dominated by push/pop.
        wave: usize::MAX,
        ..StressConfig::full()
    };
    g.bench_function("deep_queue", |b| b.iter(|| hotpath::stress(&queue_cfg)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
