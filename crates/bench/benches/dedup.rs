//! Deduplication-structure throughput and memory (Figure 5's supporting
//! machinery): sliding window vs. paged bitmap.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmap_dedup::{Deduplicator, PagedBitmap, SlidingWindow};

/// A simple xorshift stream of 48-bit target keys.
fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 16
        })
        .collect()
}

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup");
    let stream = keys(100_000, 42);
    g.throughput(Throughput::Elements(stream.len() as u64));

    g.bench_function("sliding_window_1e6_fresh_keys", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(1_000_000);
            let mut kept = 0u64;
            for &k in &stream {
                kept += u64::from(w.check_and_insert(black_box(k)));
            }
            kept
        })
    });

    g.bench_function("sliding_window_1e4_with_eviction", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(10_000);
            let mut kept = 0u64;
            for &k in &stream {
                kept += u64::from(w.check_and_insert(black_box(k)));
            }
            kept
        })
    });

    // Bitmap needs 32-bit keys (the single-port era).
    let stream32: Vec<u64> = stream.iter().map(|&k| k & 0xFFFF_FFFF).collect();
    g.bench_function("paged_bitmap", |b| {
        b.iter(|| {
            let mut bm = PagedBitmap::new();
            let mut kept = 0u64;
            for &k in &stream32 {
                kept += u64::from(bm.observe(black_box(k)));
            }
            kept
        })
    });

    g.finish();
}

fn bench_dedup_duplicate_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup_blowback");
    // 90% duplicates: the blowback-heavy receive path.
    let base = keys(10_000, 7);
    let mut stream = Vec::with_capacity(100_000);
    for i in 0..100_000 {
        stream.push(base[i % base.len()]);
    }
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("window_1e6_90pct_dups", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(1_000_000);
            let mut kept = 0u64;
            for &k in &stream {
                kept += u64::from(w.check_and_insert(black_box(k)));
            }
            kept
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dedup, bench_dedup_duplicate_heavy);
criterion_main!(benches);
