//! Regenerates Figure 8: bulk validation — speedup of incremental
//! flattening (untuned and autotuned) and of the hand-written reference
//! implementations over moderate flattening, for the eight benchmarks of
//! Table 1 on both simulated GPUs.

use autotune::{exhaustive_tune, TuningProblem};
use benchmarks::suite::{Benchmark, ReferenceImpl};
use flat_bench::{ascii_bar, write_json, Row};
use flat_ir::interp::Thresholds;
use gpu_sim::DeviceSpec;
use incflat::FlattenConfig;

struct BenchResult {
    name: String,
    rows: Vec<Row>,
    lines: Vec<String>,
}

fn run_benchmark(bench: &Benchmark, dev: &DeviceSpec) -> BenchResult {
    let mf = bench.flatten(&FlattenConfig::moderate());
    let incr = bench.flatten(&FlattenConfig::incremental());
    let default = Thresholds::new();
    let problem = TuningProblem::new(&incr, bench.tuning_datasets.clone(), dev.clone());
    let tuned = exhaustive_tune(&problem, 1 << 20)
        .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", bench.name))
        .thresholds;

    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for d in &bench.datasets {
        let mf_c = bench.cost(&mf, dev, d, &default).unwrap();
        let mut variants: Vec<(String, f64)> = vec![
            ("incremental".into(), bench.cost(&incr, dev, d, &default).unwrap()),
            ("incremental-tuned".into(), bench.cost(&incr, dev, d, &tuned).unwrap()),
        ];
        if let Some(r) = &bench.reference {
            let ReferenceImpl::HandWritten(f) = r;
            // The paper cannot report reference numbers for the batched
            // benchmarks' D2 datasets (the originals are unbatched); we
            // can, since our references take the same arguments.
            variants.push(("reference".into(), f(dev, d).unwrap()));
        }
        let max_speedup = variants.iter().map(|(_, c)| mf_c / c).fold(1.0f64, f64::max);
        lines.push(format!(
            "  {:<4} (MF runtime {:>12.0} µs)",
            d.name,
            dev.cycles_to_us(mf_c)
        ));
        for (variant, c) in variants {
            let speedup = mf_c / c;
            lines.push(format!(
                "    {:<18} {:>7.2}x {}",
                variant,
                speedup,
                ascii_bar(speedup, max_speedup)
            ));
            rows.push(Row {
                benchmark: bench.name.into(),
                dataset: d.name.clone(),
                device: dev.name.into(),
                variant,
                microseconds: dev.cycles_to_us(c),
                speedup,
            });
        }
    }
    BenchResult { name: bench.name.to_string(), rows, lines }
}

fn main() -> std::io::Result<()> {
    let mut all_rows = Vec::new();
    for dev in [DeviceSpec::k40(), DeviceSpec::vega64()] {
        println!("\n================ Figure 8 — speedup over MF on {} ================", dev.name);
        // Run benchmarks in parallel; print in order.
        let benches = benchmarks::bulk_benchmarks();
        let results: Vec<BenchResult> = std::thread::scope(|s| {
            let handles: Vec<_> = benches
                .iter()
                .map(|b| {
                    let dev = dev.clone();
                    s.spawn(move || run_benchmark(b, &dev))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark thread panicked"))
                .collect()
        });
        for r in results {
            println!("{}", r.name);
            for l in &r.lines {
                println!("{l}");
            }
            all_rows.extend(r.rows);
        }
    }
    write_json("fig8_bulk.json", &all_rows)?;

    println!("\nExpected shape (paper): AIF ≥ MF everywhere, with the largest");
    println!("wins where a dataset needs inner parallelism (OptionPricing D2,");
    println!("Heston, LavaMD D2, NN D1); references win where they exploit");
    println!("mechanisms Futhark lacks (NW in-place blocks) and lose where");
    println!("they leave parallelism unused or reduce on the CPU.");
    Ok(())
}
