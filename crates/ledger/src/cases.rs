//! The four workloads as case lists. A case is everything one operation
//! needs — program text, entry point, argument specs in the `--arg`
//! grammar, threshold overrides and the materialisation seed — so the
//! same list drives the timed pass (compile it, run it, or serve it) and
//! the traced replay through the whole stack.
//!
//! The benchmark seed feeds input data (`data_seed`), case order and the
//! serve workloads' request sequence, nothing else: the programs under
//! test receive only the generated inputs.

use flat_ir::Value;
use gpu_sim::AbsValue;

/// How a row pins the multi-version program's threshold guards.
#[derive(Clone, Debug, PartialEq)]
pub enum Pin {
    /// The compiler's untouched 2^15 defaults.
    Default,
    /// Every threshold set to one value (`1`: every guard passes;
    /// [`NEVER`]: every guard fails).
    All(i64),
    /// Named overrides; the rest stay at their defaults.
    Named(Vec<(&'static str, i64)>),
}

/// A threshold no degree of parallelism in these shapes reaches, so the
/// guard always fails. Not `i64::MAX`: an `exec` request carries
/// overrides as JSON doubles, and the daemon refuses one that is not an
/// exact integer.
const NEVER: i64 = 1 << 40;

/// One `(threshold name, guard taken)` pair of an expected version path.
pub type PathStep = (&'static str, bool);

#[derive(Clone, Debug)]
pub struct Case {
    pub name: String,
    pub source: String,
    pub entry: String,
    pub args: Vec<String>,
    pub pin: Pin,
    pub data_seed: u64,
    /// The version path this row exists to exercise; `None` for cases
    /// that only need *a* path (checked for repeatability instead).
    pub expect_path: Option<Vec<PathStep>>,
}

/// SplitMix64: the seeded hash behind every seed-dependent choice.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const SUMROWS: &str =
    "def sumrows [n][m] (xss: [n][m]f32): [n]f32 =\n  map (\\xs -> reduce (+) 0f32 xs) xss\n";

const BULK: &str = "def main [n] (xs: [n]f32): [n]f32 = map (\\x -> x * 2f32 + 1f32) xs\n";

/// Sizes that differ between the real benchmark and `--smoke`.
struct Scale {
    matmul: [i64; 3],
    locvol: [i64; 4],
    sumrows_wide: [i64; 2],
    sumrows_deep: [i64; 2],
    hit_variants: usize,
    /// Auxiliary definitions in the served module (160 in the daemon's
    /// own load generator; parse cost scales with it).
    hit_module: bool,
    bulk_len: i64,
    compile_programs: usize,
}

const FULL: Scale = Scale {
    matmul: [64, 512, 64],
    locvol: [64, 32, 32, 4],
    sumrows_wide: [65536, 32],
    sumrows_deep: [8, 262144],
    hit_variants: 16,
    hit_module: true,
    bulk_len: 262144,
    compile_programs: usize::MAX,
};

const SMOKE: Scale = Scale {
    matmul: [8, 16, 8],
    locvol: [4, 8, 8, 2],
    sumrows_wide: [64, 8],
    sumrows_deep: [2, 512],
    hit_variants: 2,
    hit_module: false,
    bulk_len: 1024,
    compile_programs: 3,
};

fn spec_of(v: &Value) -> String {
    flat_serve::proto::abs_value_spec(&AbsValue::of_value(v))
        .expect("benchmark test arguments are i64/f32 scalars and arrays")
}

fn shape(dims: &[i64]) -> String {
    let mut s: String = dims.iter().map(|d| format!("[{d}]")).collect();
    s.push_str("f32");
    s
}

/// The ten paper benchmarks plus the daemon's module-scale source, each
/// with the small shapes of its semantics tests: compile time is what
/// this list is for, and the thin arguments make its replayed kernels a
/// measure of pure launch overhead.
fn compile_cases(scale: &Scale, data_seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = benchmarks::all_benchmarks()
        .iter()
        .take(scale.compile_programs)
        .map(|b| {
            let mut rng = benchmarks::Benchmark::rng();
            Case {
                name: b.name.to_lowercase(),
                source: b.source.to_string(),
                entry: b.entry.to_string(),
                args: (b.test_args)(&mut rng).iter().map(spec_of).collect(),
                pin: Pin::Default,
                data_seed,
                expect_path: None,
            }
        })
        .collect();
    cases.push(Case {
        name: "module".to_string(),
        source: module_source(scale),
        entry: "main".to_string(),
        args: vec!["256".to_string(), "[256]i64".to_string()],
        pin: Pin::Default,
        data_seed,
        expect_path: None,
    });
    cases
}

fn module_source(scale: &Scale) -> String {
    if scale.hit_module {
        flat_serve::bench::default_source()
    } else {
        flat_serve::bench::DEFAULT_SOURCE.to_string()
    }
}

/// Eight rows: one VM, three uses per shape (Fig. 2 in miniature).
fn kernel_cases(scale: &Scale, data_seed: u64) -> Vec<Case> {
    let [n, m, p] = scale.matmul;
    let matmul_args = vec![
        n.to_string(),
        m.to_string(),
        p.to_string(),
        shape(&[n, m]),
        shape(&[m, p]),
    ];
    let [s, x, y, t] = scale.locvol;
    let locvol_args = vec![
        s.to_string(),
        x.to_string(),
        y.to_string(),
        shape(&[s, x, y]),
        shape(&[s, y, x]),
        t.to_string(),
    ];
    let sumrows_args = |[n, m]: [i64; 2]| vec![n.to_string(), m.to_string(), shape(&[n, m])];
    let row = |name: &str, source: &str, entry: &str, args: &[String], pin, path| Case {
        name: name.to_string(),
        source: source.to_string(),
        entry: entry.to_string(),
        args: args.to_vec(),
        pin,
        data_seed,
        expect_path: Some(path),
    };
    let matmul = |name, pin, path| {
        row(
            name,
            benchmarks::matmul::SOURCE,
            "matmul",
            &matmul_args,
            pin,
            path,
        )
    };
    let locvol = |name, pin, path| {
        row(
            name,
            benchmarks::locvolcalib::SOURCE,
            "locvolcalib",
            &locvol_args,
            pin,
            path,
        )
    };
    let all_false = |names: &[&'static str]| names.iter().map(|&n| (n, false)).collect();
    const MATMUL_T: [&str; 4] = [
        "suff_outer_par_0",
        "suff_intra_par_1",
        "suff_outer_par_2",
        "suff_intra_par_3",
    ];
    const LOCVOL_T: [&str; 6] = [
        "suff_outer_par_0",
        "suff_intra_par_1",
        "suff_outer_par_2",
        "suff_intra_par_3",
        "suff_outer_par_4",
        "suff_intra_par_5",
    ];
    vec![
        // Top-level segmap with a sequential body.
        matmul(
            "matmul-outer",
            Pin::Named(vec![("suff_outer_par_0", 1)]),
            vec![("suff_outer_par_0", true)],
        ),
        // Segmap over a level-0 segred.
        matmul(
            "matmul-intra",
            Pin::Named(vec![("suff_outer_par_0", NEVER), ("suff_intra_par_1", 1)]),
            vec![("suff_outer_par_0", false), ("suff_intra_par_1", true)],
        ),
        // One fully flattened segred.
        matmul("matmul-flat", Pin::All(NEVER), all_false(&MATMUL_T)),
        // One segmap over everything.
        locvol(
            "locvol-outer",
            Pin::All(1),
            vec![("suff_outer_par_0", true)],
        ),
        // Every scan its own segscan kernel.
        locvol("locvol-flat", Pin::All(NEVER), all_false(&LOCVOL_T)),
        // What a user gets without tuning.
        locvol(
            "locvol-default",
            Pin::Default,
            vec![("suff_outer_par_0", false), ("suff_intra_par_1", true)],
        ),
        // Memory-bound: many short rows.
        row(
            "sumrows-wide",
            SUMROWS,
            "sumrows",
            &sumrows_args(scale.sumrows_wide),
            Pin::Named(vec![("suff_outer_par_0", 1)]),
            vec![("suff_outer_par_0", true)],
        ),
        // Few long rows.
        row(
            "sumrows-deep",
            SUMROWS,
            "sumrows",
            &sumrows_args(scale.sumrows_deep),
            Pin::Named(vec![("suff_outer_par_0", NEVER), ("suff_intra_par_1", 1)]),
            vec![("suff_outer_par_0", false), ("suff_intra_par_1", true)],
        ),
    ]
}

/// Variants of the module-scale source: comments change the content hash
/// and nothing else, so each is its own compile-cache entry.
fn hit_cases(scale: &Scale, data_seed: u64) -> Vec<Case> {
    let source = module_source(scale);
    (0..scale.hit_variants)
        .map(|i| Case {
            name: format!("variant-{i}"),
            source: flat_serve::bench::variant(&source, i),
            entry: "main".to_string(),
            args: vec!["256".to_string(), "[256]i64".to_string()],
            pin: Pin::Default,
            data_seed,
            expect_path: None,
        })
        .collect()
}

fn bulk_cases(scale: &Scale, data_seed: u64) -> Vec<Case> {
    vec![Case {
        name: "bulk-map".to_string(),
        source: BULK.to_string(),
        entry: "main".to_string(),
        args: vec![
            scale.bulk_len.to_string(),
            format!("[{}]f32", scale.bulk_len),
        ],
        pin: Pin::Default,
        data_seed,
        expect_path: None,
    }]
}

/// The case list of a workload in its declared order (set-up runs in
/// this order, so peak memory does not depend on the seed). `None` for an
/// unknown workload name.
pub fn cases(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Case>> {
    let scale = if smoke { &SMOKE } else { &FULL };
    // 52 bits: the wire carries numbers as JSON doubles, and a seed the
    // daemon rounds is a different input.
    let data_seed = splitmix(seed) >> 12;
    let mut list = match workload {
        "compile" => compile_cases(scale, data_seed),
        "kernels" => kernel_cases(scale, data_seed),
        "serve-hit" => hit_cases(scale, data_seed),
        "serve-bulk" => bulk_cases(scale, data_seed),
        _ => return None,
    };
    if smoke {
        // Which version the untouched defaults pick depends on the
        // shape, and smoke shapes are not the declared ones.
        for case in list.iter_mut().filter(|c| c.pin == Pin::Default) {
            case.expect_path = None;
        }
    }
    Some(list)
}

/// Which case the timed rounds start from, so no row always runs first.
pub fn first_case(seed: u64, cases: usize) -> usize {
    (splitmix(seed ^ 0x0c5e) % cases as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_cases_and_the_seed_only_moves_data_and_order() {
        for w in &crate::manifest::WORKLOADS {
            let a = cases(w.name, 1, true).expect("declared workload");
            let b = cases(w.name, 2, true).expect("declared workload");
            assert!(!a.is_empty());
            assert_ne!(a[0].data_seed, b[0].data_seed);
            let names_a: Vec<_> = a.iter().map(|c| (&c.name, &c.source, &c.args)).collect();
            let names_b: Vec<_> = b.iter().map(|c| (&c.name, &c.source, &c.args)).collect();
            assert_eq!(
                names_a, names_b,
                "{}: programs and shapes are seed-independent",
                w.name
            );
            assert!(first_case(1, a.len()) < a.len());
        }
        assert!(cases("nope", 1, true).is_none());
        assert_eq!(cases("kernels", 1, false).map(|c| c.len()), Some(8));
        assert_eq!(cases("compile", 1, false).map(|c| c.len()), Some(11));
        assert_eq!(cases("serve-hit", 1, false).map(|c| c.len()), Some(16));
    }
}
