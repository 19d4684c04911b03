//! The daemon's reference workload: a module-scale program and its
//! cache-distinct variants. The `flat-ledger` benchmark's `serve-hit`
//! workload and the daemon's tests send these, so a served request
//! pays for a realistic parse and elaboration on a cache miss.

/// The entry point of the default workload: a small reduction, cheap to
/// execute so the ledger's `serve-hit` requests time the service (frame
/// codec, hash, cache hit, admission), not the kernel.
pub const DEFAULT_SOURCE: &str = "def main [n] (xs: [n]i64): i64 = reduce (+) 0 xs";

/// The default workload source: [`DEFAULT_SOURCE`]'s trivial entry
/// point inside a module-scale program (160 auxiliary depth-3
/// nested-parallel definitions). Real clients ship whole modules, not
/// one-liners, and parse/elaboration cost scales with the module — so
/// the ledger's `serve-hit` variants of this source ([`variant`]) each
/// pay a realistic compile once, in set-up, and the timed requests are
/// compile-cache hits on module-scale entries.
pub fn default_source() -> String {
    let mut src = String::new();
    for i in 0..160 {
        src.push_str(&format!(
            "def aux{i} [n][m][k] (xsss: [n][m][k]f32): [n][m]f32 =\n  \
             map (\\xss -> map (\\xs -> reduce (+) 0f32 \
             (map (\\x -> x * {i}f32) (scan (+) 0f32 xs))) xss) xsss\n"
        ));
    }
    src.push_str(DEFAULT_SOURCE);
    src
}

/// The `i`th distinct program variant: comments keep semantics (and
/// results) identical while changing the content hash.
pub fn variant(source: &str, i: usize) -> String {
    format!("-- variant {i}\n{source}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_source_is_module_scale_and_compiles() {
        let src = default_source();
        assert!(src.len() > 10_000, "default workload must be module-scale");
        let (prog, cached) =
            crate::cache::CompileCache::new(2).get_or_compile(&src, "main").map_err(|e| e.message).unwrap();
        assert!(!cached);
        assert_eq!(prog.entry, "main");
    }

    #[test]
    fn variants_are_distinct_programs() {
        let a = variant(DEFAULT_SOURCE, 0);
        let b = variant(DEFAULT_SOURCE, 1);
        assert_ne!(
            crate::cache::program_hash(&a, "main"),
            crate::cache::program_hash(&b, "main")
        );
    }
}
