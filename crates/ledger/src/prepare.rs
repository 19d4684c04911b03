//! Turning a [`Case`] into something that can be run and checked: the
//! compiled program, resolved thresholds, materialised inputs and the
//! reference outputs every timed operation is compared against.

use crate::cases::{Case, Pin};
use crate::check::{approx_eq, bits_eq, Tally};
use flat_exec::ExecConfig;
use flat_ir::interp::Thresholds;
use flat_ir::Value;
use flat_serve::cache::CachedProgram;
use std::collections::HashMap;

/// A case ready to run.
pub struct Ready {
    pub case: Case,
    /// Compiled the way `flatc` and `flatd` compile (no fusion pass),
    /// so a local run is what a served run must equal bit for bit.
    pub program: CachedProgram,
    pub thresholds: Thresholds,
    /// The pin as `(name, value)` pairs, the form an `exec` request
    /// carries.
    pub overrides: Vec<(String, i64)>,
    pub args: Vec<Value>,
    /// Outputs of the VM at one thread; all other runs must match them
    /// bit for bit.
    pub expect: Vec<Value>,
    /// The version path those outputs were computed along.
    pub signature: Vec<(u32, bool)>,
}

impl Ready {
    pub fn config(&self, threads: usize) -> ExecConfig {
        ExecConfig {
            thresholds: self.thresholds.clone(),
            threads: Some(threads),
            ..ExecConfig::default()
        }
    }

    pub fn elements(&self) -> usize {
        self.args
            .iter()
            .map(|v| match v {
                Value::Array(a) => a.data.len(),
                Value::Scalar(_) => 0,
            })
            .sum()
    }
}

/// Interpreter outputs keyed by everything they depend on, so the three
/// matmul rows (one program, one input, three version paths) pay for
/// one reference run.
pub type References = HashMap<(String, Vec<String>, u64), Vec<Value>>;

/// Compile, materialise and check one case. Each check is one attempted
/// operation on `tally`; `Err` means the case cannot run at all (which
/// the caller counts as a failure too).
pub fn prepare(
    case: &Case,
    nproc: usize,
    refs: &mut References,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let name = &case.name;
    let program = flat_serve::cache::compile_program(&case.source, &case.entry)
        .map_err(|e| format!("{name}: compile: {e}"))?;
    let registry = &program.flattened.thresholds;

    let overrides: Vec<(String, i64)> = match &case.pin {
        Pin::Default => Vec::new(),
        Pin::All(v) => registry.iter().map(|i| (i.name.clone(), *v)).collect(),
        Pin::Named(named) => named.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    };
    let id_of = |wanted: &str| {
        registry
            .iter()
            .find(|i| i.name == wanted)
            .map(|i| i.id)
            .ok_or_else(|| format!("{name}: no threshold named {wanted}"))
    };
    let mut thresholds = Thresholds::new();
    for (n, v) in &overrides {
        thresholds.set(id_of(n)?, *v);
    }
    let declared_path = match &case.expect_path {
        None => None,
        Some(path) => {
            let mut want = Vec::with_capacity(path.len());
            for (n, taken) in path {
                want.push((id_of(n)?.0, *taken));
            }
            want.sort_unstable();
            Some(want)
        }
    };

    let abs = case
        .args
        .iter()
        .map(|s| flat_serve::proto::parse_abs_value(s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{name}: argument: {e}"))?;
    let args = flat_exec::materialize(&abs, case.data_seed).map_err(|e| format!("{name}: {e}"))?;

    let mut ready = Ready {
        case: case.clone(),
        program,
        thresholds,
        overrides,
        args,
        expect: Vec::new(),
        signature: Vec::new(),
    };
    let run = |threads: usize| {
        flat_vm::run_compiled(&ready.program.compiled, &ready.args, &ready.config(threads))
            .map_err(|e| format!("{name}: run at {threads} thread(s): {e}"))
    };
    let one = run(1)?;
    let many = run(nproc)?;
    let signature = one.signature();

    let same_bits = bits_eq(&one.values, &many.values);
    tally.check(same_bits, || {
        format!("{name}: outputs differ between 1 and {nproc} threads")
    });
    let proto_eq = one.values.len() == many.values.len()
        && one
            .values
            .iter()
            .zip(&many.values)
            .all(|(a, b)| flat_serve::proto::bitwise_eq(a, b));
    tally.check(proto_eq == same_bits, || {
        format!("{name}: the ledger's bit comparison disagrees with proto::bitwise_eq")
    });
    tally.check(signature == many.signature(), || {
        format!("{name}: version path differs between 1 and {nproc} threads")
    });
    if let Some(want) = declared_path {
        tally.check(signature == want, || {
            format!("{name}: took version path {signature:?}, declared {want:?}")
        });
    }

    // The independent reference: the IR interpreter on the *unflattened*
    // source program, which never saw the flattener or the VM.
    let key = (case.source.clone(), case.args.clone(), case.data_seed);
    if !refs.contains_key(&key) {
        let source = flat_lang::compile(&case.source, &case.entry)
            .map_err(|e| format!("{name}: frontend: {e}"))?;
        let out = flat_ir::interp::run_program(&source, &ready.args, &Thresholds::new())
            .map_err(|e| format!("{name}: reference interpreter: {e}"))?;
        refs.insert(key.clone(), out);
    }
    tally.check(approx_eq(&one.values, &refs[&key]), || {
        format!("{name}: VM outputs leave the reference interpreter's envelope")
    });

    ready.expect = one.values;
    ready.signature = signature;
    Ok(ready)
}
