//! Materializing abstract dataset descriptions into concrete values.
//!
//! The autotuner and benchmark suites describe datasets as
//! [`AbsValue`]s (known scalars, arrays of known shape). The simulator
//! consumes those directly; real execution needs buffers, so this
//! module fills them deterministically from a seed. Integer elements
//! are drawn from a small range so sums stay far from overflow, floats
//! from `[-1, 1)`.

use crate::decomp::ExecError;
use flat_ir::ast::Const;
use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_ir::ScalarType;
use gpu_sim::AbsValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Turn abstract argument descriptions into concrete values, filling
/// array buffers from a deterministic PRNG. Fails on unknown scalars,
/// negative dimensions, or an element count past `i64` — execution
/// needs every value concrete.
pub fn materialize(args: &[AbsValue], seed: u64) -> Result<Vec<Value>, ExecError> {
    let mut rng = StdRng::seed_from_u64(seed);
    args.iter()
        .enumerate()
        .map(|(i, a)| match a {
            AbsValue::Scalar(Some(c)) => Ok(Value::Scalar(*c)),
            AbsValue::Scalar(None) => Err(ExecError(format!(
                "argument {i}: unknown scalar cannot be materialized"
            ))),
            AbsValue::Array { shape, elem, .. } => {
                if shape.iter().any(|&d| d < 0) {
                    return Err(ExecError(format!(
                        "argument {i}: negative dimension in shape {shape:?}"
                    )));
                }
                let n = shape.iter().try_fold(1i64, |n, &d| n.checked_mul(d)).ok_or_else(|| {
                    ExecError(format!("argument {i}: element count of shape {shape:?} overflows"))
                })?;
                Ok(Value::Array(ArrayVal::new(
                    shape.clone(),
                    fill(*elem, n as usize, &mut rng),
                )))
            }
        })
        .collect()
}

fn fill(st: ScalarType, n: usize, rng: &mut StdRng) -> Buffer {
    let mut buf = Buffer::with_capacity(st, n);
    for _ in 0..n {
        buf.push(match st {
            ScalarType::I32 => Const::I32(rng.gen_range(-8..=8)),
            ScalarType::I64 => Const::I64(rng.gen_range(-8..=8)),
            ScalarType::F32 => Const::F32(rng.gen_range(-1.0f32..1.0)),
            ScalarType::F64 => Const::F64(rng.gen_range(-1.0f64..1.0)),
            ScalarType::Bool => Const::Bool(rng.gen_bool(0.5)),
        });
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_shaped() {
        let args = vec![
            AbsValue::known(Const::I64(7)),
            AbsValue::array(vec![4, 5], ScalarType::F32),
        ];
        let a = materialize(&args, 42).unwrap();
        let b = materialize(&args, 42).unwrap();
        assert_eq!(a, b, "same seed, same values");
        assert_eq!(a[0], Value::Scalar(Const::I64(7)));
        assert_eq!(a[1].shape(), vec![4, 5]);
        let c = materialize(&args, 43).unwrap();
        assert_ne!(a[1], c[1], "different seed, different buffer");
    }

    #[test]
    fn unknown_scalar_is_an_error() {
        let e = materialize(&[AbsValue::Scalar(None)], 0).unwrap_err();
        assert!(e.0.contains("unknown scalar"), "{e}");
    }

    #[test]
    fn overflowing_shapes_are_errors() {
        // The first wraps negative, the second wraps to exactly 0.
        for d in [3_037_000_500i64, 1 << 32] {
            let e = materialize(&[AbsValue::array(vec![d, d], ScalarType::F32)], 0).unwrap_err();
            assert!(e.0.contains("overflows"), "{e}");
        }
    }
}
