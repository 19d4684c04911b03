//! Output checks. Every operation the benchmark times is also checked,
//! and a mismatch is a failed operation, not a warning.

use flat_ir::{Buffer, Const, Value};

/// Attempted and failed operations of one pass; the first few failure
/// descriptions are kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Tally::MAX_NOTES {
                self.notes.push(what());
            }
        }
        ok
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Tally::MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// Compare two result lists shape for shape, with `same` deciding
/// buffer equality; scalars compare as one-element buffers.
fn values_eq(a: &[Value], b: &[Value], same: fn(&Buffer, &Buffer) -> bool) -> bool {
    fn lone(c: Const) -> Buffer {
        let mut buf = Buffer::with_capacity(c.scalar_type(), 1);
        buf.push(c);
        buf
    }
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Array(u), Value::Array(v)) => u.shape == v.shape && same(&u.data, &v.data),
            (Value::Scalar(u), Value::Scalar(v)) => same(&lone(*u), &lone(*v)),
            _ => false,
        })
}

/// Bit-pattern equality of two result lists: the predicate of
/// `flat_serve::proto::bitwise_eq` without its hex round trip, which on
/// a 1 MB reply would cost the timed loop a tenth of a request. Set-up
/// holds the two predicates to each other on every case.
pub fn bits_eq(a: &[Value], b: &[Value]) -> bool {
    values_eq(a, b, |a, b| match (a, b) {
        (Buffer::F32(x), Buffer::F32(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        }
        (Buffer::F64(x), Buffer::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        }
        _ => a == b,
    })
}

/// The envelope of `tests/executor.rs` — integers exact, floats within
/// `1e-4` — applied per buffer against its largest reference magnitude
/// (never below 1) instead of per element. A reduction over 262144 `f32`s
/// in `[-1, 1)` cancels to a sum near zero while its rounding error is
/// that of the partial sums, so no reassociation meets an element-wise
/// relative bound there; against the buffer's norm the worst error seen
/// over 40 seeds is `2e-5`.
pub fn approx_eq(got: &[Value], reference: &[Value]) -> bool {
    fn within(
        got: impl Iterator<Item = f64> + Clone,
        reference: impl Iterator<Item = f64> + Clone,
    ) -> bool {
        let norm = reference.clone().fold(1.0_f64, |m, y| m.max(y.abs()));
        got.zip(reference)
            .all(|(x, y)| (x - y).abs() <= 1e-4 * norm)
    }
    values_eq(got, reference, |a, b| match (a, b) {
        (Buffer::F32(x), Buffer::F32(y)) => {
            x.len() == y.len() && within(x.iter().map(|v| *v as f64), y.iter().map(|v| *v as f64))
        }
        (Buffer::F64(x), Buffer::F64(y)) => {
            x.len() == y.len() && within(x.iter().copied(), y.iter().copied())
        }
        _ => a == b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_eq_is_stricter_than_approx_eq() {
        let a = vec![Value::f32_vec(vec![1.0, 0.0]), Value::i64_(3)];
        let near = vec![Value::f32_vec(vec![1.00001, -0.0]), Value::i64_(3)];
        assert!(bits_eq(&a, &a) && approx_eq(&a, &a));
        assert!(!bits_eq(&a, &near) && approx_eq(&a, &near));
        let nan = vec![Value::f32_(f32::NAN)];
        assert!(bits_eq(&nan, &nan), "bit patterns, so NaN equals itself");
        let off = vec![Value::f32_vec(vec![1.0, 0.0]), Value::i64_(4)];
        assert!(!approx_eq(&a, &off), "integers are exact");
        // The envelope scales with the buffer's largest magnitude, not
        // with each element: 0.01 off is inside it beside a 300.
        let sums = vec![Value::f32_vec(vec![300.0, 0.5])];
        assert!(approx_eq(&[Value::f32_vec(vec![300.0, 0.51])], &sums));
        assert!(!approx_eq(&[Value::f32_vec(vec![300.0, 0.6])], &sums));
        assert!(!bits_eq(&a, &a[..1]));
    }

    #[test]
    fn tally_counts_and_keeps_the_first_notes() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        for i in 0..20 {
            t.check(false, || format!("bad {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.notes.len()), (21, 20, 8));
        let mut sum = Tally::default();
        sum.absorb(t);
        assert_eq!((sum.attempted, sum.failed, sum.notes.len()), (21, 20, 8));
    }
}
